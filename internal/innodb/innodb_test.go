package innodb

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dmv/internal/heap"
	"dmv/internal/simdisk"
	"dmv/internal/value"
)

var testDDL = []string{
	`CREATE TABLE kv (k INT PRIMARY KEY, v INT)`,
}

func seed(e *heap.Engine) error {
	tid, _ := e.TableID("kv")
	rows := make([]value.Row, 0, 50)
	for i := 1; i <= 50; i++ {
		rows = append(rows, value.Row{value.NewInt(int64(i)), value.NewInt(0)})
	}
	return e.Load(tid, rows)
}

func readKV(t *testing.T, db *DB, k int64) int64 {
	t.Helper()
	var out int64
	err := db.ReadTxn(func(q *Session) error {
		res, err := q.Exec(`SELECT v FROM kv WHERE k = ?`, value.NewInt(k))
		if err != nil {
			return err
		}
		if len(res.Rows) > 0 {
			out = res.Rows[0][0].AsInt()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return out
}

func writeKV(t *testing.T, q *Session, k, v int64) {
	t.Helper()
	if _, err := q.Exec(`UPDATE kv SET v = ? WHERE k = ?`, value.NewInt(v), value.NewInt(k)); err != nil {
		t.Fatalf("write: %v", err)
	}
}

func TestCommitChargesFsync(t *testing.T) {
	db, err := Open("d", Config{Costs: simdisk.OnDisk(0, time.Millisecond, 0)}, testDDL, seed)
	if err != nil {
		t.Fatal(err)
	}
	err = db.UpdateTxn(func(q *Session) error {
		_, err := q.Exec(`UPDATE kv SET v = 1 WHERE k = 1`)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.Disk.Stats().Fsyncs.Load() != 1 {
		t.Fatalf("fsyncs = %d, want 1", db.Disk.Stats().Fsyncs.Load())
	}
}

func TestTierWriteAllKeepsActivesConsistent(t *testing.T) {
	tier, err := NewTier(TierConfig{
		Actives:   2,
		Heartbeat: 5 * time.Millisecond,
		DDL:       testDDL,
		Load:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()

	for i := 1; i <= 30; i++ {
		err := tier.Update([]string{"kv"}, func(q *Session) error {
			writeKV(t, q, int64(i%10+1), int64(i))
			return nil
		})
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	// Reads round-robin over both actives; both must agree on every key.
	values := map[int64][]int64{}
	for i := 0; i < 20; i++ {
		err := tier.Read(func(q *Session) error {
			for k := int64(1); k <= 10; k++ {
				res, err := q.Exec(`SELECT v FROM kv WHERE k = ?`, value.NewInt(k))
				if err != nil {
					return err
				}
				values[k] = append(values[k], res.Rows[0][0].AsInt())
			}
			return nil
		})
		if err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	for k, vs := range values {
		for _, v := range vs {
			if v != vs[0] {
				t.Fatalf("key %d diverged across actives: %v", k, vs)
			}
		}
	}
}

func TestTierConflictAwareSerialization(t *testing.T) {
	tier, err := NewTier(TierConfig{Actives: 1, DDL: testDDL, Load: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				err := tier.Update([]string{"kv"}, func(q *Session) error {
					res, err := q.Exec(`SELECT v FROM kv WHERE k = 1`)
					if err != nil {
						return err
					}
					cur := res.Rows[0][0].AsInt()
					_, err = q.Exec(`UPDATE kv SET v = ? WHERE k = 1`, value.NewInt(cur+1))
					return err
				})
				if err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Read-modify-write under the per-class lock: no lost updates.
	var final int64
	err = tier.Read(func(q *Session) error {
		res, err := q.Exec(`SELECT v FROM kv WHERE k = 1`)
		if err != nil {
			return err
		}
		final = res.Rows[0][0].AsInt()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final != 80 {
		t.Fatalf("counter = %d, want 80 (conflict-aware scheduler must serialize)", final)
	}
}

func TestTierFailoverReplaysBinlog(t *testing.T) {
	tier, err := NewTier(TierConfig{
		Actives:   2,
		WithSpare: true,
		Heartbeat: 5 * time.Millisecond,
		DDL:       testDDL,
		Load:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	for i := 1; i <= 25; i++ {
		err := tier.Update([]string{"kv"}, func(q *Session) error {
			writeKV(t, q, 5, int64(i))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	tier.KillActive(0)
	deadline := time.Now().Add(2 * time.Second)
	for tier.Actives() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if tier.Actives() != 2 {
		t.Fatalf("actives = %d after failover", tier.Actives())
	}
	stages := tier.Stages()
	if len(stages) != 1 {
		t.Fatalf("stages = %+v", stages)
	}
	if stages[0].Records == 0 {
		t.Fatal("no binlog records replayed")
	}
	// The promoted spare serves consistent reads.
	seen := map[int64]bool{}
	for i := 0; i < 10; i++ {
		err := tier.Read(func(q *Session) error {
			res, err := q.Exec(`SELECT v FROM kv WHERE k = 5`)
			if err != nil {
				return err
			}
			seen[res.Rows[0][0].AsInt()] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 1 || !seen[25] {
		t.Fatalf("post-failover reads = %v, want only 25", seen)
	}
}

func TestSpareRefreshTrimsReplayWork(t *testing.T) {
	tier, err := NewTier(TierConfig{
		Actives:      1,
		WithSpare:    true,
		SpareRefresh: 20 * time.Millisecond,
		Heartbeat:    5 * time.Millisecond,
		DDL:          testDDL,
		Load:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	for i := 1; i <= 10; i++ {
		err := tier.Update([]string{"kv"}, func(q *Session) error {
			writeKV(t, q, 1, int64(i))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Wait for a refresh to land, then check the spare position advanced.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		tier.binMu.Lock()
		pos := tier.sparePos
		tier.binMu.Unlock()
		if pos == 10 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("spare never refreshed (pos=%d)", func() int {
		tier.binMu.Lock()
		defer tier.binMu.Unlock()
		return tier.sparePos
	}())
}

func TestDefaultCostsRatios(t *testing.T) {
	c := DefaultCosts()
	if c.CommitFsync <= c.PageMiss {
		t.Fatalf("fsync (%v) should dominate a single page miss (%v)", c.CommitFsync, c.PageMiss)
	}
	if c.ReplayRead <= 0 {
		t.Fatal("replay reads must cost something: they dominate baseline fail-over")
	}
	_ = fmt.Sprintf("%v", c)
}

// TestStatementChargePlacement pins where the database charges its CPU
// model: a read statement pays Stmt once; an update transaction of k
// statements pays k×UpdateStmt in one piece after it commits, and nothing
// when it rolls back.
func TestStatementChargePlacement(t *testing.T) {
	const stmt, upd = 3 * time.Millisecond, time.Millisecond
	var charges []time.Duration
	db, err := Open("d", Config{}, testDDL, seed)
	if err != nil {
		t.Fatal(err)
	}
	// The statement charges go to whichever simdisk db.Disk holds.
	db.Disk = simdisk.New(simdisk.CostModel{Stmt: stmt, UpdateStmt: upd}, 0,
		simdisk.WithSleeper(func(d time.Duration) { charges = append(charges, d) }))
	expect := func(what string, want ...time.Duration) {
		t.Helper()
		if fmt.Sprint(charges) != fmt.Sprint(want) {
			t.Fatalf("%s: charges %v, want %v", what, charges, want)
		}
		charges = nil
	}

	readKV(t, db, 1)
	expect("read statement", stmt)

	err = db.UpdateTxn(func(q *Session) error {
		for k := int64(1); k <= 3; k++ {
			if _, err := q.Exec(`UPDATE kv SET v = 1 WHERE k = ?`, value.NewInt(k)); err != nil {
				return err
			}
		}
		if len(charges) != 0 {
			t.Errorf("update statements charged %v before commit", charges)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	expect("3-statement update", 3*upd)

	errAbort := fmt.Errorf("abort")
	err = db.UpdateTxn(func(q *Session) error {
		if _, err := q.Exec(`UPDATE kv SET v = 2 WHERE k = 1`); err != nil {
			return err
		}
		return errAbort
	})
	if err != errAbort {
		t.Fatalf("err = %v, want the transaction's own", err)
	}
	expect("rolled-back update")

	// The tier: the primary pays every statement of an update transaction
	// (its reads too) once after commit, each other active pays the update
	// statements replicated to it, a rolled-back update pays nothing, and
	// fail-over pays one log read for the whole binlog suffix before each
	// record's statements. No heartbeat fires: the test drives fail-over.
	const replay = 5 * time.Millisecond
	tier, err := NewTier(TierConfig{Actives: 2, WithSpare: true, Heartbeat: time.Hour, DDL: testDDL, Load: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	byNode := map[string][]time.Duration{}
	for _, db := range append(append([]*DB(nil), tier.actives...), tier.spare) {
		db.Disk = simdisk.New(simdisk.CostModel{Stmt: stmt, UpdateStmt: upd, ReplayRead: replay}, 0,
			simdisk.WithSleeper(func(d time.Duration) { byNode[db.ID] = append(byNode[db.ID], d) }))
	}
	expectTier := func(what string, want map[string][]time.Duration) {
		t.Helper()
		if fmt.Sprint(byNode) != fmt.Sprint(want) {
			t.Fatalf("%s: charges %v, want %v", what, byNode, want)
		}
		byNode = map[string][]time.Duration{}
	}

	err = tier.Update([]string{"kv"}, func(q *Session) error {
		if _, err := q.Exec(`SELECT v FROM kv WHERE k = 1`); err != nil {
			return err
		}
		writeKV(t, q, 1, 10)
		writeKV(t, q, 2, 20)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	expectTier("tier update", map[string][]time.Duration{
		"inno-active0": {3 * upd}, "inno-active1": {2 * upd}})

	err = tier.Update([]string{"kv"}, func(q *Session) error {
		writeKV(t, q, 3, 30)
		return errAbort
	})
	if err != errAbort {
		t.Fatalf("err = %v, want the transaction's own", err)
	}
	expectTier("rolled-back tier update", map[string][]time.Duration{})

	err = tier.Read(func(q *Session) error {
		_, err := q.Exec(`SELECT v FROM kv WHERE k = 1`)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	expectTier("tier read", map[string][]time.Duration{"inno-active1": {stmt}})

	err = tier.Update([]string{"kv"}, func(q *Session) error {
		writeKV(t, q, 4, 40)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	expectTier("second tier update", map[string][]time.Duration{
		"inno-active0": {upd}, "inno-active1": {upd}})

	tier.KillActive(0)
	tier.failover(0)
	expectTier("fail-over replay", map[string][]time.Duration{
		"inno-spare": {3 * replay, 2 * upd, upd}})
	if got := readKV(t, tier.actives[1], 4); got != 40 {
		t.Fatalf("promoted spare reads %d, want 40", got)
	}
}
