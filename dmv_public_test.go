package dmv_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dmv"
)

func openTestCluster(t *testing.T, cfg dmv.Config) *dmv.Cluster {
	t.Helper()
	if cfg.Schema == nil {
		cfg.Schema = []string{
			`CREATE TABLE kv (k INT PRIMARY KEY, v INT, tag VARCHAR(16))`,
			`CREATE INDEX ix_kv_tag ON kv (tag)`,
		}
	}
	if cfg.Load == nil {
		cfg.Load = func(l *dmv.Loader) error {
			rows := make([][]any, 0, 50)
			for i := 1; i <= 50; i++ {
				rows = append(rows, []any{i, 0, fmt.Sprintf("tag%d", i%5)})
			}
			return l.Load("kv", rows)
		}
	}
	c, err := dmv.Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestPublicAPIReadYourWrites(t *testing.T) {
	c := openTestCluster(t, dmv.Config{Slaves: 2})
	for i := 1; i <= 10; i++ {
		err := c.Update([]string{"kv"}, func(tx *dmv.Tx) error {
			res, err := tx.Exec(`UPDATE kv SET v = v + 1 WHERE k = ?`, i)
			if err != nil {
				return err
			}
			if res.Affected != 1 {
				return fmt.Errorf("affected = %d", res.Affected)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("update: %v", err)
		}
		err = c.Read([]string{"kv"}, func(tx *dmv.Tx) error {
			rows, err := tx.Query(`SELECT v FROM kv WHERE k = ?`, i)
			if err != nil {
				return err
			}
			if rows.Int(0, 0) != 1 {
				return fmt.Errorf("read %d = %d, want 1", i, rows.Int(0, 0))
			}
			return nil
		})
		if err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	st := c.Stats()
	if st.UpdateTxns != 10 || st.ReadTxns != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPublicAPISecondaryIndexQuery(t *testing.T) {
	c := openTestCluster(t, dmv.Config{Slaves: 1})
	err := c.Read([]string{"kv"}, func(tx *dmv.Tx) error {
		rows, err := tx.Query(`SELECT COUNT(*) FROM kv WHERE tag = ?`, "tag1")
		if err != nil {
			return err
		}
		if rows.Int(0, 0) != 10 {
			return fmt.Errorf("count = %d, want 10", rows.Int(0, 0))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIRowsAccessors(t *testing.T) {
	c := openTestCluster(t, dmv.Config{Slaves: 1})
	err := c.Read([]string{"kv"}, func(tx *dmv.Tx) error {
		rows, err := tx.Query(`SELECT k, v + 0.5, tag FROM kv WHERE k = 3`)
		if err != nil {
			return err
		}
		if rows.Len() != 1 {
			return fmt.Errorf("rows = %d", rows.Len())
		}
		if rows.Int(0, 0) != 3 {
			return fmt.Errorf("int = %d", rows.Int(0, 0))
		}
		if rows.Float(0, 1) != 0.5 {
			return fmt.Errorf("float = %f", rows.Float(0, 1))
		}
		if rows.String(0, 2) != "tag3" {
			return fmt.Errorf("string = %q", rows.String(0, 2))
		}
		// Out-of-range access is safe.
		if rows.Int(5, 5) != 0 || rows.String(5, 5) != "" {
			return fmt.Errorf("out-of-range not zero")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPIColsAreCopies checks that a caller who writes the column
// names of one query's Rows leaves those of the next run of the statement
// unchanged: a result's names are the statement's cached plan's own.
func TestPublicAPIColsAreCopies(t *testing.T) {
	c := openTestCluster(t, dmv.Config{Slaves: 1})
	const q = `SELECT k, v FROM kv WHERE k = ?`
	for i, want := range []string{"k", "k"} {
		err := c.Read([]string{"kv"}, func(tx *dmv.Tx) error {
			rows, err := tx.Query(q, 3)
			if err != nil {
				return err
			}
			if rows.Cols[0] != want {
				return fmt.Errorf("query %d: Cols = %q, want %q first", i, rows.Cols, want)
			}
			rows.Cols[0] = "overwritten"
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestPublicAPIFailoverAndRestart(t *testing.T) {
	c := openTestCluster(t, dmv.Config{
		Slaves:           2,
		Spares:           1,
		CheckpointPeriod: 20 * time.Millisecond,
		MaxRetries:       50,
	})
	bump := func(k int) error {
		return c.Update([]string{"kv"}, func(tx *dmv.Tx) error {
			_, err := tx.Exec(`UPDATE kv SET v = v + 1 WHERE k = ?`, k)
			return err
		})
	}
	for i := 0; i < 20; i++ {
		if err := bump(1); err != nil {
			t.Fatalf("bump: %v", err)
		}
	}
	oldMaster := c.Master()
	if err := c.KillMaster(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for c.Master() == oldMaster && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if c.Master() == oldMaster {
		t.Fatal("no new master elected")
	}
	// Updates keep working after fail-over (retries hide the transition).
	for i := 0; i < 10; i++ {
		if err := bump(1); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	var v int64
	err := c.Read([]string{"kv"}, func(tx *dmv.Tx) error {
		rows, err := tx.Query(`SELECT v FROM kv WHERE k = 1`)
		if err != nil {
			return err
		}
		v = rows.Int(0, 0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v < 20 {
		t.Fatalf("committed updates lost: v = %d", v)
	}
	// Events were recorded.
	kinds := map[string]bool{}
	for _, ev := range c.Events() {
		kinds[ev.Kind] = true
	}
	if !kinds["node-failed"] || !kinds["master-elected"] {
		t.Fatalf("events = %v", kinds)
	}
}

func TestPublicAPIPersistenceTier(t *testing.T) {
	c := openTestCluster(t, dmv.Config{Slaves: 1, PersistBackends: 2})
	for i := 0; i < 5; i++ {
		err := c.Update([]string{"kv"}, func(tx *dmv.Tx) error {
			_, err := tx.Exec(`UPDATE kv SET v = ? WHERE k = 2`, i)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	c.FlushPersistence()
	st := c.Stats()
	if st.PersistLogged != 5 {
		t.Fatalf("logged = %d, want 5", st.PersistLogged)
	}
	for i, applied := range c.PersistenceApplied() {
		if applied != 5 {
			t.Fatalf("backend %d applied %d, want 5", i, applied)
		}
	}
}

func TestPublicAPIConcurrentMixedLoad(t *testing.T) {
	c := openTestCluster(t, dmv.Config{Slaves: 3, MaxRetries: 30})
	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := w*8 + i%8 + 1
				if err := c.Update([]string{"kv"}, func(tx *dmv.Tx) error {
					_, err := tx.Exec(`UPDATE kv SET v = v + 1 WHERE k = ?`, k)
					return err
				}); err != nil {
					errCh <- err
					return
				}
				if err := c.Read([]string{"kv"}, func(tx *dmv.Tx) error {
					_, err := tx.Query(`SELECT SUM(v) FROM kv`)
					return err
				}); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	var total int64
	err := c.Read([]string{"kv"}, func(tx *dmv.Tx) error {
		rows, err := tx.Query(`SELECT SUM(v) FROM kv`)
		if err != nil {
			return err
		}
		total = rows.Int(0, 0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 120 {
		t.Fatalf("sum = %d, want 120", total)
	}
}

func TestPublicAPIConflictClasses(t *testing.T) {
	c := openTestCluster(t, dmv.Config{
		Slaves: 1,
		Schema: []string{
			`CREATE TABLE orders_t (id INT PRIMARY KEY, n INT)`,
			`CREATE TABLE users_t (id INT PRIMARY KEY, n INT)`,
		},
		Load: func(l *dmv.Loader) error {
			if err := l.Load("orders_t", [][]any{{1, 0}}); err != nil {
				return err
			}
			return l.Load("users_t", [][]any{{1, 0}})
		},
		Classes: []dmv.ConflictClass{
			{Name: "orders", Tables: []string{"orders_t"}},
			{Name: "users", Tables: []string{"users_t"}},
		},
	})
	if len(c.Nodes()) < 3 { // two masters + one slave
		t.Fatalf("nodes = %v", c.Nodes())
	}
	// Parallel updates to both classes commit on their own masters.
	if err := c.Update([]string{"orders_t"}, func(tx *dmv.Tx) error {
		_, err := tx.Exec(`UPDATE orders_t SET n = 1 WHERE id = 1`)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Update([]string{"users_t"}, func(tx *dmv.Tx) error {
		_, err := tx.Exec(`UPDATE users_t SET n = 2 WHERE id = 1`)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// A reader sees a consistent cross-class snapshot.
	err := c.Read([]string{"orders_t", "users_t"}, func(tx *dmv.Tx) error {
		a, err := tx.Query(`SELECT n FROM orders_t WHERE id = 1`)
		if err != nil {
			return err
		}
		b, err := tx.Query(`SELECT n FROM users_t WHERE id = 1`)
		if err != nil {
			return err
		}
		if a.Int(0, 0) != 1 || b.Int(0, 0) != 2 {
			return fmt.Errorf("cross-class read = %d/%d", a.Int(0, 0), b.Int(0, 0))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPISchedulerFailover(t *testing.T) {
	c := openTestCluster(t, dmv.Config{Slaves: 2, PeerSchedulers: 1, MaxRetries: 30})
	if err := c.Update([]string{"kv"}, func(tx *dmv.Tx) error {
		_, err := tx.Exec(`UPDATE kv SET v = 7 WHERE k = 1`)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.KillScheduler(); err != nil {
		t.Fatalf("scheduler failover: %v", err)
	}
	// The tier keeps serving through the peer.
	var v int64
	if err := c.Read([]string{"kv"}, func(tx *dmv.Tx) error {
		rows, err := tx.Query(`SELECT v FROM kv WHERE k = 1`)
		if err != nil {
			return err
		}
		v = rows.Int(0, 0)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if v != 7 {
		t.Fatalf("v = %d", v)
	}
	if err := c.KillScheduler(); err == nil {
		t.Fatal("second failover with no remaining peer must error")
	}
}

// TestPersistenceSurvivesMasterFailover: the query log keeps growing across
// a master fail-over and the on-disk backends converge to the full history.
func TestPersistenceSurvivesMasterFailover(t *testing.T) {
	c := openTestCluster(t, dmv.Config{
		Slaves:          2,
		PersistBackends: 2,
		MaxRetries:      50,
	})
	bump := func(i int) error {
		return c.Update([]string{"kv"}, func(tx *dmv.Tx) error {
			_, err := tx.Exec(`UPDATE kv SET v = ? WHERE k = 1`, i)
			return err
		})
	}
	for i := 1; i <= 10; i++ {
		if err := bump(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.KillMaster(); err != nil {
		t.Fatal(err)
	}
	// Commit more through the new master (with retries over the election).
	committed := 10
	deadline := time.Now().Add(3 * time.Second)
	for i := 11; i <= 20; i++ {
		for time.Now().Before(deadline) {
			if err := bump(i); err == nil {
				committed++
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if committed < 15 {
		t.Fatalf("only %d commits landed", committed)
	}
	c.FlushPersistence()
	st := c.Stats()
	if st.PersistLogged != committed {
		t.Fatalf("persist log = %d, want %d", st.PersistLogged, committed)
	}
	for i, applied := range c.PersistenceApplied() {
		if applied != committed {
			t.Fatalf("backend %d applied %d, want %d", i, applied, committed)
		}
	}
}
