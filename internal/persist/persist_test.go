package persist

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/scheduler"
	"dmv/internal/simdisk"
	"dmv/internal/value"
	"dmv/internal/vclock"
)

var testDDL = []string{
	`CREATE TABLE kv (k INT PRIMARY KEY, v INT)`,
}

func seed(e *heap.Engine) error {
	tid, _ := e.TableID("kv")
	rows := make([]value.Row, 0, 10)
	for i := 1; i <= 10; i++ {
		rows = append(rows, value.Row{value.NewInt(int64(i)), value.NewInt(0)})
	}
	return e.Load(tid, rows)
}

func rec(ver uint64, stmts ...exec.LoggedStmt) scheduler.CommitRecord {
	return scheduler.CommitRecord{Version: vclock.Vector{ver}, Stmts: stmts}
}

func set(k, v int64) exec.LoggedStmt {
	return exec.LoggedStmt{
		Text:   `UPDATE kv SET v = ? WHERE k = ?`,
		Params: []value.Value{value.NewInt(v), value.NewInt(k)},
	}
}

func kvValue(t *testing.T, b *Backend, k int64) int64 {
	t.Helper()
	tx := b.Eng.BeginRead(nil)
	res, err := exec.Run(tx, `SELECT v FROM kv WHERE k = ?`, value.NewInt(k))
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(res.Rows) == 0 {
		return -1
	}
	return res.Rows[0][0].AsInt()
}

func newBackend(t *testing.T, id string) *Backend {
	t.Helper()
	b, err := NewBackend(id, simdisk.CostModel{}, 0, testDDL, seed)
	if err != nil {
		t.Fatalf("backend: %v", err)
	}
	return b
}

func TestAsyncApplyToAllBackends(t *testing.T) {
	b1 := newBackend(t, "d1")
	b2 := newBackend(t, "d2")
	tier := NewTier(Options{Backends: []*Backend{b1, b2}})
	defer tier.Close()

	for i := 1; i <= 20; i++ {
		tier.OnCommit(rec(uint64(i), set(int64(i%10+1), int64(i))))
	}
	tier.Flush()
	if b1.Applied() != 20 || b2.Applied() != 20 {
		t.Fatalf("applied = %d/%d, want 20/20", b1.Applied(), b2.Applied())
	}
	// Last writes win in log order on every backend.
	for k := int64(1); k <= 10; k++ {
		if kvValue(t, b1, k) != kvValue(t, b2, k) {
			t.Fatalf("backends diverged at key %d", k)
		}
	}
	if got := kvValue(t, b1, 1); got != 20 {
		t.Fatalf("k=1 -> %d, want 20 (record 20 sets key 1)", got)
	}
}

func TestConcurrentLogging(t *testing.T) {
	b := newBackend(t, "d")
	tier := NewTier(Options{Backends: []*Backend{b}})
	defer tier.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				tier.OnCommit(rec(uint64(w*10+i), set(int64(w+1), int64(i))))
			}
		}(w)
	}
	wg.Wait()
	tier.Flush()
	if tier.LogLen() != 80 || b.Applied() != 80 {
		t.Fatalf("log=%d applied=%d, want 80/80", tier.LogLen(), b.Applied())
	}
}

func TestRecoverReplaysMissingSuffix(t *testing.T) {
	online := newBackend(t, "online")
	tier := NewTier(Options{Backends: []*Backend{online}})
	defer tier.Close()
	for i := 1; i <= 15; i++ {
		tier.OnCommit(rec(uint64(i), set(1, int64(i))))
	}
	tier.Flush()

	// A stale backend that missed everything recovers from the query log.
	stale := newBackend(t, "stale")
	n, err := tier.Recover(stale)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if n != 15 {
		t.Fatalf("replayed %d, want 15", n)
	}
	if got := kvValue(t, stale, 1); got != 15 {
		t.Fatalf("recovered value = %d, want 15", got)
	}
	// Recovery is incremental: nothing left to replay.
	n, err = tier.Recover(stale)
	if err != nil || n != 0 {
		t.Fatalf("second recover = %d, %v", n, err)
	}
}

func TestCloseStopsApplier(t *testing.T) {
	b := newBackend(t, "d")
	tier := NewTier(Options{Backends: []*Backend{b}})
	tier.OnCommit(rec(1, set(1, 1)))
	tier.Flush()
	tier.Close()
	tier.Close() // idempotent
	// Commits after close are dropped (the log is owned by a live tier).
	tier.OnCommit(rec(2, set(1, 2)))
	if tier.LogLen() != 1 {
		t.Fatalf("log grew after close: %d", tier.LogLen())
	}
}

func TestApplyErrorQuarantinesBackend(t *testing.T) {
	// wide has a table narrow lacks, so one log record succeeds on wide and
	// fails on narrow: the failure must quarantine narrow (frozen applied
	// mark, log retained) without stalling wide or skipping the record.
	wide, err := NewBackend("wide", simdisk.CostModel{}, 0,
		append(append([]string(nil), testDDL...), `CREATE TABLE extra (k INT PRIMARY KEY, v INT)`), seed)
	if err != nil {
		t.Fatalf("backend: %v", err)
	}
	narrow := newBackend(t, "narrow")
	var mu sync.Mutex
	var errs []error
	tier := NewTier(Options{
		Backends: []*Backend{wide, narrow},
		OnError: func(err error) {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		},
	})
	defer tier.Close()
	tier.OnCommit(rec(1, set(1, 1)))
	tier.OnCommit(rec(2, exec.LoggedStmt{
		Text:   `INSERT INTO extra (k, v) VALUES (?, ?)`,
		Params: []value.Value{value.NewInt(1), value.NewInt(1)},
	}))
	tier.OnCommit(rec(3, set(1, 7)))
	tier.Flush() // must not hang on the quarantined backend

	if !narrow.Quarantined() {
		t.Fatal("narrow backend not quarantined after apply error")
	}
	if wide.Quarantined() {
		t.Fatal("healthy backend quarantined")
	}
	if got := narrow.Applied(); got != 1 {
		t.Fatalf("quarantined applied mark = %d, want frozen at 1", got)
	}
	if got := wide.Applied(); got != 3 {
		t.Fatalf("healthy backend applied = %d, want 3", got)
	}
	if got := kvValue(t, wide, 1); got != 7 {
		t.Fatalf("healthy backend value = %d, want 7", got)
	}
	// The failing record was NOT skipped on the quarantined backend.
	if got := kvValue(t, narrow, 1); got != 1 {
		t.Fatalf("quarantined backend value = %d, want 1 (frozen before record 2)", got)
	}
	mu.Lock()
	n := len(errs)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("errors = %d, want 1 (quarantine reports once, not per record)", n)
	}
	// The log is retained for replay: Recover re-hits the same record and
	// reports the error instead of silently diverging.
	if _, err := tier.Recover(narrow); err == nil {
		t.Fatal("recover of incompatible backend succeeded, want apply error")
	}
	if got := narrow.Applied(); got != 1 {
		t.Fatalf("applied mark moved to %d during failed recover, want 1", got)
	}
}

// TestReplayChargePlacement pins the persistence tier's disk charges: the
// applier charges a backend nothing per applied record, and Recover charges
// one log read for the whole missing suffix before replaying it.
func TestReplayChargePlacement(t *testing.T) {
	const replay = 5 * time.Millisecond
	var mu sync.Mutex
	var charges []time.Duration
	recorded := func(id string) *Backend {
		b := newBackend(t, id)
		b.Disk = simdisk.New(simdisk.CostModel{Stmt: time.Millisecond, UpdateStmt: 2 * time.Millisecond, ReplayRead: replay}, 0,
			simdisk.WithSleeper(func(d time.Duration) {
				mu.Lock()
				charges = append(charges, d)
				mu.Unlock()
			}))
		return b
	}
	expect := func(what string, want ...time.Duration) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		if fmt.Sprint(charges) != fmt.Sprint(want) {
			t.Fatalf("%s: charges %v, want %v", what, charges, want)
		}
		charges = nil
	}

	online := recorded("online")
	tier := NewTier(Options{Backends: []*Backend{online}})
	defer tier.Close()
	tier.OnCommit(rec(1, set(1, 1), set(2, 2)))
	tier.OnCommit(rec(2, set(3, 3)))
	tier.Flush()
	expect("applied records")

	stale := recorded("stale")
	if n, err := tier.Recover(stale); err != nil || n != 2 {
		t.Fatalf("recover = %d, %v; want 2 records", n, err)
	}
	expect("recover", 3*replay)
	if got := kvValue(t, stale, 3); got != 3 {
		t.Fatalf("recovered value = %d, want 3", got)
	}
}
