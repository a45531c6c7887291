package heap

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"dmv/internal/page"
	"dmv/internal/value"
	"dmv/internal/vclock"
)

func newTestEngine(t *testing.T) (*Engine, int) {
	t.Helper()
	e := NewEngine(Options{PageCap: 4})
	id, err := e.CreateTable(TableDef{
		Name: "item",
		Cols: []Column{
			{Name: "i_id", Type: value.TInt},
			{Name: "i_title", Type: value.TString},
			{Name: "i_stock", Type: value.TInt},
		},
	})
	if err != nil {
		t.Fatalf("create table: %v", err)
	}
	if _, err := e.CreateIndex(id, IndexDef{Name: "pk_item", Cols: []int{0}, Unique: true}); err != nil {
		t.Fatalf("create index: %v", err)
	}
	if _, err := e.CreateIndex(id, IndexDef{Name: "ix_title", Cols: []int{1}}); err != nil {
		t.Fatalf("create index: %v", err)
	}
	return e, id
}

func loadItems(t *testing.T, e *Engine, table, n int) {
	t.Helper()
	rows := make([]value.Row, 0, n)
	for i := 1; i <= n; i++ {
		rows = append(rows, value.Row{
			value.NewInt(int64(i)),
			value.NewString(fmt.Sprintf("title-%03d", i)),
			value.NewInt(100),
		})
	}
	if err := e.Load(table, rows); err != nil {
		t.Fatalf("load: %v", err)
	}
}

func fetchByPK(t *testing.T, tx Txn, table int, pk int64) (value.Row, bool) {
	t.Helper()
	rids, err := tx.LookupEq(table, 0, value.Row{value.NewInt(pk)})
	if err != nil {
		t.Fatalf("lookup pk %d: %v", pk, err)
	}
	if len(rids) == 0 {
		return nil, false
	}
	if len(rids) > 1 {
		t.Fatalf("pk %d resolved to %d rows", pk, len(rids))
	}
	row, ok, err := tx.Fetch(table, rids[0])
	if err != nil {
		t.Fatalf("fetch pk %d: %v", pk, err)
	}
	return row, ok
}

func TestLoadAndReadLatest(t *testing.T) {
	e, tbl := newTestEngine(t)
	loadItems(t, e, tbl, 10)

	tx := e.BeginRead(nil)
	row, ok := fetchByPK(t, tx, tbl, 7)
	if !ok {
		t.Fatal("pk 7 not found")
	}
	if got := row[1].AsString(); got != "title-007" {
		t.Fatalf("title = %q, want title-007", got)
	}
	count := 0
	if err := tx.Scan(tbl, func(page.RowID, value.Row) bool { count++; return true }); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if count != 10 {
		t.Fatalf("scan saw %d rows, want 10", count)
	}
}

func TestUpdateTxCommitAndWriteSet(t *testing.T) {
	e, tbl := newTestEngine(t)
	loadItems(t, e, tbl, 5)

	tx := e.BeginUpdate()
	row, ok := fetchByPK(t, tx, tbl, 3)
	if !ok {
		t.Fatal("pk 3 not found")
	}
	rids, _ := tx.LookupEq(tbl, 0, value.Row{value.NewInt(3)})
	row[2] = value.NewInt(42)
	if err := tx.Update(tbl, rids[0], row); err != nil {
		t.Fatalf("update: %v", err)
	}
	var captured *WriteSet
	ver, err := tx.Commit(func(ws *WriteSet) error { captured = ws; return nil })
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if ver.Get(tbl) != 1 {
		t.Fatalf("version = %v, want table entry 1", ver)
	}
	if captured == nil || len(captured.Records) != 1 {
		t.Fatalf("write-set = %+v, want 1 record", captured)
	}
	if captured.Records[0].Old == nil {
		t.Fatal("update record missing before-image")
	}

	rtx := e.BeginRead(nil)
	got, ok := fetchByPK(t, rtx, tbl, 3)
	if !ok || got[2].AsInt() != 42 {
		t.Fatalf("after commit stock = %v, want 42", got)
	}
}

func TestRollbackRestoresState(t *testing.T) {
	e, tbl := newTestEngine(t)
	loadItems(t, e, tbl, 5)

	tx := e.BeginUpdate()
	rids, _ := tx.LookupEq(tbl, 0, value.Row{value.NewInt(2)})
	if err := tx.Delete(tbl, rids[0]); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := tx.Insert(tbl, value.Row{value.NewInt(99), value.NewString("new"), value.NewInt(1)}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("rollback: %v", err)
	}

	rtx := e.BeginRead(nil)
	if _, ok := fetchByPK(t, rtx, tbl, 2); !ok {
		t.Fatal("pk 2 missing after rollback")
	}
	if _, ok := fetchByPK(t, rtx, tbl, 99); ok {
		t.Fatal("pk 99 visible after rollback")
	}
	n, err := e.RowCountAt(tbl, VersionLatest)
	if err != nil {
		t.Fatalf("row count: %v", err)
	}
	if n != 5 {
		t.Fatalf("row count = %d, want 5", n)
	}
}

func TestUniqueConstraint(t *testing.T) {
	e, tbl := newTestEngine(t)
	loadItems(t, e, tbl, 3)

	tx := e.BeginUpdate()
	_, err := tx.Insert(tbl, value.Row{value.NewInt(2), value.NewString("dup"), value.NewInt(0)})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("insert dup pk err = %v, want ErrDuplicateKey", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("rollback: %v", err)
	}
}

// TestReplicationLazyApply drives the full master->slave path: the slave
// buffers write-sets and materializes them only when a reader shows up.
func TestReplicationLazyApply(t *testing.T) {
	master, tbl := newTestEngine(t)
	slaveE, _ := newTestEngine(t)
	loadItems(t, master, tbl, 8)
	loadItems(t, slaveE, tbl, 8)

	commitOne := func(pk, stock int64) vclock.Vector {
		tx := master.BeginUpdate()
		rids, _ := tx.LookupEq(tbl, 0, value.Row{value.NewInt(pk)})
		row, _, err := tx.Fetch(tbl, rids[0])
		if err != nil {
			t.Fatalf("fetch: %v", err)
		}
		row[2] = value.NewInt(stock)
		if err := tx.Update(tbl, rids[0], row); err != nil {
			t.Fatalf("update: %v", err)
		}
		ver, err := tx.Commit(func(ws *WriteSet) error { return slaveE.ApplyWriteSet(ws) })
		if err != nil {
			t.Fatalf("commit: %v", err)
		}
		return ver
	}

	v1 := commitOne(1, 11)
	v2 := commitOne(1, 22)

	if got := slaveE.PendingMods(); got == 0 {
		t.Fatal("slave applied mods eagerly; want buffered (lazy)")
	}

	// A reader at v1 must abort: the only way to read v1 now requires the
	// page at version 1, but a reader at v2 may have (or will) upgrade it.
	// First materialize v2 via a reader, then check v1 aborts.
	rtx2 := e2reader(slaveE, v2)
	row, ok := fetchByPK(t, rtx2, tbl, 1)
	if !ok || row[2].AsInt() != 22 {
		t.Fatalf("slave read at v2 = %v, want stock 22", row)
	}

	rtx1 := e2reader(slaveE, v1)
	rids, _ := rtx1.LookupEq(tbl, 0, value.Row{value.NewInt(1)})
	_, _, err := rtx1.Fetch(tbl, rids[0])
	if !errors.Is(err, page.ErrVersionConflict) {
		t.Fatalf("stale read err = %v, want ErrVersionConflict", err)
	}
}

func e2reader(e *Engine, v vclock.Vector) *ReadTx { return e.BeginRead(v) }

// TestReplicationInsertVisibility checks that inserts (new rows, possibly
// new pages) become visible on the slave exactly at their commit version.
func TestReplicationInsertVisibility(t *testing.T) {
	master, tbl := newTestEngine(t)
	slaveE, _ := newTestEngine(t)
	loadItems(t, master, tbl, 2)
	loadItems(t, slaveE, tbl, 2)

	var vers []vclock.Vector
	for i := 0; i < 10; i++ {
		tx := master.BeginUpdate()
		pk := int64(100 + i)
		if _, err := tx.Insert(tbl, value.Row{value.NewInt(pk), value.NewString("x"), value.NewInt(pk)}); err != nil {
			t.Fatalf("insert: %v", err)
		}
		ver, err := tx.Commit(func(ws *WriteSet) error { return slaveE.ApplyWriteSet(ws) })
		if err != nil {
			t.Fatalf("commit: %v", err)
		}
		vers = append(vers, ver)
	}

	// Read in increasing version order (readers of increasing versions may
	// coexist; decreasing would abort by design).
	for i, v := range vers {
		rtx := slaveE.BeginRead(v)
		pk := int64(100 + i)
		if _, ok := fetchByPK(t, rtx, tbl, pk); !ok {
			t.Fatalf("pk %d not visible at %v", pk, v)
		}
		// And a row inserted later must be invisible at this version.
		if i+1 < len(vers) {
			if _, ok := fetchByPK(t, rtx, tbl, int64(100+i+1)); ok {
				t.Fatalf("pk %d visible too early at %v", 100+i+1, v)
			}
		}
		n, err := slaveE.RowCountAt(tbl, v.Get(tbl))
		if err != nil {
			t.Fatalf("count at %v: %v", v, err)
		}
		if n != 2+i+1 {
			t.Fatalf("count at v%d = %d, want %d", i, n, 2+i+1)
		}
	}
}

func TestConcurrentUpdatersDisjointRows(t *testing.T) {
	e, tbl := newTestEngine(t)
	loadItems(t, e, tbl, 64)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				pk := int64(w*8 + i%8 + 1)
				tx := e.BeginUpdate()
				rids, err := tx.LookupEq(tbl, 0, value.Row{value.NewInt(pk)})
				if err != nil || len(rids) != 1 {
					_ = tx.Rollback()
					errs <- fmt.Errorf("lookup pk %d: %v (%d rids)", pk, err, len(rids))
					return
				}
				row, _, err := tx.Fetch(tbl, rids[0])
				if err != nil {
					_ = tx.Rollback()
					errs <- err
					return
				}
				row[2] = value.NewInt(row[2].AsInt() + 1)
				if err := tx.Update(tbl, rids[0], row); err != nil {
					_ = tx.Rollback()
					if errors.Is(err, ErrLockTimeout) {
						continue
					}
					errs <- err
					return
				}
				if _, err := tx.Commit(nil); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("worker error: %v", err)
	}
}

func TestFuzzyCheckpointRestore(t *testing.T) {
	e, tbl := newTestEngine(t)
	loadItems(t, e, tbl, 20)

	// Mutate a few rows.
	for i := 1; i <= 5; i++ {
		tx := e.BeginUpdate()
		rids, _ := tx.LookupEq(tbl, 0, value.Row{value.NewInt(int64(i))})
		row, _, _ := tx.Fetch(tbl, rids[0])
		row[2] = value.NewInt(int64(1000 + i))
		if err := tx.Update(tbl, rids[0], row); err != nil {
			t.Fatalf("update: %v", err)
		}
		if _, err := tx.Commit(nil); err != nil {
			t.Fatalf("commit: %v", err)
		}
	}

	cp := e.FuzzyCheckpoint()
	blob, err := EncodeCheckpoint(cp)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	cp2, err := DecodeCheckpoint(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}

	fresh, _ := newTestEngine(t)
	if err := fresh.RestoreCheckpoint(cp2); err != nil {
		t.Fatalf("restore: %v", err)
	}
	rtx := fresh.BeginRead(nil)
	row, ok := fetchByPK(t, rtx, tbl, 3)
	if !ok || row[2].AsInt() != 1003 {
		t.Fatalf("restored stock = %v, want 1003", row)
	}
	n, _ := fresh.RowCountAt(tbl, VersionLatest)
	if n != 20 {
		t.Fatalf("restored count = %d, want 20", n)
	}
}

func TestMigrationDelta(t *testing.T) {
	master, tbl := newTestEngine(t)
	support, _ := newTestEngine(t)
	stale, _ := newTestEngine(t)
	loadItems(t, master, tbl, 20)
	loadItems(t, support, tbl, 20)
	loadItems(t, stale, tbl, 20)

	// 30 commits reach the support slave but not the stale node.
	var last vclock.Vector
	for i := 0; i < 30; i++ {
		tx := master.BeginUpdate()
		pk := int64(i%20 + 1)
		rids, _ := tx.LookupEq(tbl, 0, value.Row{value.NewInt(pk)})
		row, _, _ := tx.Fetch(tbl, rids[0])
		row[2] = value.NewInt(int64(i))
		if err := tx.Update(tbl, rids[0], row); err != nil {
			t.Fatalf("update: %v", err)
		}
		ver, err := tx.Commit(func(ws *WriteSet) error { return support.ApplyWriteSet(ws) })
		if err != nil {
			t.Fatalf("commit: %v", err)
		}
		last = ver
	}

	delta := fetchChanged(t, stale, support)
	if len(delta) == 0 {
		t.Fatal("no delta pages; want >0")
	}
	if err := stale.InstallDelta(delta); err != nil {
		t.Fatalf("install: %v", err)
	}

	// The stale node must now serve reads at the master's latest vector.
	rtx := stale.BeginRead(last)
	row, ok := fetchByPK(t, rtx, tbl, int64(29%20+1))
	if !ok || row[2].AsInt() != 29 {
		t.Fatalf("reintegrated read = %v, want stock 29", row)
	}
	// And page shipping must have collapsed the 30 modifications: the delta
	// carries at most the number of distinct dirty pages.
	if len(delta) > 20/4+1 {
		t.Fatalf("delta shipped %d pages; want <= %d (collapsed chains)", len(delta), 20/4+1)
	}
}

func TestDiscardAboveCleansPartialPropagation(t *testing.T) {
	master, tbl := newTestEngine(t)
	slaveE, _ := newTestEngine(t)
	loadItems(t, master, tbl, 4)
	loadItems(t, slaveE, tbl, 4)

	// First commit fully propagated and acknowledged.
	tx := master.BeginUpdate()
	rids, _ := tx.LookupEq(tbl, 0, value.Row{value.NewInt(1)})
	row, _, _ := tx.Fetch(tbl, rids[0])
	row[2] = value.NewInt(7)
	if err := tx.Update(tbl, rids[0], row); err != nil {
		t.Fatalf("update: %v", err)
	}
	acked, err := tx.Commit(func(ws *WriteSet) error { return slaveE.ApplyWriteSet(ws) })
	if err != nil {
		t.Fatalf("commit: %v", err)
	}

	// Second commit reaches the slave, but the master dies before the
	// scheduler learns about it: the new scheduler rolls the tier back to
	// the last version it saw.
	tx2 := master.BeginUpdate()
	row2, _, _ := tx2.Fetch(tbl, rids[0])
	row2[2] = value.NewInt(8)
	if err := tx2.Update(tbl, rids[0], row2); err != nil {
		t.Fatalf("update2: %v", err)
	}
	if _, err := tx2.Commit(func(ws *WriteSet) error { return slaveE.ApplyWriteSet(ws) }); err != nil {
		t.Fatalf("commit2: %v", err)
	}

	slaveE.DiscardAbove(acked)
	rtx := slaveE.BeginRead(acked)
	got, ok := fetchByPK(t, rtx, tbl, 1)
	if !ok || got[2].AsInt() != 7 {
		t.Fatalf("after discard stock = %v, want 7", got)
	}
	if slaveE.PendingMods() != 0 {
		t.Fatalf("pending after discard = %d, want 0", slaveE.PendingMods())
	}
}
