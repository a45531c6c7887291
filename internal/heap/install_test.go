package heap

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dmv/internal/page"
	"dmv/internal/value"
)

// twoTableEngine builds the item table of newTestEngine (table a) plus an
// author table (table b) with a unique primary key, each loaded with rows
// rows keyed 1..rows.
func twoTableEngine(t *testing.T, rows int) (e *Engine, a, b int) {
	t.Helper()
	e, a = newTestEngine(t)
	loadItems(t, e, a, rows)
	b, err := e.CreateTable(TableDef{
		Name: "author",
		Cols: []Column{{Name: "a_id", Type: value.TInt}, {Name: "a_name", Type: value.TString}},
	})
	if err != nil {
		t.Fatalf("create table: %v", err)
	}
	if _, err := e.CreateIndex(b, IndexDef{Name: "pk_author", Cols: []int{0}, Unique: true}); err != nil {
		t.Fatalf("create index: %v", err)
	}
	data := make([]value.Row, rows)
	for i := range data {
		data[i] = value.Row{value.NewInt(int64(i + 1)), value.NewString(fmt.Sprintf("author-%d", i+1))}
	}
	if err := e.Load(b, data); err != nil {
		t.Fatalf("load: %v", err)
	}
	return e, a, b
}

// commitOne runs fn in one update transaction on e and returns the
// write-set its commit produced.
func commitOne(t *testing.T, e *Engine, fn func(tx *UpdateTx) error) *WriteSet {
	t.Helper()
	tx := e.BeginUpdate()
	if err := fn(tx); err != nil {
		_ = tx.Rollback()
		t.Fatalf("update: %v", err)
	}
	var ws *WriteSet
	if _, err := tx.Commit(func(w *WriteSet) error { ws = w; return nil }); err != nil {
		t.Fatalf("commit: %v", err)
	}
	return ws
}

// retitle sets the indexed title of the item with primary key pk.
func retitle(tbl int, pk int64, title string) func(tx *UpdateTx) error {
	return func(tx *UpdateTx) error {
		rids, err := tx.LookupEq(tbl, 0, value.Row{value.NewInt(pk)})
		if err != nil || len(rids) != 1 {
			return fmt.Errorf("lookup pk %d: %v (%d rids)", pk, err, len(rids))
		}
		row, _, err := tx.Fetch(tbl, rids[0])
		if err != nil {
			return err
		}
		row[1] = value.NewString(title)
		return tx.Update(tbl, rids[0], row)
	}
}

// TestInstallDeltaKeepsUntouchedRowsVisible is the reader contract under
// page installs: while images of table a land in a loop, readers at the
// latest version must find every row of table b and every row of a that the
// images leave unchanged. A reader may abort with page.ErrVersionConflict;
// it may never get "no row" without an error.
func TestInstallDeltaKeepsUntouchedRowsVisible(t *testing.T) {
	const rows, changed, installs = 24, 4, 200
	donor, a, b := twoTableEngine(t, rows)
	node, _, _ := twoTableEngine(t, rows)

	var missing atomic.Int64
	look := func(tx Txn, table int, pk int64) {
		rids, err := tx.LookupEq(table, 0, value.Row{value.NewInt(pk)})
		ok := false
		if err == nil && len(rids) == 1 {
			_, ok, err = tx.Fetch(table, rids[0])
		}
		switch {
		case errors.Is(err, page.ErrVersionConflict):
		case err != nil:
			t.Errorf("table %d pk %d: %v", table, pk, err)
		case len(rids) > 1:
			t.Errorf("table %d pk %d resolved to %d rows", table, pk, len(rids))
		case !ok:
			missing.Add(1)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := node.BeginRead(nil)
				for pk := int64(1); pk <= rows; pk++ {
					if pk > changed {
						look(tx, a, pk)
					}
					look(tx, b, pk)
				}
			}
		}()
	}

	next := int64(rows)
	for i := 0; i < installs; i++ {
		commitOne(t, donor, retitle(a, int64(i%changed+1), fmt.Sprintf("moved-%d", i)))
		if i%50 == 0 { // a new row, and now and then a page the node lacks
			next++
			commitOne(t, donor, func(tx *UpdateTx) error {
				_, err := tx.Insert(a, value.Row{value.NewInt(next), value.NewString("new"), value.NewInt(1)})
				return err
			})
		}
		ids := make([]page.ID, len(donor.PageVersions()[a]))
		for id := range ids {
			ids[id] = page.ID(id)
		}
		imgs, err := donor.PageImages(a, ids)
		if err != nil {
			t.Fatalf("page images: %v", err)
		}
		if err := node.InstallDelta(imgs); err != nil {
			t.Fatalf("install: %v", err)
		}
	}
	close(stop)
	wg.Wait()

	if n := missing.Load(); n > 0 {
		t.Fatalf("%d reads found no row and no error during %d installs", n, installs)
	}
	v := donor.MaxVersions().Get(a)
	if !equalStates(stateAt(t, donor, a, v), stateAt(t, node, a, v)) ||
		!equalStates(indexStateAt(t, donor, a, v), indexStateAt(t, node, a, v)) {
		t.Fatalf("node does not match the donor at version %d after the installs", v)
	}
}

// TestDuplicateWriteSetDeliveryAddsOnce: a write-set delivered twice while
// still pending must not leave a second open index span behind, or the next
// update of the same row would leave the old key pointing at it.
func TestDuplicateWriteSetDeliveryAddsOnce(t *testing.T) {
	master, tbl := newTestEngine(t)
	loadItems(t, master, tbl, 4)
	slave, _ := newTestEngine(t)
	loadItems(t, slave, tbl, 4)

	first := commitOne(t, master, retitle(tbl, 3, "k1"))
	for i := 0; i < 2; i++ {
		if err := slave.ApplyWriteSet(first); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}
	if err := slave.ApplyWriteSet(commitOne(t, master, retitle(tbl, 3, "k2"))); err != nil {
		t.Fatalf("apply: %v", err)
	}

	tx := slave.BeginRead(nil)
	for title, want := range map[string]int{"k1": 0, "k2": 1} {
		rids, err := tx.LookupEq(tbl, 1, value.Row{value.NewString(title)})
		if err != nil {
			t.Fatalf("lookup %q: %v", title, err)
		}
		if len(rids) != want {
			t.Errorf("LookupEq(title=%q) = %v, want %d rows", title, rids, want)
		}
	}
}
