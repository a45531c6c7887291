package heap

import (
	"fmt"
	"slices"
	"testing"

	"dmv/internal/page"
	"dmv/internal/rbtree"
	"dmv/internal/value"
)

// TestIndexWalkComparesOnSeekPath counts the key comparisons of a range
// walk through a tree that compares via a counting wrapper around cmpIKey:
// each chunk descends the tree once to its resume key and walks on without
// comparing, so 1 000 entries cost a few seek paths, not a comparison or
// more per entry.
func TestIndexWalkComparesOnSeekPath(t *testing.T) {
	ix := newIndex(IndexDef{Name: "ix", Cols: []int{0}})
	cmps := 0
	ix.tree = rbtree.New[ikey, lives](func(a, b ikey) int {
		cmps++
		return cmpIKey(a, b)
	})
	for i := 0; i < 2000; i++ {
		if err := ix.addUnchecked(value.Row{value.NewInt(int64(i))}, page.RowID(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	cmps = 0
	var c IndexCursor
	seekIndex(&c, ix, 1, value.Row{value.NewInt(500)})
	const n = 1000
	for i := 0; i < n; i++ {
		key, _, ok := c.Next()
		if !ok || key[0].AsInt() != int64(500+i) {
			t.Fatalf("entry %d: key %v, ok %v", i, key, ok)
		}
	}
	t.Logf("%d comparisons for %d entries", cmps, n)
	if per := float64(cmps) / n; per > 0.25 {
		t.Fatalf("%d comparisons for %d entries (%.2f per entry), want <= 0.25 per entry", cmps, n, per)
	}
}

// TestTableCursorHoldsNoLatch checks that a reader's table cursor hands out
// rows with no page latch held: between two calls of Next, the page the
// last row came from can be latched exclusively.
func TestTableCursorHoldsNoLatch(t *testing.T) {
	e, tbl := newTestEngine(t)
	loadItems(t, e, tbl, 10) // three pages of four slots
	tb, err := e.table(tbl)
	if err != nil {
		t.Fatal(err)
	}
	var c TableCursor
	if err := c.Seek(e.BeginRead(nil), tbl); err != nil {
		t.Fatal(err)
	}
	n := 0
	for rid, _, ok := c.Next(); ok; rid, _, ok = c.Next() {
		pg := tb.locate(rid)
		if !pg.TryLockX() {
			t.Fatalf("row %d: %s is latched between two Next calls", rid, pg)
		}
		pg.UnlockX()
		n++
	}
	if err := c.Err(); err != nil || n != 10 {
		t.Fatalf("walked %d rows (err %v), want 10", n, err)
	}
}

// decorated is a Txn that embeds another, as a probe that times or counts
// storage calls does: a cursor reads it through its IndexScan and Scan.
type decorated struct {
	Txn
	indexScans, scans int
}

func (d *decorated) IndexScan(table, idx int, from value.Row, fn func(key value.Row, rid page.RowID) bool) error {
	d.indexScans++
	return d.Txn.IndexScan(table, idx, from, fn)
}

func (d *decorated) Scan(table int, fn func(rid page.RowID, row value.Row) bool) error {
	d.scans++
	return d.Txn.Scan(table, fn)
}

// TestCursorsThroughDecorator walks the same index and table through a
// ReadTx, an UpdateTx with pending changes, and decorators of both. The
// index holds runs of equal keys longer than a chunk, so a decorated walk
// resumes inside a run.
func TestCursorsThroughDecorator(t *testing.T) {
	e, tbl := newTestEngine(t)
	rows := make([]value.Row, 0, 600)
	for i := 1; i <= 600; i++ {
		rows = append(rows, value.Row{value.NewInt(int64(i)), value.NewString(fmt.Sprintf("t%d", i%3)), value.NewInt(0)})
	}
	if err := e.Load(tbl, rows); err != nil {
		t.Fatal(err)
	}
	walk := func(tx Txn) (entries, all []string) {
		var ic IndexCursor
		if err := ic.Seek(tx, tbl, 1, value.Row{value.NewString("t1")}); err != nil {
			t.Fatal(err)
		}
		for key, rid, ok := ic.Next(); ok; key, rid, ok = ic.Next() {
			entries = append(entries, fmt.Sprint(key, rid))
		}
		var tc TableCursor
		if err := tc.Seek(tx, tbl); err != nil {
			t.Fatal(err)
		}
		for rid, row, ok := tc.Next(); ok; rid, row, ok = tc.Next() {
			all = append(all, fmt.Sprint(rid, row))
		}
		if ic.Err() != nil || tc.Err() != nil {
			t.Fatal(ic.Err(), tc.Err())
		}
		slices.Sort(all)
		return entries, all
	}
	check := func(name string, tx Txn) {
		wantEntries, wantRows := walk(tx)
		d := &decorated{Txn: tx}
		gotEntries, gotRows := walk(d)
		if !slices.Equal(gotEntries, wantEntries) || !slices.Equal(gotRows, wantRows) {
			t.Fatalf("%s: decorated walk gave %d entries and %d rows, want %d and %d",
				name, len(gotEntries), len(gotRows), len(wantEntries), len(wantRows))
		}
		if len(wantEntries) < 400 || d.indexScans < 2 || d.scans != 1 {
			t.Fatalf("%s: %d entries in %d IndexScan calls, %d Scan calls", name, len(wantEntries), d.indexScans, d.scans)
		}
	}
	// The reads first: a read at the latest version waits on the update's
	// page latches.
	check("read", e.BeginRead(nil))
	utx := e.BeginUpdate()
	defer func() { _ = utx.Rollback() }()
	if _, err := utx.Insert(tbl, value.Row{value.NewInt(601), value.NewString("t1"), value.NewInt(0)}); err != nil {
		t.Fatal(err)
	}
	rids, err := utx.LookupEq(tbl, 0, value.Row{value.NewInt(4)})
	if err != nil || len(rids) != 1 {
		t.Fatalf("LookupEq = %v, %v", rids, err)
	}
	if err := utx.Update(tbl, rids[0], value.Row{value.NewInt(4), value.NewString("t2"), value.NewInt(0)}); err != nil {
		t.Fatal(err)
	}
	check("update", utx)
}
