//go:build !race && !dmvdebug

package heap

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"dmv/internal/page"
	"dmv/internal/value"
	"dmv/internal/vclock"
)

// TestUpdateCommitAllocs bounds a one-row update transaction from begin to
// commit: a primary-key lookup, a fetch, an update and a stand-alone
// commit. The ceiling is the figure last measured, and ceilings only fall.
// The build tag keeps it out of -race and dmvdebug builds, whose
// instrumentation and seal checks allocate.
func TestUpdateCommitAllocs(t *testing.T) {
	e, tbl := newTestEngine(t)
	loadItems(t, e, tbl, 1000)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		tx := e.BeginUpdate()
		rids, err := tx.LookupEq(tbl, 0, value.Row{value.NewInt(int64(i%1000 + 1))})
		if err != nil || len(rids) != 1 {
			t.Fatalf("LookupEq = %v, %v", rids, err)
		}
		row, _, err := tx.Fetch(tbl, rids[0])
		if err != nil {
			t.Fatal(err)
		}
		row[2] = value.NewInt(int64(i))
		if err := tx.Update(tbl, rids[0], row); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations per update commit", allocs)
	if allocs > 14 {
		t.Fatalf("one-row update commit made %.1f allocations, want <= 14", allocs)
	}
}

// TestApplyUnchangedKeysAllocs bounds a slave's apply of a one-row update
// that changes no key column, on a table with a primary key and two
// secondary indexes: no index key is built for it. The ceiling is the
// figure last measured, and ceilings only fall.
func TestApplyUnchangedKeysAllocs(t *testing.T) {
	const runs = 200
	var engines [2]*Engine
	for i := range engines {
		e := NewEngine(Options{})
		tbl, err := e.CreateTable(TableDef{Name: "item", Cols: []Column{
			{Name: "i_id", Type: value.TInt},
			{Name: "i_title", Type: value.TString},
			{Name: "i_subject", Type: value.TString},
			{Name: "i_stock", Type: value.TInt},
		}})
		if err != nil {
			t.Fatal(err)
		}
		for _, def := range []IndexDef{
			{Name: "pk_item", Cols: []int{0}, Unique: true},
			{Name: "ix_title", Cols: []int{1}},
			{Name: "ix_subject", Cols: []int{2}},
		} {
			if _, err := e.CreateIndex(tbl, def); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Load(tbl, []value.Row{{value.NewInt(1), value.NewString("t"), value.NewString("s"), value.NewInt(0)}}); err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	master, slave := engines[0], engines[1]
	rids, err := master.BeginRead(nil).LookupEq(0, 0, value.Row{value.NewInt(1)})
	if err != nil || len(rids) != 1 {
		t.Fatalf("LookupEq = %v, %v", rids, err)
	}
	// One write-set per run and one for AllocsPerRun's warm-up, each
	// setting the row's stock.
	var wss []*WriteSet
	for i := 0; i <= runs; i++ {
		tx := master.BeginUpdate()
		row := value.Row{value.NewInt(1), value.NewString("t"), value.NewString("s"), value.NewInt(int64(i))}
		if err := tx.Update(0, rids[0], row); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(func(ws *WriteSet) error { wss = append(wss, ws); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := slave.ApplyWriteSet(wss[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("%.1f allocations per apply", allocs)
	if allocs > 1 {
		t.Fatalf("applying an update that changes no key made %.1f allocations, want <= 1", allocs)
	}
}

// TestIndexEntryAllocs bounds a stored index entry: with its columns
// consecutive, the key is a pointer into the row, and the entry with its
// first span is one 48-byte slot in the tree's chunks (ikey 16, lives 24,
// links 8), so adding entries allocates one chunk per few hundred. Amortized
// over a long run, an entry costs under 0.01 allocations and under 49 bytes:
// its 48-byte slot plus its share of the chunk directory and of the last
// chunk's free slots. Ceilings only fall.
func TestIndexEntryAllocs(t *testing.T) {
	if n := unsafe.Sizeof(ikey{}) + unsafe.Sizeof(lives{}); n != 40 {
		t.Fatalf("ikey and lives are %d bytes, want 40 (a tree slot grows past 48)", n)
	}
	const runs = 1 << 17
	ix := newIndex(IndexDef{Name: "ix", Cols: []int{1}})
	rows := make([]value.Row, runs)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(runs - i)), value.NewInt(0)}
	}
	i := 0
	add := func() {
		if err := ix.addUnchecked(ix.keyOf(rows[i]), page.RowID(i), 1); err != nil {
			t.Fatal(err)
		}
		i++
	}
	allocs, bytes := allocsPer(runs, add)
	t.Logf("%.4f allocations, %.2f bytes per entry", allocs, bytes)
	if allocs > 0.01 || bytes >= 49 {
		t.Fatalf("adding an entry made %.4f allocations of %.2f bytes, want <= 0.01 of under 49", allocs, bytes)
	}
	if got := ix.tree.Len(); got != len(rows) {
		t.Fatalf("index holds %d entries, want %d", got, len(rows))
	}
}

// TestApplyWriteSetAllocs bounds a slave's apply of an insert write-set
// whose records alternate between two pages: one ops slice and one
// pending-queue slot per page. An index entry takes a slot in its tree's
// chunks, so it allocates nothing but a new chunk now and then. The pages
// exist and are drained between applies, so the queue starts empty each
// time. The ceiling is the figure last measured, and ceilings only fall.
func TestApplyWriteSetAllocs(t *testing.T) {
	const (
		runs    = 200
		pages   = 2
		perPage = 2
	)
	e, tbl := newTestEngine(t) // four slots a page, two indexes
	loadItems(t, e, tbl, pages*4)
	tb, err := e.table(tbl)
	if err != nil {
		t.Fatal(err)
	}
	wss := make([]*WriteSet, runs)
	for i := range wss {
		ver := uint64(i + 1)
		ws := &WriteSet{TxID: ver, Version: vclock.Vector{ver}, Tables: []int{tbl}}
		for j := 0; j < pages*perPage; j++ {
			// Past the four loaded slots of page j%pages, one new slot per
			// record.
			pg := page.ID(j % pages)
			rid := page.MakeRowID(pg, 4+i*perPage+j/pages)
			ws.Records = append(ws.Records, Record{Table: tbl, Page: pg, Op: page.RowOp{
				Kind: page.OpInsert, Row: rid,
				Data: value.Row{value.NewInt(int64(rid)), value.NewString(fmt.Sprintf("t%d", rid)), value.NewInt(0)},
			}})
		}
		wss[i] = ws
	}
	var total uint64
	for i, ws := range wss {
		total += mallocs(func() {
			if err := e.ApplyWriteSet(ws); err != nil {
				t.Fatal(err)
			}
		})
		for p := 0; p < pages; p++ {
			if err := tb.pageAt(page.ID(p)).Materialize(uint64(i + 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocs := total / runs
	t.Logf("%d allocations per apply of %d inserts on %d pages", allocs, pages*perPage, pages)
	if allocs > 4 {
		t.Fatalf("applying an insert write-set made %d allocations, want <= 4 (%d ops slices, %d queue slots)",
			allocs, pages, pages)
	}
	if n, err := e.RowCountAt(tbl, runs); err != nil || n != pages*4+runs*pages*perPage {
		t.Fatalf("RowCountAt = %d, %v", n, err)
	}
}

// mallocs counts the heap allocations fn makes, on one P as
// testing.AllocsPerRun counts them.
func mallocs(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// allocsPer returns the allocations and the bytes fn makes per call,
// averaged over runs, on one P as testing.AllocsPerRun counts them.
func allocsPer(runs int, fn func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
