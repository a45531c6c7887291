//go:build !race && !dmvdebug

package heap

import (
	"testing"

	"dmv/internal/value"
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
	if allocs > 15 {
		t.Fatalf("one-row update commit made %.1f allocations, want <= 15", allocs)
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
	// One write-set per run and one for AllocsPerRun's warm-up, each
	// setting the row's stock.
	var wss []*WriteSet
	for i := 0; i <= runs; i++ {
		tx := master.BeginUpdate()
		row := value.Row{value.NewInt(1), value.NewString("t"), value.NewString("s"), value.NewInt(int64(i))}
		if err := tx.Update(0, 1, row); err != nil {
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
	if allocs > 2 {
		t.Fatalf("applying an update that changes no key made %.1f allocations, want <= 2", allocs)
	}
}
