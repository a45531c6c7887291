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
	if allocs > 23 {
		t.Fatalf("one-row update commit made %.1f allocations, want <= 23", allocs)
	}
}
