//go:build !race && !dmvdebug

package page

import (
	"runtime"
	"testing"

	"dmv/internal/value"
)

// TestPageBytes bounds what a page of 8 rows costs beyond its rows: the
// Page itself and one slot array, 320 bytes in 2 allocations (a page whose
// rows sat in a map cost 432 bytes in 3). The build tag keeps it out of
// -race and dmvdebug builds, whose instrumentation and seal registry
// allocate.
func TestPageBytes(t *testing.T) {
	const (
		pages   = 20000
		perPage = 8
	)
	rows := make([]value.Row, perPage)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i))}
	}
	keep := make([]*Page, pages)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		p := New(0, ID(i), perPage, 0)
		p.LockX()
		for s, r := range rows {
			p.XApply(RowOp{Kind: OpInsert, Row: MakeRowID(ID(i), s), Data: r})
		}
		p.UnlockX()
		keep[i] = p
	}
	runtime.ReadMemStats(&after)
	// Whole bytes and allocations per page: the runtime's own few
	// allocations during the loop do not round up to one per page.
	bytes := (after.TotalAlloc - before.TotalAlloc) / pages
	allocs := (after.Mallocs - before.Mallocs) / pages
	t.Logf("%d bytes in %d allocations per page of %d rows (totals %d, %d)", bytes, allocs, perPage,
		after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs)
	if bytes > 320 || allocs > 2 {
		t.Fatalf("a page of %d rows cost %d bytes in %d allocations, want <= 320 in <= 2", perPage, bytes, allocs)
	}
	for i, p := range keep {
		if p.RowCount() != perPage {
			t.Fatalf("page %d holds %d rows, want %d", i, p.RowCount(), perPage)
		}
	}
}
