package heap

import (
	"fmt"
	"testing"

	"dmv/internal/page"
	"dmv/internal/value"
)

// scanFixture builds an index whose entries visible at version 2 have keys
// 10*i for i < n. Between them sit entries a reader at 2 must skip: one
// deleted at 2 (key 10*i+3) and one added at 3 (key 10*i+6).
func scanFixture(t *testing.T, n int) *Index {
	t.Helper()
	ix := newIndex(IndexDef{Name: "ix", Cols: []int{0}})
	for i := 0; i < n; i++ {
		for _, e := range []struct {
			key int
			add uint64
		}{{10 * i, 1}, {10*i + 3, 1}, {10*i + 6, 3}} {
			if err := ix.addUnchecked(value.Row{value.NewInt(int64(e.key))}, page.RowID(e.key), e.add); err != nil {
				t.Fatal(err)
			}
		}
		ix.del(value.Row{value.NewInt(int64(10*i + 3))}, page.RowID(10*i+3), 2)
	}
	return ix
}

// seekIndex positions c on ix at version v, as Seek does for a ReadTx.
func seekIndex(c *IndexCursor, ix *Index, v uint64, from value.Row) {
	c.reset()
	c.ix, c.v, c.more = ix, v, true
	c.start(from)
	c.fill()
}

// TestIndexScanChunkBoundaries drives a cursor across the growing chunk sizes
// (8, then 32, 128, 256, 256...: boundaries after 8, 40, 168, 424 visible
// entries): every visible entry is delivered once and in order, from any
// start, up to the entry where the caller stops, and entries inserted
// behind or ahead of the cursor between chunks stay invisible.
func TestIndexScanChunkBoundaries(t *testing.T) {
	const v = 2
	for _, n := range []int{0, 1, 7, 8, 9, 40, 41, 168, 169, 424, 425, 1000} {
		want := func(from int) []int64 {
			var out []int64
			for i := from; i < n; i++ {
				out = append(out, int64(10*i))
			}
			return out
		}
		check := func(name string, got, want []int64) {
			t.Helper()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("n=%d %s: got %d entries %v, want %d", n, name, len(got), got, len(want))
			}
		}
		collect := func(ix *Index, from value.Row, stopAt int, onEntry func(int64)) []int64 {
			var got []int64
			var c IndexCursor
			seekIndex(&c, ix, v, from)
			for key, rid, ok := c.Next(); ok; key, rid, ok = c.Next() {
				if key[0].AsInt() != int64(rid) {
					t.Fatalf("n=%d: key %v delivered with rid %d", n, key, rid)
				}
				got = append(got, key[0].AsInt())
				if onEntry != nil {
					onEntry(key[0].AsInt())
				}
				if len(got) == stopAt {
					break
				}
			}
			return got
		}

		ix := scanFixture(t, n)
		check("full scan", collect(ix, nil, -1, nil), want(0))
		mid := n / 2
		check("scan from middle key", collect(ix, value.Row{value.NewInt(int64(10 * mid))}, -1, nil), want(mid))
		for _, stop := range []int{1, 8, 9, 40, 41, n} {
			if stop == 0 || stop > n {
				continue
			}
			check(fmt.Sprintf("stop after %d", stop), collect(ix, nil, stop, nil), want(0)[:stop])
		}

		ix = scanFixture(t, n)
		got := collect(ix, nil, -1, func(k int64) {
			for _, key := range []int64{k - 1, k + 8} { // behind and ahead of the cursor
				if err := ix.addUnchecked(value.Row{value.NewInt(key)}, page.RowID(key), v+1); err != nil {
					t.Fatal(err)
				}
			}
		})
		check("inserts during the scan", got, want(0))
	}
}

// TestPointLookupAllocs bounds a point probe of a unique index: the scan's
// first chunk is small and hands out stored keys, so a lookup allocates its
// chunk buffer and its result, however large the index is (a scan that
// copied a full 256-entry chunk of keys made 257).
func TestPointLookupAllocs(t *testing.T) {
	e, tbl := newTestEngine(t)
	loadItems(t, e, tbl, 5000)
	tx := e.BeginRead(nil)
	key := value.Row{value.NewInt(2500)}
	allocs := testing.AllocsPerRun(200, func() {
		if rids, err := tx.LookupEq(tbl, 0, key); err != nil || len(rids) != 1 {
			t.Fatalf("LookupEq = %v, %v", rids, err)
		}
	})
	if allocs > 2 {
		t.Fatalf("point LookupEq made %.1f allocations, want <= 2", allocs)
	}
}
