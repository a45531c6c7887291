package scrub

import (
	"slices"
	"testing"

	"dmv/internal/page"
	"dmv/internal/value"
)

// rows yields a row for each entry of kv in ascending RowID order, as
// page.Rows.All does.
func rows(kv map[page.RowID]int64) func(fn func(page.RowID, value.Row)) {
	return func(fn func(page.RowID, value.Row)) {
		ids := make([]page.RowID, 0, len(kv))
		for rid := range kv {
			ids = append(ids, rid)
		}
		slices.Sort(ids)
		for _, rid := range ids {
			fn(rid, value.Row{value.NewInt(kv[rid]), value.NewString("x")})
		}
	}
}

func TestHashPageStableUnderMapOrder(t *testing.T) {
	a := HashPage(1, 3, rows(map[page.RowID]int64{1: 10, 2: 20, 3: 30}))
	for i := 0; i < 50; i++ {
		// Fresh maps iterate in different orders; the digest must not care.
		b := HashPage(1, 3, rows(map[page.RowID]int64{3: 30, 1: 10, 2: 20}))
		if a.Hash != b.Hash {
			t.Fatal("hash depends on map iteration order")
		}
	}
}

func TestHashPageDiscriminates(t *testing.T) {
	base := HashPage(1, 3, rows(map[page.RowID]int64{1: 10, 2: 20}))
	cases := map[string]PageDigest{
		"different value": HashPage(1, 3, rows(map[page.RowID]int64{1: 10, 2: 21})),
		"different rid":   HashPage(1, 3, rows(map[page.RowID]int64{1: 10, 3: 20})),
		"different page":  HashPage(1, 4, rows(map[page.RowID]int64{1: 10, 2: 20})),
		"different table": HashPage(2, 3, rows(map[page.RowID]int64{1: 10, 2: 20})),
		"missing row":     HashPage(1, 3, rows(map[page.RowID]int64{1: 10})),
	}
	for name, got := range cases {
		if got.Hash == base.Hash {
			t.Errorf("%s: hash collided with base", name)
		}
	}
}

func TestRootFoldsAndDiscriminates(t *testing.T) {
	mk := func(vals ...int64) []PageDigest {
		out := make([]PageDigest, len(vals))
		for i, v := range vals {
			out[i] = HashPage(0, page.ID(i), rows(map[page.RowID]int64{1: v}))
		}
		return out
	}
	if Root(nil) != Root([]PageDigest{}) {
		t.Fatal("empty sentinel unstable")
	}
	if Root(mk(1, 2, 3)) != Root(mk(1, 2, 3)) {
		t.Fatal("root not deterministic")
	}
	if Root(mk(1, 2, 3)) == Root(mk(1, 2, 4)) {
		t.Fatal("root missed a leaf change")
	}
	if Root(mk(1, 2, 3)) == Root(mk(1, 2)) {
		t.Fatal("root missed a trailing leaf")
	}
	if Root(mk(1)) == Root(nil) {
		t.Fatal("one-leaf root equals empty sentinel")
	}
	// Odd leaf counts exercise the carry-up path.
	if Root(mk(1, 2, 3, 4, 5)) == Root(mk(1, 2, 3, 4)) {
		t.Fatal("root missed the carried odd leaf")
	}
}

func TestDiffPages(t *testing.T) {
	mkTD := func(pages map[page.ID]int64) TableDigest {
		td := TableDigest{Table: 0, Version: 9}
		for pg, v := range pages {
			td.Pages = append(td.Pages, HashPage(0, pg, rows(map[page.RowID]int64{1: v})))
		}
		SortPages(td.Pages)
		td.Root = Root(td.Pages)
		return td
	}
	a := mkTD(map[page.ID]int64{1: 10, 2: 20, 3: 30})
	b := mkTD(map[page.ID]int64{1: 10, 2: 99, 4: 40})
	diff := DiffPages(a, b)
	want := []page.ID{2, 3, 4} // 2 mismatched, 3 only in a, 4 only in b
	if len(diff) != len(want) {
		t.Fatalf("diff = %v, want %v", diff, want)
	}
	for i := range want {
		if diff[i] != want[i] {
			t.Fatalf("diff = %v, want %v", diff, want)
		}
	}
	if got := DiffPages(a, a); len(got) != 0 {
		t.Fatalf("self-diff = %v, want empty", got)
	}
}
