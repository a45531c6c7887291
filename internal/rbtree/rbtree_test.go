package rbtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intTree() *Tree[int, int] {
	// NOTE: a-b overflows for large magnitudes; compare explicitly.
	return New[int, int](func(a, b int) int {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	})
}

func TestPutGetDelete(t *testing.T) {
	tr := intTree()
	for i := 0; i < 100; i++ {
		tr.Put(i*7%100, i)
	}
	if tr.Len() != 100 {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := 0; i < 100; i++ {
		if tr.Ref(i) == nil {
			t.Fatalf("missing key %d", i)
		}
	}
	for i := 0; i < 50; i++ {
		if !tr.Delete(i * 2) {
			t.Fatalf("delete %d failed", i*2)
		}
	}
	if tr.Len() != 50 {
		t.Fatalf("len after delete = %d", tr.Len())
	}
	for i := 0; i < 100; i++ {
		ok := tr.Ref(i) != nil
		if i%2 == 0 && ok {
			t.Fatalf("key %d should be gone", i)
		}
		if i%2 == 1 && !ok {
			t.Fatalf("key %d should remain", i)
		}
	}
	if tr.Delete(1000) {
		t.Fatal("deleting a missing key must return false")
	}
}

// TestMatchesReferenceMap drives random operations against a map and checks
// contents and ordered iteration.
func TestMatchesReferenceMap(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := intTree()
	ref := map[int]int{}
	for op := 0; op < 5000; op++ {
		k := rng.Intn(500)
		switch rng.Intn(3) {
		case 0, 1:
			v := rng.Int()
			tr.Put(k, v)
			ref[k] = v
		case 2:
			delete(ref, k)
			tr.Delete(k)
		}
	}
	if tr.Len() != len(ref) {
		t.Fatalf("len = %d, want %d", tr.Len(), len(ref))
	}
	checkLLRB(t, tr)
	var keys []int
	tr.AscendAll(func(k, v int) bool {
		if ref[k] != v {
			t.Fatalf("key %d = %d, want %d", k, v, ref[k])
		}
		keys = append(keys, k)
		return true
	})
	if !sort.IntsAreSorted(keys) {
		t.Fatal("ascend not sorted")
	}
	var want []int
	for k := range ref {
		want = append(want, k)
	}
	sort.Ints(want)
	if len(keys) != len(want) {
		t.Fatalf("iterated %d keys, want %d", len(keys), len(want))
	}
}

// checkLLRB verifies the left-leaning red-black shape: no red right link,
// no two reds in a row, and one black height on every root-to-leaf path.
func checkLLRB(t *testing.T, tr *Tree[int, int]) {
	t.Helper()
	var walk func(h *node[int, int]) int
	walk = func(h *node[int, int]) int {
		if h == nil {
			return 1
		}
		if isRed(h.right) {
			t.Fatalf("red right link at %d", h.key)
		}
		if isRed(h) && isRed(h.left) {
			t.Fatalf("two reds in a row at %d", h.key)
		}
		l, r := walk(h.left), walk(h.right)
		if l != r {
			t.Fatalf("black height %d left vs %d right at %d", l, r, h.key)
		}
		if !isRed(h) {
			l++
		}
		return l
	}
	if isRed(tr.root) {
		t.Fatal("red root")
	}
	walk(tr.root)
}

func TestUpsert(t *testing.T) {
	tr := intTree()
	rng := rand.New(rand.NewSource(7))
	ref := map[int]int{}
	for op := 0; op < 3000; op++ {
		k := rng.Intn(400)
		want, wantFound := ref[k]
		tr.Upsert(k, func(old int, found bool) int {
			if found != wantFound || old != want {
				t.Fatalf("Upsert(%d) saw (%d,%v), want (%d,%v)", k, old, found, want, wantFound)
			}
			return old + k + 1
		})
		ref[k] = want + k + 1
		if tr.Len() != len(ref) {
			t.Fatalf("len = %d after upsert of %d, want %d", tr.Len(), k, len(ref))
		}
	}
	checkLLRB(t, tr)
	var keys []int
	tr.AscendAll(func(k, v int) bool {
		if ref[k] != v {
			t.Fatalf("key %d = %d, want %d", k, v, ref[k])
		}
		keys = append(keys, k)
		return true
	})
	if !sort.IntsAreSorted(keys) || len(keys) != len(ref) {
		t.Fatalf("ascend gave %d keys (sorted=%v), want %d", len(keys), sort.IntsAreSorted(keys), len(ref))
	}
}

func TestAscendFrom(t *testing.T) {
	tr := intTree()
	for _, k := range []int{10, 20, 30, 40, 50} {
		tr.Put(k, k)
	}
	var got []int
	tr.Ascend(25, func(k, _ int) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 3 || got[0] != 30 || got[2] != 50 {
		t.Fatalf("ascend from 25 = %v", got)
	}
	// Early stop.
	got = got[:0]
	tr.Ascend(0, func(k, _ int) bool {
		got = append(got, k)
		return len(got) < 2
	})
	if len(got) != 2 {
		t.Fatalf("early stop = %v", got)
	}
}

// TestAscendComparesOnSeekPath counts the comparisons of a walk from the
// middle of the tree to its end: the start key meets only the nodes on its
// seek path, at most the tree's height of 2*log2(n+1), never every key
// walked.
func TestAscendComparesOnSeekPath(t *testing.T) {
	cmps := 0
	tr := New[int, int](func(a, b int) int {
		cmps++
		return a - b
	})
	for k := 0; k < 1000; k++ {
		tr.Put(k, k)
	}
	cmps = 0
	walked := 0
	tr.Ascend(500, func(k, _ int) bool {
		walked++
		return true
	})
	if walked != 500 || cmps > 20 {
		t.Fatalf("walked %d keys with %d comparisons, want 500 with at most 20", walked, cmps)
	}
}

// TestSortedInvariantProperty uses testing/quick: any key set inserted in
// any order iterates sorted and fully.
func TestSortedInvariantProperty(t *testing.T) {
	f := func(keys []int) bool {
		tr := intTree()
		uniq := map[int]bool{}
		for _, k := range keys {
			tr.Put(k, k)
			uniq[k] = true
		}
		var iterated []int
		tr.AscendAll(func(k, _ int) bool {
			iterated = append(iterated, k)
			return true
		})
		if len(iterated) != len(uniq) {
			return false
		}
		return sort.IntsAreSorted(iterated)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRef checks that Ref points at the stored value, so a write through it
// is what Get and the walks see, and is nil for an absent key.
func TestRef(t *testing.T) {
	tr := intTree()
	for i := 0; i < 50; i++ {
		tr.Put(i, i)
	}
	if p := tr.Ref(50); p != nil {
		t.Fatalf("Ref(50) = %v for an absent key, want nil", *p)
	}
	for i := 0; i < 50; i += 2 {
		*tr.Ref(i) = -i
	}
	tr.AscendAll(func(k, v int) bool {
		want := k
		if k%2 == 0 {
			want = -k
		}
		if v != want {
			t.Fatalf("key %d holds %d after writes through Ref, want %d", k, v, want)
		}
		return true
	})
}
