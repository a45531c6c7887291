package rbtree

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// TestNodeSize pins a node with a 16-byte key and a 24-byte value, an index
// entry's shape, at 48 bytes: two 32-bit links and no padding.
func TestNodeSize(t *testing.T) {
	if n := unsafe.Sizeof(node[[2]uint64, [3]uint64]{}); n != 48 {
		t.Fatalf("node is %d bytes, want 48", n)
	}
}

// TestChurnReusesFreeSlots deletes and inserts at a constant size: every
// insert takes a slot a delete freed, so the chunk count stays where the
// first fill left it.
func TestChurnReusesFreeSlots(t *testing.T) {
	const size = 3000
	tr := intTree()
	for k := 0; k < size; k++ {
		tr.Put(k, k)
	}
	chunks := len(tr.chunks)
	rng := rand.New(rand.NewSource(5))
	next := size
	for op := 0; op < 20*size; op++ {
		for {
			if k := rng.Intn(next); tr.Delete(k) {
				break
			}
		}
		tr.Put(next, next)
		next++
	}
	if tr.Len() != size || len(tr.chunks) != chunks {
		t.Fatalf("after churn: %d keys in %d chunks, want %d in %d", tr.Len(), len(tr.chunks), size, chunks)
	}
	checkLLRB(t, tr)
}

// TestFreedSlotPinsNothing checks that a deleted entry's slot holds neither
// its key nor its value: a slot on the free list must not keep what it
// pointed at alive.
func TestFreedSlotPinsNothing(t *testing.T) {
	tr := New[*int, *int](func(a, b *int) int { return *a - *b })
	keys := make([]*int, 100)
	for i := range keys {
		k := i
		keys[i] = &k
		tr.Put(keys[i], keys[i])
	}
	for i := 0; i < len(keys); i += 3 {
		tr.Delete(keys[i])
	}
	freed := 0
	for i := tr.free; i != 0; i = tr.at(i).left {
		if n := tr.at(i); n.key != nil || n.val != nil || n.right != 0 {
			t.Fatalf("free slot %d holds key %v, value %v, right %d", i, n.key, n.val, n.right)
		}
		freed++
	}
	if freed != 34 || tr.Len() != 66 {
		t.Fatalf("%d free slots and %d keys, want 34 and 66", freed, tr.Len())
	}
}

// TestSmallTreeSmallChunks bounds the bytes a 10-entry tree allocates far
// below one full chunk: its chunks start small.
func TestSmallTreeSmallChunks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := intTree()
	for k := 0; k < 10; k++ {
		tr.Put(k, k)
	}
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	full := uint64(chunkSlots * unsafe.Sizeof(node[int, int]{}))
	t.Logf("a 10-entry tree allocated %d bytes; a full chunk is %d", bytes, full)
	if bytes > full/4 {
		t.Fatalf("a 10-entry tree allocated %d bytes, want at most %d (a quarter chunk)", bytes, full/4)
	}
	if tr.Len() != 10 {
		t.Fatalf("len = %d", tr.Len())
	}
}
