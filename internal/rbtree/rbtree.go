// Package rbtree implements a left-leaning red-black binary search tree with
// ordered iteration.
//
// It is the index substrate for the in-memory storage engine, mirroring the
// RB-tree indexes of the MySQL HEAP tables the paper builds on (the paper
// attributes master saturation under the ordering mix partly to RB-tree
// rebalancing on index inserts).
//
// The nodes live in chunks, not one heap object each: a node is named by its
// uint32 slot, children link by slot, and slot 0 is nil. A chunk never
// moves once made. The first chunks double from 8 slots, so a small tree
// pays for what it holds, and every later one holds chunkSlots, so a large
// tree allocates once per chunkSlots nodes. A deleted node's slot is
// zeroed, so it pins nothing, and goes on a free list that the next insert
// takes from.
package rbtree

import "math/bits"

// Comparator orders keys: negative if a<b, zero if equal, positive if a>b.
type Comparator[K any] func(a, b K) int

// Chunk sizes: chunk c < growChunks holds firstChunk<<c slots, 8 to 256,
// and every later one chunkSlots. The allocator puts an 8-byte header
// before a pointerful object of over 512 bytes, so a chunk of 256 of the
// storage engine's 48-byte index nodes rounds up past a tenth of waste,
// while 341 of them and the header fill a 16 KiB size class to within 8
// bytes.
const (
	firstShift  = 3
	firstChunk  = 1 << firstShift
	growChunks  = 6
	growthSlots = firstChunk<<growChunks - firstChunk
	chunkSlots  = 341
)

// A link names a node by its slot, 0 for nil, and carries in its top bit,
// redBit, the color of the node it names: the red links of the LLRB
// algorithm. So a color test reads the link, not the node, and a nil link
// is black.
const redBit = 1 << 31

func isRed(x uint32) bool { return x&redBit != 0 }

type node[K any, V any] struct {
	key         K
	val         V
	left, right uint32 // links to the children; left links the free list once freed
}

// flip flips the colors of the node h links to, whose node is n, and of its
// children, and returns h's new link.
func (n *node[K, V]) flip(h uint32) uint32 {
	if n.left != 0 {
		n.left ^= redBit
	}
	if n.right != 0 {
		n.right ^= redBit
	}
	return h ^ redBit
}

// Tree is a mutable ordered map. It is not safe for concurrent use; callers
// synchronize externally (the storage engine wraps each index in a latch).
type Tree[K any, V any] struct {
	chunks [][]node[K, V]
	root   uint32
	used   uint32 // slots 1..used have been handed out
	free   uint32 // the first free slot, or 0
	cmp    Comparator[K]
	size   int
}

// New returns an empty tree ordered by cmp.
func New[K any, V any](cmp Comparator[K]) *Tree[K, V] {
	return &Tree[K, V]{cmp: cmp}
}

// Len returns the number of keys.
func (t *Tree[K, V]) Len() int { return t.size }

// locate returns the chunk and the offset in it of the slot link x names
// (x names one).
func locate(x uint32) (c int, off uint32) {
	p := x&^redBit - 1
	if p >= growthSlots {
		p -= growthSlots
		return growChunks + int(p/chunkSlots), p % chunkSlots
	}
	j := p + firstChunk
	c = bits.Len32(j) - firstShift - 1
	return c, j - firstChunk<<c
}

// at returns the node link x names (x names one).
func (t *Tree[K, V]) at(x uint32) *node[K, V] {
	c, off := locate(x)
	return &t.chunks[c][off]
}

// alloc hands out a zeroed slot: the first free one, or the next unused
// one, making its chunk if it has none.
func (t *Tree[K, V]) alloc() uint32 {
	if i := t.free; i != 0 {
		n := t.at(i)
		t.free, n.left = n.left, 0
		return i
	}
	t.used++
	if c, _ := locate(t.used); c == len(t.chunks) {
		size := chunkSlots
		if c < growChunks {
			size = firstChunk << c
		}
		t.chunks = append(t.chunks, make([]node[K, V], size))
	}
	return t.used
}

// release zeroes the slot link x names, so it keeps no key or value alive,
// and puts it on the free list.
func (t *Tree[K, V]) release(x uint32) {
	*t.at(x) = node[K, V]{left: t.free}
	t.free = x &^ redBit
}

// Ref returns a pointer to the value stored at key, or nil if key is
// absent. The pointer lets the caller change the value in place; it is
// valid until the next Put, Upsert or Delete, which may move values between
// nodes.
func (t *Tree[K, V]) Ref(key K) *V {
	x := t.root
	for x != 0 {
		n := t.at(x)
		c := t.cmp(key, n.key)
		switch {
		case c < 0:
			x = n.left
		case c > 0:
			x = n.right
		default:
			return &n.val
		}
	}
	return nil
}

// Put inserts or replaces the value at key.
func (t *Tree[K, V]) Put(key K, val V) { t.Upsert(key, func(V, bool) V { return val }) }

// Upsert stores fn(old, found) at key in a single descent: old is the value
// already stored (found true), or the zero value when key is absent, in
// which case key is inserted. A present key keeps its stored key value.
func (t *Tree[K, V]) Upsert(key K, fn func(old V, found bool) V) {
	t.root = t.upsert(t.root, key, fn) &^ redBit
}

func (t *Tree[K, V]) upsert(h uint32, key K, fn func(V, bool) V) uint32 {
	if h == 0 {
		t.size++
		var zero V
		h = t.alloc()
		n := t.at(h)
		n.key, n.val = key, fn(zero, false)
		return h | redBit
	}
	n := t.at(h)
	c := t.cmp(key, n.key)
	switch {
	case c < 0:
		n.left = t.upsert(n.left, key, fn)
	case c > 0:
		n.right = t.upsert(n.right, key, fn)
	default:
		n.val = fn(n.val, true)
	}
	return t.fix(h)
}

// Delete removes key if present and reports whether it was found.
func (t *Tree[K, V]) Delete(key K) bool {
	if t.Ref(key) == nil {
		return false
	}
	if r := t.at(t.root); !isRed(r.left) && !isRed(r.right) {
		t.root |= redBit
	}
	t.root = t.del(t.root, key) &^ redBit
	t.size--
	return true
}

func (t *Tree[K, V]) del(h uint32, key K) uint32 {
	n := t.at(h)
	if t.cmp(key, n.key) < 0 {
		if !isRed(n.left) && n.left != 0 && !isRed(t.at(n.left).left) {
			h = t.moveRedLeft(h)
			n = t.at(h)
		}
		n.left = t.del(n.left, key)
	} else {
		if isRed(n.left) {
			h = t.rotateRight(h)
			n = t.at(h)
		}
		if t.cmp(key, n.key) == 0 && n.right == 0 {
			t.release(h)
			return 0
		}
		if !isRed(n.right) && n.right != 0 && !isRed(t.at(n.right).left) {
			h = t.moveRedRight(h)
			n = t.at(h)
		}
		if t.cmp(key, n.key) == 0 {
			m := t.at(t.min(n.right))
			n.key, n.val = m.key, m.val
			n.right = t.deleteMin(n.right)
		} else {
			n.right = t.del(n.right, key)
		}
	}
	return t.fix(h)
}

func (t *Tree[K, V]) min(h uint32) uint32 {
	for n := t.at(h); n.left != 0; n = t.at(h) {
		h = n.left
	}
	return h
}

func (t *Tree[K, V]) deleteMin(h uint32) uint32 {
	n := t.at(h)
	if n.left == 0 {
		t.release(h)
		return 0
	}
	if !isRed(n.left) && !isRed(t.at(n.left).left) {
		h = t.moveRedLeft(h)
		n = t.at(h)
	}
	n.left = t.deleteMin(n.left)
	return t.fix(h)
}

// Ascend calls fn for each key/value with key >= from in ascending order,
// stopping when fn returns false.
func (t *Tree[K, V]) Ascend(from K, fn func(K, V) bool) {
	t.ascend(t.root, &from, fn)
}

// AscendAll iterates the whole tree in ascending order.
func (t *Tree[K, V]) AscendAll(fn func(K, V) bool) {
	t.ascend(t.root, nil, fn)
}

// ascend compares from only on the seek path: every key in the right
// subtree of a node at or past from is past it too, so that subtree is
// walked with no start key.
func (t *Tree[K, V]) ascend(h uint32, from *K, fn func(K, V) bool) bool {
	for h != 0 {
		n := t.at(h)
		if from != nil && t.cmp(*from, n.key) > 0 {
			h = n.right
			continue
		}
		if !t.ascend(n.left, from, fn) || !fn(n.key, n.val) {
			return false
		}
		h, from = n.right, nil
	}
	return true
}

// internal balancing helpers (Sedgewick LLRB). Each takes and returns the
// link to a subtree's root, whose color the link carries.

func (t *Tree[K, V]) rotateLeft(h uint32) uint32 {
	n := t.at(h)
	x := n.right
	xn := t.at(x)
	n.right = xn.left
	xn.left = h | redBit
	return x&^redBit | h&redBit
}

func (t *Tree[K, V]) rotateRight(h uint32) uint32 {
	n := t.at(h)
	x := n.left
	xn := t.at(x)
	n.left = xn.right
	xn.right = h | redBit
	return x&^redBit | h&redBit
}

func (t *Tree[K, V]) moveRedLeft(h uint32) uint32 {
	h = t.at(h).flip(h)
	if n := t.at(h); n.right != 0 && isRed(t.at(n.right).left) {
		n.right = t.rotateRight(n.right)
		h = t.rotateLeft(h)
		h = t.at(h).flip(h)
	}
	return h
}

func (t *Tree[K, V]) moveRedRight(h uint32) uint32 {
	h = t.at(h).flip(h)
	if n := t.at(h); n.left != 0 && isRed(t.at(n.left).left) {
		h = t.rotateRight(h)
		h = t.at(h).flip(h)
	}
	return h
}

func (t *Tree[K, V]) fix(h uint32) uint32 {
	n := t.at(h)
	if isRed(n.right) && !isRed(n.left) {
		h = t.rotateLeft(h)
		n = t.at(h)
	}
	if isRed(n.left) && isRed(t.at(n.left).left) {
		h = t.rotateRight(h)
		n = t.at(h)
	}
	if isRed(n.left) && isRed(n.right) {
		h = n.flip(h)
	}
	return h
}
