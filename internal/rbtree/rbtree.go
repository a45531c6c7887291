// Package rbtree implements a left-leaning red-black binary search tree with
// ordered iteration.
//
// It is the index substrate for the in-memory storage engine, mirroring the
// RB-tree indexes of the MySQL HEAP tables the paper builds on (the paper
// attributes master saturation under the ordering mix partly to RB-tree
// rebalancing on index inserts).
package rbtree

// Comparator orders keys: negative if a<b, zero if equal, positive if a>b.
type Comparator[K any] func(a, b K) int

const (
	red   = true
	black = false
)

type node[K any, V any] struct {
	key         K
	val         V
	left, right *node[K, V]
	color       bool
}

// Tree is a mutable ordered map. It is not safe for concurrent use; callers
// synchronize externally (the storage engine wraps each index in a latch).
type Tree[K any, V any] struct {
	root *node[K, V]
	cmp  Comparator[K]
	size int
}

// New returns an empty tree ordered by cmp.
func New[K any, V any](cmp Comparator[K]) *Tree[K, V] {
	return &Tree[K, V]{cmp: cmp}
}

// Len returns the number of keys.
func (t *Tree[K, V]) Len() int { return t.size }

// Get returns the value stored at key.
func (t *Tree[K, V]) Get(key K) (V, bool) {
	x := t.root
	for x != nil {
		c := t.cmp(key, x.key)
		switch {
		case c < 0:
			x = x.left
		case c > 0:
			x = x.right
		default:
			return x.val, true
		}
	}
	var zero V
	return zero, false
}

// Put inserts or replaces the value at key.
func (t *Tree[K, V]) Put(key K, val V) { t.Upsert(key, func(V, bool) V { return val }) }

// Upsert stores fn(old, found) at key in a single descent: old is the value
// already stored (found true), or the zero value when key is absent, in
// which case key is inserted. A present key keeps its stored key value.
func (t *Tree[K, V]) Upsert(key K, fn func(old V, found bool) V) {
	t.root = t.upsert(t.root, key, fn)
	t.root.color = black
}

func (t *Tree[K, V]) upsert(h *node[K, V], key K, fn func(V, bool) V) *node[K, V] {
	if h == nil {
		t.size++
		var zero V
		return &node[K, V]{key: key, val: fn(zero, false), color: red}
	}
	c := t.cmp(key, h.key)
	switch {
	case c < 0:
		h.left = t.upsert(h.left, key, fn)
	case c > 0:
		h.right = t.upsert(h.right, key, fn)
	default:
		h.val = fn(h.val, true)
	}
	return fix(h)
}

// Delete removes key if present and reports whether it was found.
func (t *Tree[K, V]) Delete(key K) bool {
	if _, ok := t.Get(key); !ok {
		return false
	}
	if !isRed(t.root.left) && !isRed(t.root.right) {
		t.root.color = red
	}
	t.root = t.del(t.root, key)
	if t.root != nil {
		t.root.color = black
	}
	t.size--
	return true
}

func (t *Tree[K, V]) del(h *node[K, V], key K) *node[K, V] {
	if t.cmp(key, h.key) < 0 {
		if !isRed(h.left) && h.left != nil && !isRed(h.left.left) {
			h = moveRedLeft(h)
		}
		h.left = t.del(h.left, key)
	} else {
		if isRed(h.left) {
			h = rotateRight(h)
		}
		if t.cmp(key, h.key) == 0 && h.right == nil {
			return nil
		}
		if !isRed(h.right) && h.right != nil && !isRed(h.right.left) {
			h = moveRedRight(h)
		}
		if t.cmp(key, h.key) == 0 {
			m := min(h.right)
			h.key, h.val = m.key, m.val
			h.right = deleteMin(h.right)
		} else {
			h.right = t.del(h.right, key)
		}
	}
	return fix(h)
}

func min[K any, V any](h *node[K, V]) *node[K, V] {
	for h.left != nil {
		h = h.left
	}
	return h
}

func deleteMin[K any, V any](h *node[K, V]) *node[K, V] {
	if h.left == nil {
		return nil
	}
	if !isRed(h.left) && !isRed(h.left.left) {
		h = moveRedLeft(h)
	}
	h.left = deleteMin(h.left)
	return fix(h)
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
func (t *Tree[K, V]) ascend(h *node[K, V], from *K, fn func(K, V) bool) bool {
	if h == nil {
		return true
	}
	if from == nil || t.cmp(*from, h.key) <= 0 {
		if !t.ascend(h.left, from, fn) {
			return false
		}
		if !fn(h.key, h.val) {
			return false
		}
		return t.ascend(h.right, nil, fn)
	}
	return t.ascend(h.right, from, fn)
}

// internal balancing helpers (Sedgewick LLRB).

func isRed[K any, V any](h *node[K, V]) bool { return h != nil && h.color == red }

func rotateLeft[K any, V any](h *node[K, V]) *node[K, V] {
	x := h.right
	h.right = x.left
	x.left = h
	x.color = h.color
	h.color = red
	return x
}

func rotateRight[K any, V any](h *node[K, V]) *node[K, V] {
	x := h.left
	h.left = x.right
	x.right = h
	x.color = h.color
	h.color = red
	return x
}

func flipColors[K any, V any](h *node[K, V]) {
	h.color = !h.color
	if h.left != nil {
		h.left.color = !h.left.color
	}
	if h.right != nil {
		h.right.color = !h.right.color
	}
}

func moveRedLeft[K any, V any](h *node[K, V]) *node[K, V] {
	flipColors(h)
	if h.right != nil && isRed(h.right.left) {
		h.right = rotateRight(h.right)
		h = rotateLeft(h)
		flipColors(h)
	}
	return h
}

func moveRedRight[K any, V any](h *node[K, V]) *node[K, V] {
	flipColors(h)
	if h.left != nil && isRed(h.left.left) {
		h = rotateRight(h)
		flipColors(h)
	}
	return h
}

func fix[K any, V any](h *node[K, V]) *node[K, V] {
	if isRed(h.right) && !isRed(h.left) {
		h = rotateLeft(h)
	}
	if isRed(h.left) && isRed(h.left.left) {
		h = rotateRight(h)
	}
	if isRed(h.left) && isRed(h.right) {
		flipColors(h)
	}
	return h
}
