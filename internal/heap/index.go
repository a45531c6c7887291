package heap

import (
	"fmt"
	"sync"

	"dmv/internal/page"
	"dmv/internal/rbtree"
	"dmv/internal/value"
)

// ikey orders index entries by key columns, then row id, making every tree
// node unique per (key, row) pair.
type ikey struct {
	key value.Row
	rid page.RowID
}

func cmpIKey(a, b ikey) int {
	if c := value.CompareRows(a.key, b.key); c != 0 {
		return c
	}
	switch {
	case a.rid < b.rid:
		return -1
	case a.rid > b.rid:
		return 1
	}
	return 0
}

// span is one visibility interval of an index entry: visible at table
// versions v with add <= v and (del == 0 or v < del). Version-0 spans come
// from the initial load and are visible everywhere.
type span struct {
	add, del uint64
}

func (s span) covers(v uint64) bool { return s.add <= v && (s.del == 0 || v < s.del) }

// lives holds the spans of one (key, rid) pair in the order they were
// opened. The first sits inline, so a pair that lives once, as nearly every
// pair does, costs its tree node alone; each later life (a row whose key
// changes away and back, or a span an install adds) hangs off next. A
// stored lives holds at least one span. At 24 bytes it keeps a tree node
// in the 80-byte size class.
type lives struct {
	s    span
	next *lives
}

// visible reports whether a span of l covers v. A nil l, a pair the index
// does not hold, shows nothing.
func (l *lives) visible(v uint64) bool {
	for ; l != nil; l = l.next {
		if l.s.covers(v) {
			return true
		}
	}
	return false
}

// open returns the last span of l that is still open (del 0), or nil.
func (l *lives) open() *span {
	var o *span
	for ; l != nil; l = l.next {
		if l.s.del == 0 {
			o = &l.s
		}
	}
	return o
}

// push appends s as the last span of l.
func (l *lives) push(s span) {
	for l.next != nil {
		l = l.next
	}
	l.next = &lives{s: s}
}

// has reports whether f holds for a span of l.
func (l *lives) has(f func(span) bool) bool {
	for ; l != nil; l = l.next {
		if f(l.s) {
			return true
		}
	}
	return false
}

// retain keeps, in order, the spans of l that keep returns true for; keep
// may change the span it is given. It compacts the kept spans into l's
// leading nodes and reports whether any is left: a lives left with none
// must leave the tree.
func (l *lives) retain(keep func(*span) bool) bool {
	w, n := l, 0
	for p := l; p != nil; p = p.next {
		if !keep(&p.s) {
			continue
		}
		if n > 0 {
			w = w.next
		}
		w.s = p.s
		n++
	}
	if n > 0 {
		w.next = nil
	}
	return n > 0
}

// Index is a versioned secondary index. Index history is what lets this
// implementation keep page application lazy while staying consistent for
// index scans at any version (the paper keeps no old page versions); spans
// no reader can see any more are dropped only by gc.
//
// A stored entry is one tree node: its key is a window onto the row the
// page publishes (see keyOf) and its first span sits in the node's value.
type Index struct {
	def   IndexDef
	winAt int // the first key column if the columns are consecutive, else -1
	mu    sync.RWMutex
	tree  *rbtree.Tree[ikey, lives] // guarded by mu
}

func newIndex(def IndexDef) *Index {
	winAt := -1
	if len(def.Cols) > 0 {
		winAt = def.Cols[0]
		for i, c := range def.Cols {
			if c != winAt+i {
				winAt = -1
				break
			}
		}
	}
	return &Index{def: def, winAt: winAt, tree: rbtree.New[ikey, lives](cmpIKey)}
}

// keyOf extracts the index key columns from a full row. When the columns
// are consecutive and ascending, the key is the capped window
// row[c:c+n:c+n] onto the row itself and costs nothing: a row the engine
// publishes is never written again (DESIGN.md §8), so the tree keeps the
// window as its key, and the cap keeps an append to the key off the row.
// Any other index, or a row too short for the window, gets a copy. The
// callers that store a key pass a published row: the row a page holds or
// is about to hold.
func (ix *Index) keyOf(row value.Row) value.Row {
	if c, n := ix.winAt, len(ix.def.Cols); c >= 0 && c+n <= len(row) {
		return row[c : c+n : c+n]
	}
	key := make(value.Row, len(ix.def.Cols))
	for i, c := range ix.def.Cols {
		if c < len(row) {
			key[i] = row[c]
		}
	}
	return key
}

// keyChanged reports whether rows old and new carry different keys in ix,
// comparing the key columns in place, as CompareRows would compare their
// keyOf images.
func (ix *Index) keyChanged(old, new value.Row) bool {
	for _, c := range ix.def.Cols {
		var a, b value.Value
		if c < len(old) {
			a = old[c]
		}
		if c < len(new) {
			b = new[c]
		}
		if value.Compare(a, b) != 0 {
			return true
		}
	}
	return false
}

// add makes (key,rid) visible from version ver on. For unique indexes it
// reports ErrDuplicateKey when another live row already carries the key at
// ver (checked against the latest state; the master serializes writers via
// page 2PL so this is exact on the update path).
func (ix *Index) add(key value.Row, rid page.RowID, ver uint64) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.def.Unique {
		dup := false
		ix.tree.Ascend(ikey{key: key, rid: minRowID}, func(k ikey, l lives) bool {
			if value.CompareRows(k.key, key) != 0 {
				return false
			}
			if k.rid != rid && l.visible(VersionLatest) {
				dup = true
				return false
			}
			return true
		})
		if dup {
			return fmt.Errorf("%w: index %s key %v", ErrDuplicateKey, ix.def.Name, key)
		}
	}
	ix.addLocked(key, rid, ver)
	return nil
}

// addUnchecked makes (key,rid) visible from ver without the uniqueness
// check; commit publishes overlay entries validated at execution time, and
// write-set application replays decisions the master already made.
func (ix *Index) addUnchecked(key value.Row, rid page.RowID, ver uint64) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.addLocked(key, rid, ver)
	return nil
}

// addLocked opens a span for (key,rid) unless one is already open: a pair
// is added at most once per life, so a duplicate delivery of the same
// write-set (or one racing an install that already added the pair) must
// not stack a second open span that the next del would leave behind. One
// tree descent finds the pair and stores its spans; a new pair keeps key
// as the node's key.
func (ix *Index) addLocked(key value.Row, rid page.RowID, ver uint64) {
	ix.tree.Upsert(ikey{key: key, rid: rid}, func(l lives, found bool) lives {
		if !found {
			value.Seal(key) // the tree now holds key; a cursor hands it out as is
			return lives{s: span{add: ver}}
		}
		if l.open() == nil {
			l.push(span{add: ver})
		}
		return l
	})
}

// del ends the visibility of (key,rid) at version ver. The span is closed
// in place, as reconcile does, so one descent suffices and nothing is
// stored for a pair the index does not hold.
func (ix *Index) del(key value.Row, rid page.RowID, ver uint64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if s := ix.tree.Ref(ikey{key: key, rid: rid}).open(); s != nil {
		s.del = ver
	}
}

// discardAbove removes the effects of modifications with version > v:
// spans added after v are dropped and deletions after v are reopened. Used
// during master fail-over to purge eagerly-published index entries whose
// write-sets were only partially propagated and never acknowledged.
func (ix *Index) discardAbove(v uint64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.rewriteLocked(func(s span) bool { return s.add > v || s.del > v }, func(s *span) bool {
		if s.add > v {
			return false
		}
		if s.del > v {
			s.del = 0
		}
		return true
	})
}

// gc removes spans that died at or before the low-water version lw (no
// reader at >= lw can see them) and deletes entries left with no spans.
// Returns the number of spans removed. This is the index-history garbage
// collection the paper leaves as future work for its page versions; index
// history is what this implementation retains, so it is what needs GC.
func (ix *Index) gc(lw uint64) int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	dead := func(s span) bool { return s.del != 0 && s.del <= lw }
	return ix.rewriteLocked(dead, func(s *span) bool { return !dead(*s) })
}

// rewriteLocked passes every span of each entry that has a span hit
// holds for to keep, which may change it; a span keep returns false for is
// dropped, and an entry left with none leaves the tree. The walk only
// collects the entries, since the tree hands it copies and must not change
// shape under it. Returns the number of spans dropped. Caller holds mu.
func (ix *Index) rewriteLocked(hit func(span) bool, keep func(*span) bool) int {
	var keys []ikey
	ix.tree.AscendAll(func(k ikey, l lives) bool {
		if l.has(hit) {
			keys = append(keys, k)
		}
		return true
	})
	dropped := 0
	counted := func(s *span) bool {
		if keep(s) {
			return true
		}
		dropped++
		return false
	}
	for _, k := range keys {
		if !ix.tree.Ref(k).retain(counted) {
			ix.tree.Delete(k)
		}
	}
	return dropped
}

// reconcile makes the index show, at version v, exactly the pairs of an
// installed page image. Called under the page's exclusive latch: old holds
// the page's rows at v that the image replaced, img the rows the page
// published from the image (their keys become the new pairs' keys), and
// prev the page's applied version before the install. A pair of the image
// the index does not show at v is added from prev, so a reader below v
// reaches the page and aborts with page.ErrVersionConflict instead of
// missing the row; a pair shown at v that the image lacks has the span
// covering v closed at v. Pairs that already agree are left untouched.
//
// The pairs shown at v are found through old's keys: write-set application
// keeps a page's spans in step with its rows, so those are the only pairs
// the index can show for the page. A node that missed a write-set can hold
// a pair no row of the page still carries; that one is not found here.
func (ix *Index) reconcile(old, img page.Rows, prev, v uint64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	old.All(func(rid page.RowID, row value.Row) {
		if want, kept := img.Get(rid); !kept || ix.keyChanged(row, want) {
			ix.closeLocked(ikey{key: ix.keyOf(row), rid: rid}, v)
		}
	})
	img.All(func(rid page.RowID, row value.Row) {
		ix.openLocked(ikey{key: ix.keyOf(row), rid: rid}, prev, v)
	})
}

// closeLocked closes at v the span of pair k that covers v. Caller holds
// ix.mu.
func (ix *Index) closeLocked(k ikey, v uint64) {
	for l := ix.tree.Ref(k); l != nil; l = l.next {
		if l.s.covers(v) {
			l.s.del = v
		}
	}
}

// openLocked makes pair k visible at v, if it is not, with a span from prev.
// Caller holds ix.mu.
func (ix *Index) openLocked(k ikey, prev, v uint64) {
	l := ix.tree.Ref(k)
	if l.visible(v) {
		return
	}
	// End the added span where a later life of the pair begins, so that
	// life keeps its own span.
	var next uint64
	for p := l; p != nil; p = p.next {
		if p.s.add > v && (next == 0 || p.s.add < next) {
			next = p.s.add
		}
	}
	if l != nil {
		l.push(span{add: prev, del: next})
		return
	}
	value.Seal(k.key)
	ix.tree.Put(k, lives{s: span{add: prev, del: next}})
}
