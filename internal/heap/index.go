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

func visible(spans []span, v uint64) bool {
	for _, s := range spans {
		if s.add <= v && (s.del == 0 || v < s.del) {
			return true
		}
	}
	return false
}

// Index is a versioned secondary index. Index history is what lets this
// implementation keep page application lazy while staying consistent for
// index scans at any version (the paper keeps no old page versions); spans
// no reader can see any more are dropped only by gc.
type Index struct {
	def  IndexDef
	mu   sync.RWMutex
	tree *rbtree.Tree[ikey, []span] // guarded by mu
}

func newIndex(def IndexDef) *Index {
	return &Index{def: def, tree: rbtree.New[ikey, []span](cmpIKey)}
}

// keyOf extracts the index key columns from a full row.
func (ix *Index) keyOf(row value.Row) value.Row {
	key := make(value.Row, len(ix.def.Cols))
	for i, c := range ix.def.Cols {
		if c < len(row) {
			key[i] = row[c]
		}
	}
	return key
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
		ix.tree.Ascend(ikey{key: key, rid: -1 << 62}, func(k ikey, spans []span) bool {
			if value.CompareRows(k.key, key) != 0 {
				return false
			}
			if k.rid != rid && visible(spans, VersionLatest) {
				dup = true
				return false
			}
			return true
		})
		if dup {
			return fmt.Errorf("%w: index %s key %v", ErrDuplicateKey, ix.def.Name, key)
		}
	}
	return ix.addLocked(key, rid, ver)
}

// addUnchecked makes (key,rid) visible from ver without the uniqueness
// check; commit publishes overlay entries validated at execution time, and
// write-set application replays decisions the master already made.
func (ix *Index) addUnchecked(key value.Row, rid page.RowID, ver uint64) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.addLocked(key, rid, ver)
}

// addLocked opens a span for (key,rid) unless one is already open: a pair
// is added at most once per life, so a duplicate delivery of the same
// write-set (or one racing an install that already added the pair) must
// not stack a second open span that the next del would leave behind. One
// tree descent finds the pair and stores its spans.
func (ix *Index) addLocked(key value.Row, rid page.RowID, ver uint64) error {
	ix.tree.Upsert(ikey{key: key, rid: rid}, func(spans []span, found bool) []span {
		if !found {
			value.Seal(key) // the tree now holds key; scan hands it out as is
		}
		for _, s := range spans {
			if s.del == 0 {
				return spans
			}
		}
		return append(spans, span{add: ver})
	})
	return nil
}

// del ends the visibility of (key,rid) at version ver. The span is closed
// in place, as reconcile does, so one lookup suffices and nothing is stored
// for a pair the index does not hold.
func (ix *Index) del(key value.Row, rid page.RowID, ver uint64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	spans, _ := ix.tree.Get(ikey{key: key, rid: rid})
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].del == 0 {
			spans[i].del = ver
			break
		}
	}
}

// Chunk sizes of scan: the first chunk is small because most scans are
// point probes (lookupEq, a unique-key fetch) whose caller reads one or two
// entries and stops; each later chunk is scanChunkGrowth times larger, up
// to scanChunkMax, so a long range scan still takes the latch once per
// scanChunkMax entries.
const (
	scanChunkFirst  = 8
	scanChunkGrowth = 4
	scanChunkMax    = 256
)

// scan iterates entries with key >= from (nil from = whole index) visible at
// version v, in key order, until fn returns false. The keys fn receives are
// the stored ones, immutable once added: fn must not write into them.
//
// The index latch is NEVER held while fn runs: fn typically fetches pages,
// and a committing update transaction holds page latches while publishing
// index entries — holding the index latch across fn would create a classic
// index->page vs page->index deadlock. Entries are therefore collected in
// chunks (see scanChunkFirst) under a shared latch and delivered
// latch-free. Entries inserted behind the cursor between chunks are
// invisible at the reader's version by construction (write-sets are
// acknowledged before the version is ever assigned to a reader).
func (ix *Index) scan(from value.Row, v uint64, fn func(key value.Row, rid page.RowID) bool) {
	var (
		buf     []ikey
		resume  ikey
		resumed bool
	)
	for size := scanChunkFirst; ; size = min(size*scanChunkGrowth, scanChunkMax) {
		if cap(buf) < size {
			buf = make([]ikey, 0, size)
		}
		buf = buf[:0]
		iter := func(k ikey, spans []span) bool {
			if resumed && cmpIKey(k, resume) <= 0 {
				return true
			}
			if visible(spans, v) {
				buf = append(buf, k)
			}
			return len(buf) < size
		}
		ix.mu.RLock()
		switch {
		case resumed:
			ix.tree.Ascend(resume, iter)
		case from != nil:
			ix.tree.Ascend(ikey{key: from, rid: -1 << 62}, iter)
		default:
			ix.tree.AscendAll(iter)
		}
		ix.mu.RUnlock()
		for _, k := range buf {
			value.CheckSealed(k.key)
			if !fn(k.key, k.rid) {
				return
			}
		}
		if len(buf) < size {
			return
		}
		resume, resumed = buf[len(buf)-1], true
	}
}

// lookupEq collects the row ids whose key equals key exactly, visible at v.
func (ix *Index) lookupEq(key value.Row, v uint64) []page.RowID {
	var out []page.RowID
	ix.scan(key, v, func(k value.Row, rid page.RowID) bool {
		if value.CompareRows(k, key) != 0 {
			return false
		}
		out = append(out, rid)
		return true
	})
	return out
}

// discardAbove removes the effects of modifications with version > v:
// spans added after v are dropped and deletions after v are reopened. Used
// during master fail-over to purge eagerly-published index entries whose
// write-sets were only partially propagated and never acknowledged.
func (ix *Index) discardAbove(v uint64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	type patch struct {
		k     ikey
		spans []span
	}
	var patches []patch
	ix.tree.AscendAll(func(k ikey, spans []span) bool {
		changed := false
		kept := spans[:0:0]
		for _, s := range spans {
			if s.add > v {
				changed = true
				continue
			}
			if s.del > v {
				s.del = 0
				changed = true
			}
			kept = append(kept, s)
		}
		if changed {
			patches = append(patches, patch{k: k, spans: kept})
		}
		return true
	})
	for _, p := range patches {
		ix.tree.Put(p.k, p.spans)
	}
}

// gc removes spans that died at or before the low-water version lw (no
// reader at >= lw can see them) and deletes entries left with no spans.
// Returns the number of spans removed. This is the index-history garbage
// collection the paper leaves as future work for its page versions; index
// history is what this implementation retains, so it is what needs GC.
func (ix *Index) gc(lw uint64) int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	type patch struct {
		k     ikey
		spans []span
	}
	var patches []patch
	var dead []ikey
	removed := 0
	ix.tree.AscendAll(func(k ikey, spans []span) bool {
		keep := spans[:0:0]
		for _, s := range spans {
			if s.del != 0 && s.del <= lw {
				removed++
				continue
			}
			keep = append(keep, s)
		}
		if len(keep) == len(spans) {
			return true
		}
		if len(keep) == 0 {
			dead = append(dead, k)
			return true
		}
		patches = append(patches, patch{k: k, spans: keep})
		return true
	})
	for _, p := range patches {
		ix.tree.Put(p.k, p.spans)
	}
	for _, k := range dead {
		ix.tree.Delete(k)
	}
	return removed
}

// reconcile makes the index show, at version v, exactly the pairs of an
// installed page image. Called under the page's exclusive latch: old holds
// the page's rows at v that the image replaced, img the image's rows, and
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
func (ix *Index) reconcile(old, img map[page.RowID]value.Row, prev, v uint64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for rid, row := range old {
		key := ix.keyOf(row)
		if want, kept := img[rid]; kept && value.CompareRows(ix.keyOf(want), key) == 0 {
			continue
		}
		spans, _ := ix.tree.Get(ikey{key: key, rid: rid})
		for i, s := range spans {
			if s.add <= v && (s.del == 0 || v < s.del) {
				spans[i].del = v
			}
		}
	}
	for rid, row := range img {
		k := ikey{key: ix.keyOf(row), rid: rid}
		spans, _ := ix.tree.Get(k)
		if visible(spans, v) {
			continue
		}
		// End the added span where a later life of the pair begins, so that
		// life keeps its own span.
		var next uint64
		for _, s := range spans {
			if s.add > v && (next == 0 || s.add < next) {
				next = s.add
			}
		}
		value.Seal(k.key)
		ix.tree.Put(k, append(spans, span{add: prev, del: next}))
	}
}
