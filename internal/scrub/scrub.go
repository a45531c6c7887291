// Package scrub defines the anti-entropy state digests: deterministic,
// byte-stable hashes of heap state evaluated at a pinned version, arranged
// as a per-table Merkle tree whose leaves are page digests. Multiversioning
// is what makes the digest cheap to take online — the scan reads every page
// at one pinned version through the same snapshot path readers use, so a
// scrub never blocks writers and two nodes that applied the same write-sets
// hash to the same bytes regardless of whether they applied them eagerly or
// lazily.
//
// The byte layout is fixed and platform-independent (big-endian lengths and
// ids, the injective value.Row.Key encoding for rows), so digests compare
// across goos/goarch and across process boundaries. heap.Engine produces
// TableDigest values (it owns the page walk); this package owns the hash
// definition so every layer agrees on what "equal state" means.
package scrub

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"

	"dmv/internal/page"
	"dmv/internal/value"
)

// Hash is one sha256 digest.
type Hash [sha256.Size]byte

// PageDigest is the Merkle leaf: one page's content hash at the pinned
// version. Pages that hold no rows at the pinned version produce no leaf at
// all, so page-directory length differences between nodes (trailing empty
// pages a master allocated but never shipped) do not diverge the root.
type PageDigest struct {
	Page page.ID
	Hash Hash
}

// TableDigest is one table's state digest at a pinned version: the Merkle
// root, and optionally the full leaf set for drill-down after a root
// mismatch.
type TableDigest struct {
	Table   int
	Version uint64
	Root    Hash
	Pages   []PageDigest // leaf hashes sorted by page id; nil unless requested
}

// HashPage computes the Merkle leaf for one page's rows as seen at the
// pinned version. rows calls its argument for every row in ascending RowID
// order, as page.Rows.All does; each row contributes its id and the
// injective value.Row.Key encoding, both length-framed, so no two distinct
// row sets collide by concatenation.
func HashPage(table int, pg page.ID, rows func(fn func(rid page.RowID, row value.Row))) PageDigest {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(table))
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], uint64(pg))
	h.Write(buf[:])
	rows(func(rid page.RowID, row value.Row) {
		binary.BigEndian.PutUint64(buf[:], uint64(rid))
		h.Write(buf[:])
		key := row.Key()
		binary.BigEndian.PutUint64(buf[:], uint64(len(key)))
		h.Write(buf[:])
		h.Write([]byte(key))
	})
	var pd PageDigest
	pd.Page = pg
	h.Sum(pd.Hash[:0])
	return pd
}

// Root folds the leaf digests into the Merkle root. Leaves must be sorted
// by page id (SortPages). The fold pairs adjacent nodes level by level; an
// odd node is carried up unchanged. An empty table hashes to a fixed
// sentinel so "no pages" is itself a comparable state.
func Root(pages []PageDigest) Hash {
	if len(pages) == 0 {
		return sha256.Sum256([]byte("dmv-scrub-empty"))
	}
	level := make([]Hash, len(pages))
	for i, p := range pages {
		level[i] = p.Hash
	}
	for len(level) > 1 {
		next := make([]Hash, 0, (len(level)+1)/2)
		for i := 0; i+1 < len(level); i += 2 {
			h := sha256.New()
			h.Write(level[i][:])
			h.Write(level[i+1][:])
			var out Hash
			h.Sum(out[:0])
			next = append(next, out)
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return level[0]
}

// SortPages orders leaves by page id, the canonical order Root expects.
func SortPages(pages []PageDigest) {
	sort.Slice(pages, func(i, j int) bool { return pages[i].Page < pages[j].Page })
}

// DiffPages returns the ids of pages whose leaves differ between two
// digests of the same table at the same version: hash mismatches plus pages
// present on only one side. Both inputs must carry their leaf sets.
func DiffPages(a, b TableDigest) []page.ID {
	am := make(map[page.ID]Hash, len(a.Pages))
	for _, p := range a.Pages {
		am[p.Page] = p.Hash
	}
	var out []page.ID
	seen := make(map[page.ID]bool, len(b.Pages))
	for _, p := range b.Pages {
		seen[p.Page] = true
		if h, ok := am[p.Page]; !ok || h != p.Hash {
			out = append(out, p.Page)
		}
	}
	for _, p := range a.Pages {
		if !seen[p.Page] {
			out = append(out, p.Page)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
