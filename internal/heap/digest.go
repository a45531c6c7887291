// Anti-entropy scrub support (DESIGN.md §15): snapshot-consistent state
// digests at a pinned version, current-page shipping for repair, and the
// deterministic corruption injector that provokes divergence in tests.
package heap

import (
	"fmt"
	"math/rand"

	"dmv/internal/page"
	"dmv/internal/scrub"
	"dmv/internal/value"
)

// ErrNoRows reports a corruption request against state with nothing to
// corrupt (empty table or page).
var ErrNoRows = fmt.Errorf("heap: no rows to corrupt")

// TableDigestAt computes the table's scrub digest at the pinned version v:
// every page that exists at v is read through the same snapshot path
// readers use (page.View, which lazily applies buffered mods up to v and
// never blocks writers), hashed, and folded into a Merkle root. Pages
// created after v and pages holding no rows at v contribute no leaf, so
// nodes whose page directories differ only in unshipped empty pages still
// agree. withPages retains the leaf set for drill-down after a root
// mismatch.
//
// Returns page.ErrVersionConflict when any page has already applied past v
// (the caller's frontier raced a master commit); the sweep retries with a
// fresher frontier.
func (e *Engine) TableDigestAt(table int, v uint64, withPages bool) (scrub.TableDigest, error) {
	t, err := e.table(table)
	if err != nil {
		return scrub.TableDigest{}, err
	}
	td := scrub.TableDigest{Table: table, Version: v}
	for _, p := range t.pagesSnapshot() {
		if p.CreateVersion() > v {
			continue
		}
		var pd scrub.PageDigest
		hashed := false
		err := p.View(v, func(rows page.Rows) error {
			if rows.Len() == 0 {
				return nil
			}
			pd = scrub.HashPage(table, p.ID(), rows.All)
			hashed = true
			return nil
		})
		if err != nil {
			return scrub.TableDigest{}, err
		}
		if hashed {
			td.Pages = append(td.Pages, pd)
		}
	}
	scrub.SortPages(td.Pages)
	td.Root = scrub.Root(td.Pages)
	if !withPages {
		td.Pages = nil
	}
	return td, nil
}

// PageImages snapshots the named pages at their current content — the one
// donor primitive of page shipping: reintegration asks for the pages
// ChangedPages picks, scrub repair for the pages whose hashes differ. Each
// page is first materialized to the table's newest version (collapsing its
// mod chain, the paper's "only current pages move"), then imaged; a page
// that has already applied ahead of the captured version is imaged as-is.
// Unknown page ids are skipped: the diverged set may name a page the donor
// dropped to empty.
func (e *Engine) PageImages(table int, pages []page.ID) ([]page.Image, error) {
	t, err := e.table(table)
	if err != nil {
		return nil, err
	}
	target := e.MaxVersions().Get(table)
	out := make([]page.Image, 0, len(pages))
	for _, id := range pages {
		p := t.pageAt(id)
		if p == nil {
			continue
		}
		// Best effort: a conflict here just means the page is already
		// newer than the captured target, which is an even fresher image.
		_ = p.Materialize(target)
		out = append(out, p.SnapshotBlocking())
	}
	return out, nil
}

// CorruptPage deterministically flips one bit in one row of the page — the
// scrub chaos injector. The victim row and bit position derive only from
// pick, so a seed replays the exact same damage. The flip bypasses all
// version accounting (the page still reports the same applied version), so
// the divergence is silent until a digest sweep compares state — precisely
// the fault class WAL checksums cannot see.
func (e *Engine) CorruptPage(table int, pg page.ID, pick int64) (page.RowID, error) {
	t, err := e.table(table)
	if err != nil {
		return 0, err
	}
	p := t.pageAt(pg)
	if p == nil {
		return 0, fmt.Errorf("%w: table %d page %d", ErrNoRows, table, pg)
	}
	// Corrupt what a reader would see: collapse the pending mod chain first
	// so the flip lands in current state instead of in a base image a lazy
	// apply would overwrite moments later.
	_ = p.Materialize(e.MaxVersions().Get(table))
	rng := rand.New(rand.NewSource(pick))
	p.LockX()
	defer p.UnlockX()
	rows := p.XRows()
	if rows.Len() == 0 {
		return 0, fmt.Errorf("%w: table %d page %d", ErrNoRows, table, pg)
	}
	// The victim is the nth row in row-id order.
	var (
		rid page.RowID
		row value.Row
	)
	nth, i := rng.Intn(rows.Len()), 0
	rows.All(func(id page.RowID, r value.Row) {
		if i == nth {
			rid, row = id, r
		}
		i++
	})
	if len(row) == 0 {
		return 0, fmt.Errorf("%w: table %d page %d row %d is empty", ErrNoRows, table, pg, rid)
	}
	// Damage a clone, then publish it: stored rows are immutable (readers
	// hold them without copies), and in-process replication shares row
	// backing arrays between engines, so an in-place flip would corrupt the
	// master's copy too and the divergence would be undetectable.
	row = row.Clone()
	ci := rng.Intn(len(row))
	switch v := row[ci]; v.K {
	case value.Int:
		row[ci] = value.NewInt(v.Int() ^ (1 << uint(rng.Intn(63))))
	case value.Float:
		row[ci] = value.NewFloat(v.Float() + 1)
	case value.String:
		if len(v.S) == 0 {
			row[ci].S = "\x01"
			break
		}
		b := []byte(v.S)
		b[rng.Intn(len(b))] ^= 1 << uint(rng.Intn(8))
		row[ci].S = string(b)
	default:
		row[ci] = value.NewInt(1)
	}
	p.XApply(page.RowOp{Kind: page.OpUpdate, Row: rid, Data: row})
	return rid, nil
}

// CorruptRandomRow picks a populated page anywhere in the engine with
// entropy drawn only from seed and corrupts one bit in it via CorruptPage.
// Returns where the damage landed so tests can assert the scrubber finds
// exactly that page.
func (e *Engine) CorruptRandomRow(seed int64) (table int, pg page.ID, rid page.RowID, err error) {
	rng := rand.New(rand.NewSource(seed))
	type cand struct {
		table int
		pg    page.ID
	}
	var cands []cand
	for _, t := range e.allTables() {
		for _, p := range t.pagesSnapshot() {
			if p.RowCount() > 0 {
				cands = append(cands, cand{table: t.id, pg: p.ID()})
			}
		}
	}
	if len(cands) == 0 {
		return 0, 0, 0, ErrNoRows
	}
	c := cands[rng.Intn(len(cands))]
	rid, err = e.CorruptPage(c.table, c.pg, rng.Int63())
	return c.table, c.pg, rid, err
}
