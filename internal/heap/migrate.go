package heap

import (
	"fmt"

	"dmv/internal/page"
	"dmv/internal/vclock"
)

// PageVersionMap records, per table id, the applied version of every page a
// node holds (indexed by page id). A reintegrating node sends this to its
// support slave, which replies with only the pages that changed since —
// pages that may have collapsed long chains of row modifications, making
// page shipping faster on average than log replay (Section 4.4).
type PageVersionMap map[int][]uint64

// PageVersions captures this node's page-version map.
func (e *Engine) PageVersions() PageVersionMap {
	out := make(PageVersionMap)
	for _, t := range e.allTables() {
		pages := t.pagesSnapshot()
		vers := make([]uint64, len(pages))
		for i, pg := range pages {
			vers[i] = pg.Applied()
		}
		out[t.id] = vers
	}
	return out
}

// DeltaSince serves a migration request on a support slave: materialize
// everything up to target, then return images of every page that is newer
// than the requester's recorded version (or that the requester does not have
// at all).
func (e *Engine) DeltaSince(have PageVersionMap, target vclock.Vector) ([]page.Image, error) {
	if err := e.MaterializeAll(target); err != nil {
		return nil, fmt.Errorf("materialize for migration: %w", err)
	}
	var out []page.Image
	for _, t := range e.allTables() {
		theirs := have[t.id]
		for i, pg := range t.pagesSnapshot() {
			var theirVer uint64
			known := i < len(theirs)
			if known {
				theirVer = theirs[i]
			}
			v := pg.Applied()
			if known && v <= theirVer {
				continue
			}
			if !known && v == 0 && pg.RowCount() == 0 {
				continue // empty placeholder neither side needs
			}
			out = append(out, pg.SnapshotBlocking())
		}
	}
	return out, nil
}

// InstallDelta installs shipped page images: the one install path behind
// reintegration and stale refresh (a support slave's changed pages), scrub
// repair (a master's images of diverged pages) and checkpoint restore (every
// page, into a fresh engine). page.XInstall decides per page: an image at or
// above the page's applied version replaces its rows, an older one is
// refused. Row locations and index spans are reconciled page by page, so no
// reader ever finds them emptied for a rebuild.
//
// A reintegrating node calls it after subscribing to the masters'
// replication streams, so any write-set buffered while the migration was in
// flight applies cleanly on top (the per-group version guard in
// ApplyWriteSet skips what the images already cover).
func (e *Engine) InstallDelta(images []page.Image) error {
	for _, img := range images {
		t, err := e.table(img.Table)
		if err != nil {
			return fmt.Errorf("install delta: %w", err)
		}
		t.install(img)
	}
	return nil
}

// install installs one image into its page. Row locations are published
// first: rows never move between pages, so an early entry only leads a
// reader to the page that holds the row. The index spans then change inside
// the page's exclusive latch (the order UpdateTx.Commit uses), so a reader
// that follows a changed entry to the page finds the installed rows, and
// the entries the image keeps are never touched.
func (t *Table) install(img page.Image) {
	pg := t.ensurePage(img.Page, img.CreateVer)
	for rid := range img.Rows {
		t.setLoc(rid, pg)
	}
	indexes := t.allIndexes()
	pg.LockX()
	defer pg.UnlockX()
	installed, prev, replaced := pg.XInstall(img)
	if !installed {
		return
	}
	for _, ix := range indexes {
		ix.reconcile(replaced, img.Rows, prev, img.Version)
	}
	t.bumpVer(img.Version)
}
