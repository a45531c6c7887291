package heap

import (
	"fmt"

	"dmv/internal/page"
)

// PageVersion summarizes one page for changed-page selection.
type PageVersion struct {
	Applied  uint64 // version the materialized rows reflect
	Received uint64 // newest version applied or still buffered
	Rows     int    // materialized row count
}

// PageVersionMap records, per table id, a summary of every page a node
// holds (indexed by page id). Reintegration compares the joiner's map with
// its donor's to choose which pages to ship (ChangedPages): only pages that
// changed move, and each may have collapsed a long chain of row
// modifications, making page shipping faster on average than log replay
// (Section 4.4).
type PageVersionMap map[int][]PageVersion

// PageVersions captures this node's page-version map without materializing
// anything: a page's buffered mods show in its Received version.
func (e *Engine) PageVersions() PageVersionMap {
	out := make(PageVersionMap)
	for _, t := range e.allTables() {
		pages := t.pagesSnapshot()
		vers := make([]PageVersion, len(pages))
		for i, pg := range pages {
			vers[i].Applied, vers[i].Received, vers[i].Rows = pg.Versions()
		}
		out[t.id] = vers
	}
	return out
}

// PageSet names pages of one table.
type PageSet struct {
	Table int
	Pages []page.ID
}

// ChangedPages chooses the pages a joiner must fetch from a donor, in
// table-id order (an engine's table ids are dense). A page ships when the
// donor has received a version above the one the joiner has applied (so a
// joiner that buffered a later write-set above a missed one still gets the
// page), or when the joiner's copy is empty at version 0 while the donor's
// holds rows (a placeholder, such as a page a fuzzy checkpoint skipped). A
// page the joiner lacks counts as empty at version 0, so empty never-written
// pages stay where they are.
func ChangedPages(joiner, donor PageVersionMap) []PageSet {
	var out []PageSet
	for id := 0; id < len(donor); id++ {
		theirs := joiner[id]
		var pages []page.ID
		for i, d := range donor[id] {
			var j PageVersion
			if i < len(theirs) {
				j = theirs[i]
			}
			placeholder := j.Applied == 0 && j.Rows == 0 && d.Rows > 0
			if d.Received > j.Applied || placeholder {
				pages = append(pages, page.ID(i))
			}
		}
		if len(pages) > 0 {
			out = append(out, PageSet{Table: id, Pages: pages})
		}
	}
	return out
}

// InstallDelta installs shipped page images: the one install path behind
// reintegration and stale refresh (a support slave's changed pages), scrub
// repair (a master's images of diverged pages) and checkpoint restore (every
// page, into a fresh engine). page.XInstall decides per page: an image at or
// above the page's applied version replaces its rows, an older one is
// refused. Index spans are reconciled page by page, so no reader ever finds
// them emptied for a rebuild. An image holding a row whose id names another
// page is refused, and no image is installed.
//
// A reintegrating node calls it after subscribing to the masters'
// replication streams, so any write-set buffered while the migration was in
// flight applies cleanly on top (the per-group version guard in
// ApplyWriteSet skips what the images already cover).
func (e *Engine) InstallDelta(images []page.Image) error {
	tables := make([]*Table, len(images))
	for i, img := range images {
		t, err := e.table(img.Table)
		if err != nil {
			return fmt.Errorf("install delta: %w", err)
		}
		for rid := range img.Rows {
			if rid.Page() != img.Page {
				return fmt.Errorf("install delta: table %d row %d is not on page %d", img.Table, rid, img.Page)
			}
		}
		tables[i] = t
	}
	for i, img := range images {
		tables[i].install(img)
	}
	return nil
}

// install installs one image into its page. The index spans change inside
// the page's exclusive latch (the order UpdateTx.Commit uses), so a reader
// that follows a changed entry to the page finds the installed rows, and
// the entries the image keeps are never touched.
func (t *Table) install(img page.Image) {
	pg := t.ensurePage(img.Page, img.CreateVer)
	indexes := t.allIndexes()
	pg.LockX()
	defer pg.UnlockX()
	installed, prev, replaced := pg.XInstall(img)
	if !installed {
		return
	}
	// The page's own rows, not the image's: an index key is a window onto
	// the row the page publishes, and the image stays the caller's.
	rows := pg.XRows()
	for _, ix := range indexes {
		ix.reconcile(replaced, rows, prev, img.Version)
	}
	t.bumpVer(img.Version)
}
