package heap

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dmv/internal/page"
	"dmv/internal/value"
)

// Table is one heap table: a page directory, a row-location map, and
// versioned secondary indexes.
type Table struct {
	id      int
	def     TableDef
	pageCap int

	// page directory: append-only slice of pages.
	dirMu sync.RWMutex
	pages []*page.Page // guarded by dirMu

	// row location: row id -> owning page. Rows never move between pages,
	// so entries are stable once created; they are retained after delete so
	// that stale readers reach the page and fail the version check instead
	// of silently missing the row.
	rlMu   sync.RWMutex
	rowLoc map[page.RowID]*page.Page // guarded by rlMu

	// master-side insert cursor: pages are filled up to pageCap reserved
	// slots, then a new page is allocated.
	allocMu   sync.Mutex
	curPage   *page.Page // guarded by allocMu
	curCount  int        // guarded by allocMu
	nextRowID atomic.Int64

	// maxVer is the highest table version seen (applied, buffered, or
	// committed locally).
	maxVer atomic.Uint64

	idxMu   sync.RWMutex
	indexes []*Index // guarded by idxMu

	// onApply is installed on every page at allocation (metrics and apply
	// spans; nil when disabled). Immutable after newTable.
	onApply func(mods []page.Mod, eager bool)
}

func newTable(id int, def TableDef, pageCap int, onApply func(mods []page.Mod, eager bool)) *Table {
	return &Table{
		id:      id,
		def:     def,
		pageCap: pageCap,
		rowLoc:  make(map[page.RowID]*page.Page, 1024),
		onApply: onApply,
	}
}

func (t *Table) addIndex(def IndexDef) (int, error) {
	for _, c := range def.Cols {
		if c < 0 || c >= len(t.def.Cols) {
			return 0, fmt.Errorf("heap: index %q: bad column ordinal %d", def.Name, c)
		}
	}
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	for _, ix := range t.indexes {
		if ix.def.Name == def.Name {
			return 0, fmt.Errorf("heap: index %q already exists", def.Name)
		}
	}
	id := len(t.indexes)
	t.indexes = append(t.indexes, newIndex(def))
	return id, nil
}

func (t *Table) index(id int) (*Index, error) {
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	if id < 0 || id >= len(t.indexes) {
		return nil, fmt.Errorf("%w: table %s index %d", ErrNoSuchIndex, t.def.Name, id)
	}
	return t.indexes[id], nil
}

// allIndexes returns the table's indexes. The list only grows and never
// rewrites an entry, so the prefix read under the latch is a stable
// snapshot; its capped capacity keeps a caller's append off the shared
// array.
func (t *Table) allIndexes() []*Index {
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	return t.indexes[:len(t.indexes):len(t.indexes)]
}

// pageAt returns the page with the given id, or nil.
func (t *Table) pageAt(id page.ID) *page.Page {
	t.dirMu.RLock()
	defer t.dirMu.RUnlock()
	if int(id) < 0 || int(id) >= len(t.pages) {
		return nil
	}
	return t.pages[id]
}

// pagesSnapshot returns the page directory. Like the index list it only
// grows and never rewrites an entry, so its prefix is a stable snapshot.
func (t *Table) pagesSnapshot() []*page.Page {
	t.dirMu.RLock()
	defer t.dirMu.RUnlock()
	return t.pages[:len(t.pages):len(t.pages)]
}

// ensurePage makes sure the directory contains a page with the given id
// (slaves allocate pages announced in write-sets on demand), creating any
// intermediate pages as empty placeholders.
func (t *Table) ensurePage(id page.ID, createVer uint64) *page.Page {
	t.dirMu.Lock()
	defer t.dirMu.Unlock()
	for int(id) >= len(t.pages) {
		t.pages = append(t.pages, t.newPageLocked(createVer))
	}
	return t.pages[id]
}

// appendPage allocates the next page id (master side).
func (t *Table) appendPage(createVer uint64) *page.Page {
	t.dirMu.Lock()
	defer t.dirMu.Unlock()
	p := t.newPageLocked(createVer)
	t.pages = append(t.pages, p)
	return p
}

// newPageLocked builds a page with the apply hook installed before the page
// becomes reachable. Caller holds dirMu.
func (t *Table) newPageLocked(createVer uint64) *page.Page {
	p := page.New(t.id, page.ID(len(t.pages)), createVer)
	if t.onApply != nil {
		p.SetApplyHook(t.onApply)
	}
	return p
}

func (t *Table) locate(rid page.RowID) *page.Page {
	t.rlMu.RLock()
	defer t.rlMu.RUnlock()
	return t.rowLoc[rid]
}

func (t *Table) setLoc(rid page.RowID, p *page.Page) {
	t.rlMu.Lock()
	t.rowLoc[rid] = p
	t.rlMu.Unlock()
	// Track the master's row-id allocation point so a promoted slave
	// continues the sequence without collision.
	for {
		cur := t.nextRowID.Load()
		if int64(rid) <= cur || t.nextRowID.CompareAndSwap(cur, int64(rid)) {
			return
		}
	}
}

func (t *Table) bumpVer(v uint64) {
	for {
		cur := t.maxVer.Load()
		if v <= cur || t.maxVer.CompareAndSwap(cur, v) {
			return
		}
	}
}

// lowerVer caps maxVer at v (master fail-over discards state above v).
func (t *Table) lowerVer(v uint64) {
	for {
		cur := t.maxVer.Load()
		if cur <= v || t.maxVer.CompareAndSwap(cur, v) {
			return
		}
	}
}

// reserveSlot picks the insert target page for one new row on the master,
// allocating a new page when the current one is full. Newly allocated pages
// carry the create-version sentinel until the first committing transaction
// stamps them (see page.StampCreateVersion).
func (t *Table) reserveSlot() *page.Page {
	t.allocMu.Lock()
	defer t.allocMu.Unlock()
	if t.curPage == nil || t.curCount >= t.pageCap {
		t.curPage = t.appendPage(^uint64(0)) // hidden from scans until stamped
		t.curCount = 0
	}
	t.curCount++
	return t.curPage
}

// load bulk-loads the initial image (version 0).
func (t *Table) load(rows []value.Row) error {
	indexes := t.allIndexes()
	var (
		cur   *page.Page
		count int
	)
	for _, r := range rows {
		row := make(value.Row, len(t.def.Cols))
		for i := range t.def.Cols {
			if i < len(r) {
				row[i] = value.Coerce(r[i], t.def.Cols[i].Type)
			}
		}
		if cur == nil || count >= t.pageCap {
			cur = t.appendPage(0)
			count = 0
		}
		rid := page.RowID(t.nextRowID.Add(1))
		cur.LockX()
		cur.XApply(page.RowOp{Kind: page.OpInsert, Row: rid, Data: row})
		cur.UnlockX()
		count++
		t.setLoc(rid, cur)
		for _, ix := range indexes {
			if err := ix.add(ix.keyOf(row), rid, 0); err != nil {
				return fmt.Errorf("load %s: %w", t.def.Name, err)
			}
		}
	}
	t.allocMu.Lock()
	t.curPage, t.curCount = cur, count
	t.allocMu.Unlock()
	return nil
}

// rowCountAt counts live rows at version v (used by tests and diagnostics).
func (t *Table) rowCountAt(v uint64) (int, error) {
	total := 0
	for _, p := range t.pagesSnapshot() {
		if p.CreateVersion() > v {
			continue
		}
		err := p.View(v, func(rows map[page.RowID]value.Row) error {
			total += len(rows)
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}
