package heap

import (
	"slices"

	"dmv/internal/page"
	"dmv/internal/value"
)

// minRowID sorts before every row id, so ikey{key, minRowID} is where the
// entries with key >= key begin; maxRowID sorts after every row id.
const (
	minRowID page.RowID = -1 << 62
	maxRowID page.RowID = 1<<63 - 1
)

// Chunk sizes of an index cursor: the first chunk is small because most
// walks are point probes (LookupEq, a unique-key fetch, a join probe) that
// read one or two entries and stop; each later chunk is scanChunkGrowth
// times larger, up to scanChunkMax, so a long range walk still takes the
// latch once per scanChunkMax entries.
const (
	scanChunkFirst  = 8
	scanChunkGrowth = 4
	scanChunkMax    = 256
)

// IndexCursor walks the entries of one index in key order, as one
// transaction sees them. Its zero value is ready to use: Seek positions it
// and Next walks it. The cursor keeps its chunk buffer across seeks, so one
// that a join level owns allocates nothing per probe.
//
// The index latch is NEVER held while the caller works: the caller
// typically fetches pages, and a committing update transaction holds page
// latches while publishing index entries, so holding the index latch
// across the caller's work would create a classic index->page vs
// page->index deadlock. Entries are therefore read in chunks under a shared
// latch and delivered latch-free. Entries inserted behind the cursor
// between chunks are invisible at the reader's version by construction
// (write-sets are acknowledged before the version is ever assigned to a
// reader).
type IndexCursor struct {
	ix     *Index
	width  int    // the index's key width
	v      uint64 // the version entries are read at
	buf    []ikey // the current chunk, delivered from pos on
	pos    int
	size   int       // the size the current chunk was read at
	more   bool      // the index may hold entries past buf
	resume ikey      // the next chunk starts past this entry
	pad    value.Row // a probe shorter than the key, padded (see start)
	err    error

	// An UpdateTx's own pending entries, sorted: adds are merged into the
	// walk, and committed entries in dels are skipped.
	adds, dels []ikey
	ai, di     int

	// via is a Txn of another type (one that embeds a ReadTx or an UpdateTx
	// to time or count its calls); its chunks are read through its
	// IndexScan, one call per chunk, the first from from.
	via        Txn
	table, idx int
	from       value.Row
}

// Seek positions c before the first entry of index idx of table with key
// >= from (nil from: the first entry of the index) that tx sees: a ReadTx
// sees the entries visible at its version, an UpdateTx the latest ones
// merged with its own uncommitted entries.
func (c *IndexCursor) Seek(tx Txn, table, idx int, from value.Row) error {
	c.reset()
	switch tx := tx.(type) {
	case *ReadTx:
		ix, err := tx.e.index(table, idx)
		if err != nil {
			return err
		}
		c.ix, c.v = ix, tx.verFor(table)
		c.start(from)
	case *UpdateTx:
		ix, err := tx.e.index(table, idx)
		if err != nil {
			return err
		}
		c.ix, c.v = ix, VersionLatest
		c.start(from)
		tx.overlay(c, ix)
	default:
		c.via, c.table, c.idx, c.from = tx, table, idx, from
	}
	c.more = true
	c.fill()
	return c.err
}

// reset ends c's last walk.
func (c *IndexCursor) reset() {
	c.ix, c.via, c.from, c.err = nil, nil, nil, nil
	c.buf, c.pos, c.size, c.more = c.buf[:0], 0, 0, false
	c.adds, c.dels, c.ai, c.di = c.adds[:0], c.dels[:0], 0, 0
}

// start places the walk of c.ix before its first entry whose key is at or
// past from, as CompareRows orders keys against from. A from shorter than
// the key is padded with NULLs, which sort first, under minRowID; a longer
// one is cut to the key's width under maxRowID, past every entry that
// equals its head, which CompareRows puts before the longer from. An empty
// from needs no copy: it starts at the index's own NULLs. Another pad is
// the cursor's and outlives the seek, so a cursor reused for probes
// allocates it once.
func (c *IndexCursor) start(from value.Row) {
	w := c.ix.width
	c.width = w
	switch {
	case len(from) == w:
		c.resume = entry(w, from, minRowID)
	case len(from) == 0:
		c.resume = entry(w, c.ix.nulls, minRowID)
	case len(from) > w:
		c.resume = entry(w, from[:w], maxRowID)
	default:
		c.pad = slices.Grow(c.pad[:0], w)[:w]
		clear(c.pad[copy(c.pad, from):])
		c.resume = entry(w, c.pad, minRowID)
	}
}

// Next returns the next entry. The key belongs to the engine and must not
// be modified. ok is false at the end of the index, or after an error that
// Err reports.
func (c *IndexCursor) Next() (key value.Row, rid page.RowID, ok bool) {
	for {
		for c.pos == len(c.buf) && c.more {
			c.fill()
		}
		done := c.pos == len(c.buf)
		if c.ai < len(c.adds) && (done || compareKeys(c.width, c.adds[c.ai], c.buf[c.pos]) < 0) {
			a := c.adds[c.ai]
			c.ai++
			return a.row(c.width), a.rid, true
		}
		if done {
			return nil, 0, false
		}
		k := c.buf[c.pos]
		c.pos++
		if c.deleted(k) {
			continue
		}
		key = k.row(c.width)
		value.CheckSealed(key)
		return key, k.rid, true
	}
}

// Err returns the error that ended the walk, if any.
func (c *IndexCursor) Err() error { return c.err }

// deleted reports whether the transaction deleted committed entry k. The
// entries arrive in order, so dels is walked once.
func (c *IndexCursor) deleted(k ikey) bool {
	for ; c.di < len(c.dels); c.di++ {
		if d := compareKeys(c.width, c.dels[c.di], k); d >= 0 {
			return d == 0
		}
	}
	return false
}

// fill reads the next chunk of committed entries: the first chunk from
// c.resume on, each later one past the last entry of the chunk before.
// Only a later chunk's first entry is compared with c.resume, since the
// tree's walk compares keys only on its seek path and every entry after
// that one is past the resume key.
func (c *IndexCursor) fill() {
	resumed := len(c.buf) > 0
	if resumed {
		c.resume = c.buf[len(c.buf)-1]
	}
	if c.size == 0 {
		c.size = scanChunkFirst
	} else {
		c.size = min(c.size*scanChunkGrowth, scanChunkMax)
	}
	if cap(c.buf) < c.size {
		c.buf = make([]ikey, 0, c.size)
	}
	c.buf, c.pos = c.buf[:0], 0
	if c.via != nil {
		c.fillVia(resumed)
	} else {
		c.ix.mu.RLock()
		c.ix.tree.Ascend(c.resume, func(k ikey, l lives) bool {
			if resumed {
				resumed = false
				if compareKeys(c.width, k, c.resume) == 0 {
					return true
				}
			}
			if l.visible(c.v) {
				c.buf = append(c.buf, k)
			}
			return len(c.buf) < c.size
		})
		c.ix.mu.RUnlock()
	}
	c.more = c.err == nil && len(c.buf) == c.size
}

// fillVia reads the next chunk through c.via's IndexScan: the first from
// c.from, a later one from c.resume's key, skipping the entries up to
// c.resume. The width is the length of the keys the scan hands out. The
// closure captures copies, not c, so a cursor on its caller's stack stays
// there.
func (c *IndexCursor) fillVia(skip bool) {
	buf, size, resume, w, from := c.buf, c.size, c.resume, c.width, c.from
	if skip {
		from = resume.row(w)
	}
	c.err = c.via.IndexScan(c.table, c.idx, from, func(key value.Row, rid page.RowID) bool {
		w = len(key)
		k := entry(w, key, rid)
		if skip && compareKeys(w, k, resume) <= 0 {
			return true
		}
		skip = false
		buf = append(buf, k)
		return len(buf) < size
	})
	c.buf, c.width = buf, w
}

// overlay loads into c the transaction's pending entries of ix at or past
// c's start, sorted.
func (tx *UpdateTx) overlay(c *IndexCursor, ix *Index) {
	w := ix.width
	cmp := func(a, b ikey) int { return compareKeys(w, a, b) }
	for _, op := range tx.ovl {
		if op.ix != ix {
			continue
		}
		k := ix.entry(op.key, op.rid)
		if cmp(k, c.resume) < 0 {
			continue
		}
		if op.add {
			c.adds = append(c.adds, k)
		} else {
			c.dels = append(c.dels, k)
		}
	}
	slices.SortFunc(c.adds, cmp)
	slices.SortFunc(c.dels, cmp)
}

// TableCursor walks the rows of one table a page at a time, in ascending
// row-id order (page by page, and slot by slot within a page). Its zero
// value is ready to use: Seek positions it and Next walks it. It keeps its
// row buffer across seeks.
//
// For a ReadTx, the cursor copies one page's (rid, row) references at the
// reader's version under page.View's read latch and delivers them after
// releasing it, so no latch is held while the caller works. The rows are
// the stored ones, immutable once published (DESIGN.md §8). For an
// UpdateTx, it latches each page exclusively until commit, as every update
// read does, and delivers copies.
type TableCursor struct {
	e     *Engine
	table int
	v     uint64    // a reader's version
	upd   *UpdateTx // non-nil: the pages are this transaction's to latch
	pages []*page.Page
	next  int      // the next page to read
	rows  []ridRow // the current page's rows, delivered from pos on
	pos   int
	err   error
}

type ridRow struct {
	rid page.RowID
	row value.Row
}

// Seek positions c before the first row of table that tx sees.
func (c *TableCursor) Seek(tx Txn, table int) error {
	clear(c.rows) // drop the last walk's references
	c.rows, c.pos, c.pages, c.next, c.err, c.upd = c.rows[:0], 0, nil, 0, nil, nil
	var t *Table
	var err error
	switch tx := tx.(type) {
	case *ReadTx:
		c.e, c.v = tx.e, tx.verFor(table)
		t, err = tx.e.table(table)
	case *UpdateTx:
		c.e, c.upd = tx.e, tx
		t, err = tx.e.table(table)
	default:
		return c.seekVia(tx, table)
	}
	if err != nil {
		return err
	}
	c.table, c.pages = table, t.pagesSnapshot()
	return nil
}

// seekVia reads a Txn of another type whole through its Scan, which cannot
// stop between pages.
func (c *TableCursor) seekVia(tx Txn, table int) error {
	rows := c.rows
	err := tx.Scan(table, func(rid page.RowID, row value.Row) bool {
		rows = append(rows, ridRow{rid: rid, row: row})
		return true
	})
	c.rows = rows
	return err
}

// Next returns the next row: the stored row for a ReadTx, which must not be
// modified, or a copy for an UpdateTx. ok is false at the end of the table,
// or after an error that Err reports.
func (c *TableCursor) Next() (rid page.RowID, row value.Row, ok bool) {
	for c.pos == len(c.rows) {
		if c.err != nil || c.next == len(c.pages) {
			return 0, nil, false
		}
		c.load(c.pages[c.next])
		c.next++
	}
	r := c.rows[c.pos]
	c.pos++
	if c.upd != nil {
		return r.rid, r.row.Clone(), true // a copy, as in UpdateTx.Fetch
	}
	value.CheckSealed(r.row)
	return r.rid, r.row, true
}

// Err returns the error that ended the walk, if any.
func (c *TableCursor) Err() error { return c.err }

// load copies the references to pg's rows into c.rows.
func (c *TableCursor) load(pg *page.Page) {
	clear(c.rows)
	c.rows, c.pos = c.rows[:0], 0
	if c.upd != nil {
		if c.err = c.upd.lockPage(pg); c.err != nil {
			return
		}
		c.appendRows(pg.XRows())
		return
	}
	if pg.CreateVersion() > c.v {
		return
	}
	c.e.observe(c.table, pg.ID())
	c.err = pg.View(c.v, func(rows page.Rows) error {
		c.appendRows(rows)
		return nil
	})
}

func (c *TableCursor) appendRows(rows page.Rows) {
	c.rows = slices.Grow(c.rows, rows.Len())
	rows.All(func(rid page.RowID, row value.Row) {
		c.rows = append(c.rows, ridRow{rid: rid, row: row})
	})
}
