package heap

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"dmv/internal/obs"
	"dmv/internal/page"
	"dmv/internal/value"
	"dmv/internal/vclock"
)

// Txn is the storage-transaction interface consumed by the SQL executor.
// ReadTx and UpdateTx implement it.
type Txn interface {
	// Engine returns the owning engine (catalog access).
	Engine() *Engine
	// ReadOnly reports whether mutations are allowed.
	ReadOnly() bool
	// Fetch returns the row with the given id, if it exists in this
	// transaction's view. A ReadTx returns the stored row: it belongs to
	// the engine and must not be modified. An UpdateTx returns a private
	// copy the caller may modify and pass to Update.
	Fetch(table int, rid page.RowID) (value.Row, bool, error)
	// Scan iterates all rows of the table until fn returns false, over a
	// TableCursor. Rows are owned as for Fetch: stored rows from a ReadTx,
	// copies from an UpdateTx. The executor walks a TableCursor itself;
	// Scan stays for a Txn that decorates another (the benchmark's
	// statement-replay probe), which a cursor reads through it.
	Scan(table int, fn func(rid page.RowID, row value.Row) bool) error
	// IndexScan iterates index entries with key >= from (nil = all) in key
	// order until fn returns false, over an IndexCursor. Every key fn
	// receives belongs to the engine and must not be modified. It stays for
	// decorators, as Scan does.
	IndexScan(table, idx int, from value.Row, fn func(key value.Row, rid page.RowID) bool) error
	// LookupEq returns the row ids whose index key equals key.
	LookupEq(table, idx int, key value.Row) ([]page.RowID, error)
	// Insert adds a row, returning its id. It takes ownership of row,
	// whether or not it succeeds: a row of the table's width is coerced to
	// the column types in place and becomes the row the page publishes, so
	// the caller must not write into it again. A row of another width is
	// copied.
	Insert(table int, row value.Row) (page.RowID, error)
	// Update replaces the row with the given id, taking ownership of row
	// as Insert does. An UpdateTx's Fetch returns a private copy, so a
	// read-modify-write passes the fetched row back.
	Update(table int, rid page.RowID, row value.Row) error
	// Delete removes the row with the given id.
	Delete(table int, rid page.RowID) error
}

// compile-time interface checks.
var (
	_ Txn = (*ReadTx)(nil)
	_ Txn = (*UpdateTx)(nil)
)

// ---------------------------------------------------------------------------
// Read-only transactions
// ---------------------------------------------------------------------------

// ReadTx is a read-only transaction pinned to a version vector. It takes no
// transaction-duration locks: every page it touches is materialized at the
// assigned version on demand. A nil vector means "latest" (stand-alone
// operation).
type ReadTx struct {
	e *Engine
	v vclock.Vector
}

// BeginRead starts a read-only transaction at version vector v (nil =
// latest materialized state).
func (e *Engine) BeginRead(v vclock.Vector) *ReadTx {
	return &ReadTx{e: e, v: v}
}

// Engine implements Txn.
func (tx *ReadTx) Engine() *Engine { return tx.e }

// ReadOnly implements Txn.
func (tx *ReadTx) ReadOnly() bool { return true }

// Version returns the transaction's assigned vector (nil = latest).
func (tx *ReadTx) Version() vclock.Vector { return tx.v }

func (tx *ReadTx) verFor(table int) uint64 {
	if tx.v == nil {
		return VersionLatest
	}
	return tx.v.Get(table)
}

// Fetch implements Txn.
func (tx *ReadTx) Fetch(table int, rid page.RowID) (value.Row, bool, error) {
	t, err := tx.e.table(table)
	if err != nil {
		return nil, false, err
	}
	pg := t.locate(rid)
	if pg == nil {
		return nil, false, nil
	}
	tx.e.observe(table, pg.ID())
	return pg.Get(rid, tx.verFor(table))
}

// Scan implements Txn.
func (tx *ReadTx) Scan(table int, fn func(rid page.RowID, row value.Row) bool) error {
	return scan(tx, table, fn)
}

// IndexScan implements Txn.
func (tx *ReadTx) IndexScan(table, idx int, from value.Row, fn func(key value.Row, rid page.RowID) bool) error {
	return indexScan(tx, table, idx, from, fn)
}

// LookupEq implements Txn.
func (tx *ReadTx) LookupEq(table, idx int, key value.Row) ([]page.RowID, error) {
	return lookupEq(tx, table, idx, key)
}

// scan runs Scan for a ReadTx or an UpdateTx over a TableCursor.
func scan(tx Txn, table int, fn func(rid page.RowID, row value.Row) bool) error {
	var c TableCursor
	if err := c.Seek(tx, table); err != nil {
		return err
	}
	for rid, row, ok := c.Next(); ok; rid, row, ok = c.Next() {
		if !fn(rid, row) {
			return nil
		}
	}
	return c.Err()
}

// indexScan runs IndexScan for a ReadTx or an UpdateTx over an IndexCursor.
func indexScan(tx Txn, table, idx int, from value.Row, fn func(key value.Row, rid page.RowID) bool) error {
	var c IndexCursor
	if err := c.Seek(tx, table, idx, from); err != nil {
		return err
	}
	for key, rid, ok := c.Next(); ok; key, rid, ok = c.Next() {
		if !fn(key, rid) {
			return nil
		}
	}
	return c.Err()
}

// lookupEq collects the row ids whose index key equals key exactly.
func lookupEq(tx Txn, table, idx int, key value.Row) ([]page.RowID, error) {
	var c IndexCursor
	if err := c.Seek(tx, table, idx, key); err != nil {
		return nil, err
	}
	var out []page.RowID
	for k, rid, ok := c.Next(); ok && value.CompareRows(k, key) == 0; k, rid, ok = c.Next() {
		out = append(out, rid)
	}
	return out, c.Err()
}

// Insert implements Txn (always fails: read-only).
func (tx *ReadTx) Insert(int, value.Row) (page.RowID, error) { return 0, ErrReadOnly }

// Update implements Txn (always fails: read-only).
func (tx *ReadTx) Update(int, page.RowID, value.Row) error { return ErrReadOnly }

// Delete implements Txn (always fails: read-only).
func (tx *ReadTx) Delete(int, page.RowID) error { return ErrReadOnly }

// ---------------------------------------------------------------------------
// Update transactions
// ---------------------------------------------------------------------------

type idxOp struct {
	table int
	ix    *Index
	key   value.Row
	rid   page.RowID
	add   bool
}

// UpdateTx is an update transaction executing on a master database under
// strict two-phase page locking. It must be used by a single goroutine.
// Its write-set records are also its undo log: Commit broadcasts them and
// Rollback replays them backwards from their before-images.
type UpdateTx struct {
	e      *Engine
	id     uint64
	locked map[*page.Page]struct{}
	order  []*page.Page
	recs   []Record
	ovl    []idxOp
	done   bool
	trace  obs.TraceContext
}

// SetTrace attaches the transaction's trace context; Commit stamps it into
// the broadcast write-set so replicas record their apply work as child
// spans. Call before Commit, from the transaction's own goroutine.
func (tx *UpdateTx) SetTrace(tc obs.TraceContext) {
	if tx == nil {
		return
	}
	tx.trace = tc
}

// BeginUpdate starts an update transaction.
func (e *Engine) BeginUpdate() *UpdateTx {
	return &UpdateTx{
		e:      e,
		id:     e.nextTxID(),
		locked: make(map[*page.Page]struct{}, 8),
	}
}

// Engine implements Txn.
func (tx *UpdateTx) Engine() *Engine { return tx.e }

// ReadOnly implements Txn.
func (tx *UpdateTx) ReadOnly() bool { return false }

// lockPage acquires (or re-enters) the exclusive latch on pg, bounded by the
// engine lock timeout. Timeouts resolve deadlocks: the transaction aborts
// and the caller retries.
func (tx *UpdateTx) lockPage(pg *page.Page) error {
	if tx.done {
		return ErrTxDone
	}
	if _, held := tx.locked[pg]; held {
		return nil
	}
	if !pg.TryLockX() {
		start := time.Now()
		deadline := start.Add(tx.e.opts.LockTimeout)
		for {
			time.Sleep(20 * time.Microsecond)
			if pg.TryLockX() {
				break
			}
			if time.Now().After(deadline) {
				tx.e.met.lockWaitUS.ObserveSince(start)
				return fmt.Errorf("%w (tx %d, %s)", ErrLockTimeout, tx.id, pg)
			}
		}
		tx.e.met.lockWaitUS.ObserveSince(start)
	}
	tx.locked[pg] = struct{}{}
	tx.order = append(tx.order, pg)
	tx.e.observe(pg.Table(), pg.ID())
	return nil
}

func (tx *UpdateTx) unlockAll() {
	for i := len(tx.order) - 1; i >= 0; i-- {
		tx.order[i].UnlockX()
	}
	tx.order = nil
	tx.locked = map[*page.Page]struct{}{}
}

// Fetch implements Txn: reads the latest state under an exclusive page
// latch held to commit (the transaction sees its own writes).
func (tx *UpdateTx) Fetch(table int, rid page.RowID) (value.Row, bool, error) {
	t, err := tx.e.table(table)
	if err != nil {
		return nil, false, err
	}
	pg := t.locate(rid)
	if pg == nil {
		return nil, false, nil
	}
	if err := tx.lockPage(pg); err != nil {
		return nil, false, err
	}
	row, ok := pg.XRows().Get(rid)
	if !ok {
		return nil, false, nil
	}
	// A copy, unlike ReadTx: update callers (exec's UPDATE, read-modify-
	// write tests) change the fetched row and write it back.
	return row.Clone(), true, nil
}

// Scan implements Txn: locks every page of the table (a serializable table
// scan; the TPC-W update transactions never do this on large tables).
func (tx *UpdateTx) Scan(table int, fn func(rid page.RowID, row value.Row) bool) error {
	return scan(tx, table, fn)
}

// IndexScan implements Txn: merges the committed index state (latest
// versions) with this transaction's uncommitted overlay.
func (tx *UpdateTx) IndexScan(table, idx int, from value.Row, fn func(key value.Row, rid page.RowID) bool) error {
	return indexScan(tx, table, idx, from, fn)
}

// LookupEq implements Txn.
func (tx *UpdateTx) LookupEq(table, idx int, key value.Row) ([]page.RowID, error) {
	return lookupEq(tx, table, idx, key)
}

// publishable returns row coerced to t's column types, ready for a page to
// publish. A row of the table's width is the caller's to give away (Insert
// and Update take ownership), so it is coerced in place, and a value is
// written only where coercion changes its kind; a row of another width is
// copied into a fresh one, cut or padded with NULLs.
func publishable(t *Table, row value.Row) value.Row {
	cols := t.def.Cols
	if len(row) != len(cols) {
		out := make(value.Row, len(cols))
		copy(out, row)
		row = out
	}
	for i, c := range cols {
		if v := value.Coerce(row[i], c.Type); v.K != row[i].K {
			row[i] = v
		}
	}
	return row
}

// checkUnique verifies that no live row other than excludeRid carries key in
// the unique index ix, taking the transaction's own overlay into account.
func (tx *UpdateTx) checkUnique(table, idxOrd int, ix *Index, key value.Row, excludeRid page.RowID) error {
	var c IndexCursor
	if err := c.Seek(tx, table, idxOrd, key); err != nil {
		return err
	}
	for k, rid, ok := c.Next(); ok && value.CompareRows(k, key) == 0; k, rid, ok = c.Next() {
		if rid != excludeRid {
			return fmt.Errorf("%w: index %s key %v", ErrDuplicateKey, ix.def.Name, key)
		}
	}
	return c.Err()
}

// Insert implements Txn.
func (tx *UpdateTx) Insert(table int, row value.Row) (page.RowID, error) {
	if tx.done {
		return 0, ErrTxDone
	}
	t, err := tx.e.table(table)
	if err != nil {
		return 0, err
	}
	r := publishable(t, row)
	indexes := t.allIndexes()
	for ord, ix := range indexes {
		if !ix.def.Unique {
			continue
		}
		// The row has no id yet, so no live row is excluded: minRowID
		// names no row.
		if err := tx.checkUnique(table, ord, ix, ix.keyOf(r), minRowID); err != nil {
			return 0, err
		}
	}
	pg, rid := t.reserveSlot()
	if err := tx.lockPage(pg); err != nil {
		return 0, err
	}
	pg.XApply(page.RowOp{Kind: page.OpInsert, Row: rid, Data: r})
	tx.recs = append(tx.recs, Record{
		Table: table,
		Page:  pg.ID(),
		Op:    page.RowOp{Kind: page.OpInsert, Row: rid, Data: r},
	})
	for _, ix := range indexes {
		tx.ovl = append(tx.ovl, idxOp{table: table, ix: ix, key: ix.keyOf(r), rid: rid, add: true})
	}
	return rid, nil
}

// Update implements Txn.
func (tx *UpdateTx) Update(table int, rid page.RowID, row value.Row) error {
	if tx.done {
		return ErrTxDone
	}
	t, err := tx.e.table(table)
	if err != nil {
		return err
	}
	pg := t.locate(rid)
	if pg == nil {
		return fmt.Errorf("%w: table %s row %d", ErrRowNotFound, t.def.Name, rid)
	}
	if err := tx.lockPage(pg); err != nil {
		return err
	}
	before, ok := pg.XRows().Get(rid)
	if !ok {
		return fmt.Errorf("%w: table %s row %d", ErrRowNotFound, t.def.Name, rid)
	}
	r := publishable(t, row)
	indexes := t.allIndexes()
	for ord, ix := range indexes {
		if !ix.def.Unique || !ix.keyChanged(before, r) {
			continue
		}
		if err := tx.checkUnique(table, ord, ix, ix.keyOf(r), rid); err != nil {
			return err
		}
	}
	// The before-image stays a copy: it leaves the page in the write-set
	// (Record.Old, read by every replica and the persistence tier) and in
	// Rollback's before-image, where the seal checks on the read path do not
	// reach.
	beforeCopy := before.Clone()
	pg.XApply(page.RowOp{Kind: page.OpUpdate, Row: rid, Data: r})
	tx.recs = append(tx.recs, Record{
		Table: table,
		Page:  pg.ID(),
		Op:    page.RowOp{Kind: page.OpUpdate, Row: rid, Data: r},
		Old:   beforeCopy,
	})
	for _, ix := range indexes {
		if !ix.keyChanged(beforeCopy, r) {
			continue
		}
		tx.ovl = append(tx.ovl,
			idxOp{table: table, ix: ix, key: ix.keyOf(beforeCopy), rid: rid, add: false},
			idxOp{table: table, ix: ix, key: ix.keyOf(r), rid: rid, add: true})
	}
	return nil
}

// Delete implements Txn.
func (tx *UpdateTx) Delete(table int, rid page.RowID) error {
	if tx.done {
		return ErrTxDone
	}
	t, err := tx.e.table(table)
	if err != nil {
		return err
	}
	pg := t.locate(rid)
	if pg == nil {
		return fmt.Errorf("%w: table %s row %d", ErrRowNotFound, t.def.Name, rid)
	}
	if err := tx.lockPage(pg); err != nil {
		return err
	}
	before, ok := pg.XRows().Get(rid)
	if !ok {
		return fmt.Errorf("%w: table %s row %d", ErrRowNotFound, t.def.Name, rid)
	}
	beforeCopy := before.Clone() // a copy, as in Update
	pg.XApply(page.RowOp{Kind: page.OpDelete, Row: rid})
	tx.recs = append(tx.recs, Record{
		Table: table,
		Page:  pg.ID(),
		Op:    page.RowOp{Kind: page.OpDelete, Row: rid},
		Old:   beforeCopy,
	})
	for _, ix := range t.allIndexes() {
		tx.ovl = append(tx.ovl, idxOp{table: table, ix: ix, key: ix.keyOf(beforeCopy), rid: rid, add: false})
	}
	return nil
}

// Commit finishes the transaction, implementing the master pre-commit of
// Figure 2 in the paper: tick the version vector for the written tables,
// stamp the modified pages, publish the index entries, invoke broadcast with
// the write-set (the replication layer sends it to every replica and waits
// for acknowledgments), then release all page locks.
//
// broadcast may be nil (stand-alone operation). The returned write-set
// version is the new DBVersion the master piggybacks on its commit reply.
func (tx *UpdateTx) Commit(broadcast func(*WriteSet) error) (vclock.Vector, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	if len(tx.recs) == 0 {
		tx.done = true
		tx.unlockAll()
		return nil, nil
	}
	tables := make([]int, 0, 4)
	for _, rec := range tx.recs {
		if !slices.Contains(tables, rec.Table) {
			tables = append(tables, rec.Table)
		}
	}
	sort.Ints(tables)
	ver := tx.e.clock.Tick(tables)

	// Stamp modified pages with their table's new version. Both stamps are
	// idempotent, so a page written by several records is stamped again.
	for _, rec := range tx.recs {
		if pg := tx.recPage(rec); pg != nil {
			v := ver.Get(rec.Table)
			pg.XStamp(v)
			pg.StampCreateVersion(v)
		}
	}
	for _, tid := range tables {
		if t, err := tx.e.table(tid); err == nil {
			t.bumpVer(ver.Get(tid))
		}
	}
	// Publish index entries at the commit version.
	for _, op := range tx.ovl {
		v := ver.Get(op.table)
		if op.add {
			// Uniqueness was validated at execution time under 2PL.
			if err := op.ix.addUnchecked(op.key, op.rid, v); err != nil {
				return nil, err
			}
		} else {
			op.ix.del(op.key, op.rid, v)
		}
	}
	ws := &WriteSet{TxID: tx.id, Version: ver, Tables: tables, Records: tx.recs, Trace: tx.trace}
	debugSealWriteSet(ws)
	var bErr error
	if broadcast != nil {
		bErr = broadcast(ws)
	}
	if tx.e.opts.CommitDelay != nil {
		tx.e.opts.CommitDelay()
	}
	tx.done = true
	tx.unlockAll()
	tx.e.met.commits.Inc()
	tx.e.met.wsRecords.Add(int64(len(ws.Records)))
	if bErr != nil {
		return ver, fmt.Errorf("broadcast write-set: %w", bErr)
	}
	return ver, nil
}

// recPage returns the page a write-set record of this transaction modified.
func (tx *UpdateTx) recPage(rec Record) *page.Page {
	t, err := tx.e.table(rec.Table)
	if err != nil {
		return nil
	}
	return t.pageAt(rec.Page)
}

// Rollback undoes every modification, replaying the write-set backwards
// from its before-images, and releases all locks.
func (tx *UpdateTx) Rollback() error {
	if tx.done {
		return nil
	}
	for i := len(tx.recs) - 1; i >= 0; i-- {
		rec := tx.recs[i]
		pg := tx.recPage(rec)
		if pg == nil {
			continue
		}
		switch rec.Op.Kind {
		case page.OpInsert:
			pg.XApply(page.RowOp{Kind: page.OpDelete, Row: rec.Op.Row})
		case page.OpUpdate, page.OpDelete:
			pg.XApply(page.RowOp{Kind: page.OpInsert, Row: rec.Op.Row, Data: rec.Old})
		}
	}
	tx.recs = nil
	tx.ovl = nil
	tx.done = true
	tx.unlockAll()
	return nil
}
