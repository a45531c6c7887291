package heap

import (
	"fmt"
	"slices"

	"dmv/internal/obs"
	"dmv/internal/page"
	"dmv/internal/value"
	"dmv/internal/vclock"
)

// Record is one fine-grained row modification inside a write-set, including
// the before-image of updates and deletes so that replicas can maintain
// their versioned indexes without materializing the page first.
type Record struct {
	Table int
	Page  page.ID
	Op    page.RowOp
	Old   value.Row // before-image (update/delete), nil for insert
}

// WriteSet is the replication unit produced by the master's pre-commit
// (Figure 2 of the paper): every page the transaction modified, encoded as
// row operations, stamped with the version vector the commit produced.
type WriteSet struct {
	TxID    uint64
	Version vclock.Vector
	Tables  []int
	Records []Record
	// Trace is the committing transaction's trace context; it rides the
	// write-set to every replica so buffered-modification application can be
	// recorded as child spans of the originating commit.
	Trace obs.TraceContext
}

// Size estimates the write-set's serialized footprint in bytes — the
// replication-traffic quantity the paper reports. Fixed per-message and
// per-record overheads plus the row images (9 bytes per datum header plus
// string payload), matching what a compact binary encoding would ship.
func (ws *WriteSet) Size() int {
	if ws == nil {
		return 0
	}
	n := 16 + 8*len(ws.Version) + 4*len(ws.Tables)
	for _, rec := range ws.Records {
		n += 16 + rowBytes(rec.Op.Data) + rowBytes(rec.Old)
	}
	return n
}

func rowBytes(r value.Row) int {
	n := 0
	for _, v := range r {
		n += 9 + len(v.S)
	}
	return n
}

// ApplyWriteSet processes a write-set received from a master: it eagerly
// publishes versioned index entries, and enqueues the page modifications for
// lazy application (the paper's hybrid eager-propagation / lazy-application
// scheme). It is idempotent: groups whose version is already materialized
// (duplicate delivery, or state received through page migration) are
// skipped. A write-set with a record whose row id names another page than
// the record's is refused before anything is applied.
//
// Write-sets from one master must be applied in commit order by a single
// goroutine per master (the replication layer guarantees this).
func (e *Engine) ApplyWriteSet(ws *WriteSet) error {
	debugCheckWriteSet(ws)
	for i := range ws.Records {
		if rec := &ws.Records[i]; rec.Op.Row.Page() != rec.Page {
			return fmt.Errorf("apply write-set tx %d: table %d row %d is not on page %d", ws.TxID, rec.Table, rec.Op.Row, rec.Page)
		}
	}
	type pageKey struct {
		table int
		pg    page.ID
	}
	// A page's records need not be adjacent: its group is applied when its
	// first record comes up, from the records at and after that one.
	var doneBuf [8]pageKey
	done := doneBuf[:0]
	for i := range ws.Records {
		k := pageKey{table: ws.Records[i].Table, pg: ws.Records[i].Page}
		if slices.Contains(done, k) {
			continue
		}
		done = append(done, k)
		t, err := e.table(k.table)
		if err != nil {
			return fmt.Errorf("apply write-set tx %d: %w", ws.TxID, err)
		}
		ver := ws.Version.Get(k.table)
		pg := t.ensurePage(k.pg, ver)
		pg.StampCreateVersion(ver)
		if ver <= pg.Applied() {
			continue // already reflected (duplicate or migrated state)
		}
		recs := ws.Records[i:]
		n := 0
		for j := range recs {
			if recs[j].Table == k.table && recs[j].Page == k.pg {
				n++
			}
		}
		ops := make([]page.RowOp, 0, n)
		for j := range recs {
			if rec := &recs[j]; rec.Table == k.table && rec.Page == k.pg {
				ops = append(ops, rec.Op)
				if err := t.applyIndexes(rec, ver); err != nil {
					return err
				}
			}
		}
		pg.Enqueue(page.Mod{Version: ver, Ops: ops, Trace: ws.Trace})
		e.met.modsEnqueued.Add(int64(len(ops)))
		t.bumpVer(ver)
	}
	e.clock.Advance(ws.Version)
	return nil
}

// applyIndexes publishes a write-set record's index entries at version ver,
// ahead of the page modification its page buffers. An inserted or updated
// row's keys are windows onto rec.Op.Data, the row the page publishes when
// it applies the modification.
func (t *Table) applyIndexes(rec *Record, ver uint64) error {
	switch rec.Op.Kind {
	case page.OpInsert:
		for _, ix := range t.allIndexes() {
			if err := ix.addUnchecked(ix.keyOf(rec.Op.Data), rec.Op.Row, ver); err != nil {
				return err
			}
		}
	case page.OpUpdate:
		for _, ix := range t.allIndexes() {
			if !ix.keyChanged(rec.Old, rec.Op.Data) {
				continue
			}
			ix.del(ix.keyOf(rec.Old), rec.Op.Row, ver)
			if err := ix.addUnchecked(ix.keyOf(rec.Op.Data), rec.Op.Row, ver); err != nil {
				return err
			}
		}
	case page.OpDelete:
		for _, ix := range t.allIndexes() {
			ix.del(ix.keyOf(rec.Old), rec.Op.Row, ver)
		}
	}
	return nil
}

// DiscardAbove drops, on every page of every table, buffered modifications
// whose version exceeds the given vector. A scheduler performing master
// fail-over broadcasts this to clean up pre-commit flushes that partially
// completed at a subset of the replicas but were never acknowledged by the
// failed master.
func (e *Engine) DiscardAbove(v vclock.Vector) {
	for _, t := range e.allTables() {
		limit := v.Get(t.id)
		for _, pg := range t.pagesSnapshot() {
			pg.DiscardAbove(limit)
		}
		for _, ix := range t.allIndexes() {
			ix.discardAbove(limit)
		}
		t.lowerVer(limit)
	}
	e.clock.ResetTo(v)
}

// ResetInsertCursors forces fresh page allocation for subsequent inserts; a
// slave promoted to master calls this so it never shares an insert page with
// the failed master's unreplicated state. A fresh page lies past every page
// the directory holds, so the row ids it hands out name no earlier row.
func (e *Engine) ResetInsertCursors() {
	for _, t := range e.allTables() {
		t.allocMu.Lock()
		t.curPage, t.curCount = nil, 0
		t.allocMu.Unlock()
	}
}

// GCIndexes garbage-collects versioned-index history that no reader at or
// above the low-water vector can observe. The cluster runs this periodically
// with the minimum version among active readers. Returns spans removed.
func (e *Engine) GCIndexes(lowWater vclock.Vector) int {
	removed := 0
	for _, t := range e.allTables() {
		lw := lowWater.Get(t.id)
		if lw == 0 {
			continue
		}
		for _, ix := range t.allIndexes() {
			removed += ix.gc(lw)
		}
	}
	return removed
}

// MaterializeAll applies every buffered modification up to the given vector
// on every page (used by a promoted master to bring its state fully up to
// date before accepting update transactions, and by support slaves before
// serving a migration snapshot).
func (e *Engine) MaterializeAll(v vclock.Vector) error {
	for _, t := range e.allTables() {
		target := v.Get(t.id)
		for _, pg := range t.pagesSnapshot() {
			if pg.CreateVersion() > target {
				continue
			}
			err := pg.Materialize(target)
			if err != nil && err != page.ErrVersionConflict {
				return err
			}
		}
	}
	return nil
}

// PendingMods returns the total number of buffered, unapplied modifications
// across all pages (diagnostics; the lazy-vs-eager ablation reports it).
func (e *Engine) PendingMods() int {
	total := 0
	for _, t := range e.allTables() {
		for _, pg := range t.pagesSnapshot() {
			total += pg.PendingLen()
		}
	}
	return total
}

// RowCountAt counts live rows in a table at version v.
func (e *Engine) RowCountAt(table int, v uint64) (int, error) {
	t, err := e.table(table)
	if err != nil {
		return 0, err
	}
	return t.rowCountAt(v)
}
