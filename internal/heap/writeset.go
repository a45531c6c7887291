package heap

import (
	"fmt"

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
// publishes row locations and versioned index entries, and enqueues the page
// modifications for lazy application (the paper's hybrid eager-propagation /
// lazy-application scheme). It is idempotent: groups whose version is
// already materialized (duplicate delivery, or state received through page
// migration) are skipped.
//
// Write-sets from one master must be applied in commit order by a single
// goroutine per master (the replication layer guarantees this).
func (e *Engine) ApplyWriteSet(ws *WriteSet) error {
	debugCheckWriteSet(ws)
	type groupKey struct {
		table int
		pg    page.ID
	}
	groups := make(map[groupKey][]Record, 4)
	order := make([]groupKey, 0, 4)
	for _, rec := range ws.Records {
		k := groupKey{table: rec.Table, pg: rec.Page}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], rec)
	}
	for _, k := range order {
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
		recs := groups[k]
		ops := make([]page.RowOp, len(recs))
		for i, rec := range recs {
			ops[i] = rec.Op
			switch rec.Op.Kind {
			case page.OpInsert:
				t.setLoc(rec.Op.Row, pg)
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
		}
		pg.Enqueue(page.Mod{Version: ver, Ops: ops, Trace: ws.Trace})
		e.met.modsEnqueued.Add(int64(len(ops)))
		t.bumpVer(ver)
	}
	e.clock.Advance(ws.Version)
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
// the failed master's unreplicated state.
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

// GCRowLocations drops row-location entries for rows that are gone at the
// low-water vector: each page is first materialized to the low-water
// version, then entries pointing at it whose row no longer exists are
// removed. Row-location entries are otherwise retained after deletion so
// stale readers reach the page and fail the version check; below the
// low-water mark no such reader can exist (row ids are never reused, so a
// dropped entry can never be resurrected). Returns entries removed.
func (e *Engine) GCRowLocations(lowWater vclock.Vector) (int, error) {
	removed := 0
	for _, t := range e.allTables() {
		lw := lowWater.Get(t.id)
		if lw == 0 {
			continue
		}
		live := make(map[page.RowID]struct{}, 1024)
		for _, pg := range t.pagesSnapshot() {
			if pg.CreateVersion() > lw {
				// Rows in too-new pages must keep their entries.
				img := pg.SnapshotBlocking()
				for rid := range img.Rows {
					live[rid] = struct{}{}
				}
				continue
			}
			err := pg.View(lw, func(rows map[page.RowID]value.Row) error {
				for rid := range rows {
					live[rid] = struct{}{}
				}
				return nil
			})
			if err == page.ErrVersionConflict {
				// Page already past the low-water mark; its current rows
				// are a superset of what any future reader can see.
				img := pg.SnapshotBlocking()
				for rid := range img.Rows {
					live[rid] = struct{}{}
				}
				continue
			}
			if err != nil {
				return removed, err
			}
		}
		t.rlMu.Lock()
		for rid, pg := range t.rowLoc {
			if _, ok := live[rid]; ok {
				continue
			}
			// The row may still be pending insertion (buffered write-set
			// above the low-water mark): keep entries whose page has
			// unapplied modifications.
			if pg.PendingLen() > 0 {
				continue
			}
			delete(t.rowLoc, rid)
			removed++
		}
		t.rlMu.Unlock()
	}
	return removed, nil
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
