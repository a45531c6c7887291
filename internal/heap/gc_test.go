package heap

import (
	"testing"

	"dmv/internal/page"
	"dmv/internal/value"
	"dmv/internal/vclock"
)

func TestIndexGCRemovesDeadHistory(t *testing.T) {
	master, slaves, tid := buildPair(t, 1, 10)
	slave := slaves[0]

	// Hammer one indexed column so every update creates a dead span.
	var last vclock.Vector
	for i := 0; i < 50; i++ {
		tx := master.BeginUpdate()
		rids, _ := tx.LookupEq(tid, 0, value.Row{value.NewInt(3)})
		row, _, _ := tx.Fetch(tid, rids[0])
		row[1] = value.NewInt(int64(i % 5)) // indexed group column
		if err := tx.Update(tid, rids[0], row); err != nil {
			t.Fatal(err)
		}
		ver, err := tx.Commit(func(ws *WriteSet) error { return slave.ApplyWriteSet(ws) })
		if err != nil {
			t.Fatal(err)
		}
		last = ver
	}

	removedMaster := master.GCIndexes(last)
	removedSlave := slave.GCIndexes(last)
	if removedMaster == 0 || removedSlave == 0 {
		t.Fatalf("gc removed %d/%d spans, want > 0 on both", removedMaster, removedSlave)
	}

	// Correctness after GC: reads at the low-water version still see the
	// exact state, on both master and slave.
	v := last.Get(tid)
	if !equalStates(stateAt(t, master, tid, v), stateAt(t, slave, tid, v)) {
		t.Fatal("states diverged after GC")
	}
	if !equalStates(indexStateAt(t, master, tid, v), indexStateAt(t, slave, tid, v)) {
		t.Fatal("index views diverged after GC")
	}
	// The surviving index exactly matches the live rows.
	liveRows := stateAt(t, master, tid, v)
	idx := indexStateAt(t, master, tid, v)
	if len(idx) != len(liveRows) {
		t.Fatalf("index entries = %d, rows = %d", len(idx), len(liveRows))
	}

	// A second GC finds nothing new.
	if again := master.GCIndexes(last); again != 0 {
		t.Fatalf("second gc removed %d spans", again)
	}
}

func TestIndexGCPreservesVisibleHistory(t *testing.T) {
	master, _, tid := buildPair(t, 0, 5)
	var v5, v10 vclock.Vector
	for i := 1; i <= 10; i++ {
		tx := master.BeginUpdate()
		rids, _ := tx.LookupEq(tid, 0, value.Row{value.NewInt(1)})
		row, _, _ := tx.Fetch(tid, rids[0])
		row[1] = value.NewInt(int64(i % 5))
		if err := tx.Update(tid, rids[0], row); err != nil {
			t.Fatal(err)
		}
		ver, err := tx.Commit(nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 5 {
			v5 = ver
		}
		if i == 10 {
			v10 = ver
		}
	}
	before10 := indexStateAt(t, master, tid, v10.Get(tid))
	// GC at the OLD low-water v5: history visible at >= v5 must survive.
	master.GCIndexes(v5)
	after10 := indexStateAt(t, master, tid, v10.Get(tid))
	if !equalStates(before10, after10) {
		t.Fatalf("GC at low-water v5 corrupted the v10 view: %v vs %v", before10, after10)
	}
}

// TestRowLocationGC checks that a row id alone finds its row through the
// collection pass the cluster runs at the reader low-water mark: a row id
// names its page and slot, so there is no location table to collect, and
// after half the rows are deleted and index history is collected the
// survivors resolve on master and slave and the deleted rows do not.
func TestRowLocationGC(t *testing.T) {
	master, slaves, tid := buildPair(t, 1, 20)
	slave := slaves[0]

	// Delete half the preloaded rows, replicating to the slave.
	var last vclock.Vector
	deleted := make([]page.RowID, 0, 10)
	for i := 0; i < 10; i++ {
		tx := master.BeginUpdate()
		rids, _ := tx.LookupEq(tid, 0, value.Row{value.NewInt(int64(i))})
		if len(rids) != 1 {
			t.Fatalf("pk %d rids = %d", i, len(rids))
		}
		if err := tx.Delete(tid, rids[0]); err != nil {
			t.Fatal(err)
		}
		ver, err := tx.Commit(func(ws *WriteSet) error { return slave.ApplyWriteSet(ws) })
		if err != nil {
			t.Fatal(err)
		}
		deleted = append(deleted, rids[0])
		last = ver
	}

	for _, e := range []*Engine{master, slave} {
		// Materialize so the slave has applied the deletes, then collect.
		if err := e.MaterializeAll(last); err != nil {
			t.Fatal(err)
		}
		if removed := e.GCIndexes(last); removed == 0 {
			t.Fatal("gc removed no index history of the deleted rows")
		}
		rtx := e.BeginRead(last)
		for pk := int64(10); pk < 20; pk++ {
			rids, _ := rtx.LookupEq(tid, 0, value.Row{value.NewInt(pk)})
			if len(rids) != 1 {
				t.Fatalf("surviving row %d lost: %d rids", pk, len(rids))
			}
			if row, ok, err := rtx.Fetch(tid, rids[0]); err != nil || !ok || row[0].AsInt() != pk {
				t.Fatalf("fetch survivor %d: %v %v %v", pk, row, ok, err)
			}
		}
		for _, rid := range deleted {
			if row, ok, err := rtx.Fetch(tid, rid); err != nil || ok {
				t.Fatalf("deleted row %d fetched: %v %v %v", rid, row, ok, err)
			}
		}
		// Idempotent.
		if again := e.GCIndexes(last); again != 0 {
			t.Fatalf("second gc removed %d", again)
		}
	}
}

// TestRowLocationGCKeepsPendingInserts checks that a slave resolves an
// insert it has buffered but not applied, also after collecting at the
// insert's version.
func TestRowLocationGCKeepsPendingInserts(t *testing.T) {
	master, slaves, tid := buildPair(t, 1, 4)
	slave := slaves[0]
	// Insert a row; the slave buffers it lazily (not materialized).
	tx := master.BeginUpdate()
	if _, err := tx.Insert(tid, value.Row{value.NewInt(500), value.NewInt(1), value.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	ver, err := tx.Commit(func(ws *WriteSet) error { return slave.ApplyWriteSet(ws) })
	if err != nil {
		t.Fatal(err)
	}
	if slave.PendingMods() == 0 {
		t.Fatal("the slave applied the insert eagerly")
	}
	// Collect at the new low-water on the SLAVE without materializing.
	slave.GCIndexes(ver)
	rtx := slave.BeginRead(ver)
	rids, _ := rtx.LookupEq(tid, 0, value.Row{value.NewInt(500)})
	if len(rids) != 1 {
		t.Fatalf("rids = %d", len(rids))
	}
	row, ok, err := rtx.Fetch(tid, rids[0])
	if err != nil || !ok || row[0].AsInt() != 500 {
		t.Fatalf("buffered insert not found: %v %v (%v)", ok, err, row)
	}
}
