package heap

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"dmv/internal/page"
	"dmv/internal/value"
	"dmv/internal/vclock"
)

// engineState captures what a refused write-set or image must leave as it
// was: the page directory and versions, the clock, the rows and the index.
func engineState(t *testing.T, e *Engine, tid int) []any {
	t.Helper()
	return []any{e.PageVersions(), e.Clock().Current(), e.MaxVersions(), e.PendingMods(),
		stateAt(t, e, tid, VersionLatest), indexStateAt(t, e, tid, VersionLatest)}
}

// TestApplyWriteSetRefusesForeignRowID checks that a write-set holding a
// record whose row id names another page than the record's is refused
// before any of it applies, the records before the bad one included.
func TestApplyWriteSetRefusesForeignRowID(t *testing.T) {
	_, slaves, tid := buildPair(t, 1, 4) // one full page of four slots
	slave := slaves[0]
	before := engineState(t, slave, tid)
	row := func(id int64) value.Row { return value.Row{value.NewInt(id), value.NewInt(1), value.NewInt(0)} }
	ws := &WriteSet{TxID: 1, Version: vclock.Vector{1}, Tables: []int{tid}, Records: []Record{
		{Table: tid, Page: 1, Op: page.RowOp{Kind: page.OpInsert, Row: page.MakeRowID(1, 0), Data: row(100)}},
		{Table: tid, Page: 1, Op: page.RowOp{Kind: page.OpInsert, Row: page.MakeRowID(2, 0), Data: row(101)}},
	}}
	err := slave.ApplyWriteSet(ws)
	if err == nil || !strings.Contains(err.Error(), "not on page 1") {
		t.Fatalf("ApplyWriteSet = %v, want a refusal naming page 1", err)
	}
	if after := engineState(t, slave, tid); !reflect.DeepEqual(after, before) {
		t.Fatalf("a refused write-set changed the engine:\nbefore %v\nafter  %v", before, after)
	}
}

// TestInstallDeltaRefusesForeignRowID checks that an image holding a row
// whose id names another page is refused, and that no image of the delta
// installs.
func TestInstallDeltaRefusesForeignRowID(t *testing.T) {
	_, slaves, tid := buildPair(t, 1, 8) // two full pages of four slots
	e := slaves[0]
	before := engineState(t, e, tid)
	row := value.Row{value.NewInt(100), value.NewInt(1), value.NewInt(0)}
	images := []page.Image{
		{Table: tid, Page: 0, Version: 5, Rows: map[page.RowID]value.Row{page.MakeRowID(0, 0): row}},
		{Table: tid, Page: 1, Version: 5, Rows: map[page.RowID]value.Row{page.MakeRowID(0, 1): row}},
	}
	err := e.InstallDelta(images)
	if err == nil || !strings.Contains(err.Error(), "not on page 1") {
		t.Fatalf("InstallDelta = %v, want a refusal naming page 1", err)
	}
	if after := engineState(t, e, tid); !reflect.DeepEqual(after, before) {
		t.Fatalf("a refused delta changed the engine:\nbefore %v\nafter  %v", before, after)
	}
}

// TestRowIDNamesSlot checks that a row id is its row's location on the
// master that inserted the row and on a slave that applied its write-set,
// and that a promoted slave's first insert opens a new page with an id no
// earlier row has.
func TestRowIDNamesSlot(t *testing.T) {
	master, slaves, tid := buildPair(t, 1, 0)
	slave := slaves[0]
	const n = 10 // three pages of four slots
	rids := make([]page.RowID, 0, n)
	var last vclock.Vector
	for i := int64(0); i < n; i++ {
		tx := master.BeginUpdate()
		rid, err := tx.Insert(tid, value.Row{value.NewInt(i), value.NewInt(i % 5), value.NewInt(0)})
		if err != nil {
			t.Fatal(err)
		}
		if last, err = tx.Commit(func(ws *WriteSet) error { return slave.ApplyWriteSet(ws) }); err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for _, e := range []*Engine{master, slave} {
		tb, err := e.table(tid)
		if err != nil {
			t.Fatal(err)
		}
		pages := tb.pagesSnapshot()
		if len(pages) != 3 {
			t.Fatalf("%d pages, want 3", len(pages))
		}
		// Where each row sits: the page it is found on, and the slot All
		// walks it at.
		at := map[int64]page.RowID{}
		for _, pg := range pages {
			err := pg.View(last.Get(tid), func(rows page.Rows) error {
				slot := 0
				rows.All(func(rid page.RowID, row value.Row) {
					if rid.Page() != pg.ID() || rid.Slot() < slot {
						t.Errorf("page %d hands out row %d at slot %d", pg.ID(), rid, slot)
					}
					slot = rid.Slot() + 1
					at[row[0].AsInt()] = page.MakeRowID(pg.ID(), rid.Slot())
				})
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for i, rid := range rids {
			if want := page.MakeRowID(page.ID(i/4), i%4); rid != want || at[int64(i)] != want {
				t.Fatalf("row %d: id %d (page %d, slot %d) found at %d, want page %d slot %d",
					i, rid, rid.Page(), rid.Slot(), at[int64(i)], i/4, i%4)
			}
			if row, ok, err := e.BeginRead(last).Fetch(tid, rid); err != nil || !ok || row[0].AsInt() != int64(i) {
				t.Fatalf("fetch row %d by id %d: %v %v %v", i, rid, row, ok, err)
			}
		}
	}

	// The slave is promoted: the page it shares with the master's last
	// inserts is not reused.
	if err := slave.MaterializeAll(last); err != nil {
		t.Fatal(err)
	}
	slave.ResetInsertCursors()
	tx := slave.BeginUpdate()
	rid, err := tx.Insert(tid, value.Row{value.NewInt(n), value.NewInt(0), value.NewInt(0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if rid != page.MakeRowID(3, 0) {
		t.Fatalf("a promoted slave's first insert got id %d (page %d, slot %d), want page 3 slot 0", rid, rid.Page(), rid.Slot())
	}
	for _, old := range rids {
		if old == rid {
			t.Fatalf("a promoted slave reused row id %d", rid)
		}
	}
}

// TestTableCursorRowIDOrder checks that a reader's table cursor hands out
// each page's rows in ascending row-id order, after deletes and inserts
// have reshuffled what the pages hold.
func TestTableCursorRowIDOrder(t *testing.T) {
	master, _, tid := buildPair(t, 0, 40) // ten pages of four slots
	tx := master.BeginUpdate()
	for pk := int64(0); pk < 40; pk += 3 {
		rids, err := tx.LookupEq(tid, 0, value.Row{value.NewInt(pk)})
		if err != nil || len(rids) != 1 {
			t.Fatalf("LookupEq(%d) = %v, %v", pk, rids, err)
		}
		if err := tx.Delete(tid, rids[0]); err != nil {
			t.Fatal(err)
		}
	}
	for pk := int64(100); pk < 110; pk++ {
		if _, err := tx.Insert(tid, value.Row{value.NewInt(pk), value.NewInt(0), value.NewInt(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(nil); err != nil {
		t.Fatal(err)
	}
	var c TableCursor
	if err := c.Seek(master.BeginRead(nil), tid); err != nil {
		t.Fatal(err)
	}
	var got []page.RowID
	for rid, _, ok := c.Next(); ok; rid, _, ok = c.Next() {
		if n := len(got); n > 0 && rid <= got[n-1] {
			t.Fatalf("row %d after row %d: %v", rid, got[n-1], got)
		}
		got = append(got, rid)
	}
	if err := c.Err(); err != nil || len(got) != 40-14+10 {
		t.Fatalf("walked %d rows (err %v), want %d", len(got), err, 40-14+10)
	}
}

// TestPageCapBoundedBySlotBits checks that an engine whose pages would hold
// more slots than a row id can name is refused.
func TestPageCapBoundedBySlotBits(t *testing.T) {
	NewEngine(Options{PageCap: 1 << page.SlotBits})
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "PageCap 65537") {
			t.Fatalf("recovered %v, want a panic naming PageCap 65537", r)
		}
	}()
	NewEngine(Options{PageCap: 1<<page.SlotBits + 1})
	t.Fatal(errors.New("NewEngine accepted PageCap 1<<16 + 1"))
}
