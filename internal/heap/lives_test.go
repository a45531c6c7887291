package heap

import (
	"fmt"
	"slices"
	"testing"

	"dmv/internal/page"
	"dmv/internal/value"
)

// spans lists l's spans in order.
func (l *lives) spans() []span {
	var out []span
	for ; l != nil; l = l.next {
		out = append(out, l.s)
	}
	return out
}

// refIndex is the reference model of an Index's history: each (key, rid)
// pair's spans in a slice, with the rules the index keeps in its own
// layout. A pair left with no span is absent.
type refIndex map[refPair][]span

type refPair struct {
	key string
	rid page.RowID
}

func pairOf(key value.Row, rid page.RowID) refPair { return refPair{fmt.Sprint(key), rid} }

func (m refIndex) add(key value.Row, rid page.RowID, ver uint64) {
	p := pairOf(key, rid)
	for _, s := range m[p] {
		if s.del == 0 {
			return
		}
	}
	m[p] = append(m[p], span{add: ver})
}

func (m refIndex) del(key value.Row, rid page.RowID, ver uint64) {
	spans := m[pairOf(key, rid)]
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].del == 0 {
			spans[i].del = ver
			return
		}
	}
}

func (m refIndex) visible(p refPair, v uint64) bool {
	for _, s := range m[p] {
		if s.covers(v) {
			return true
		}
	}
	return false
}

// filter keeps the spans keep returns true for and counts the others.
func (m refIndex) filter(keep func(*span) bool) int {
	dropped := 0
	for p, spans := range m {
		var kept []span
		for _, s := range spans {
			if keep(&s) {
				kept = append(kept, s)
			} else {
				dropped++
			}
		}
		if len(kept) == 0 {
			delete(m, p)
		} else {
			m[p] = kept
		}
	}
	return dropped
}

func (m refIndex) discardAbove(v uint64) {
	m.filter(func(s *span) bool {
		if s.del > v {
			s.del = 0
		}
		return s.add <= v
	})
}

func (m refIndex) gc(lw uint64) int {
	return m.filter(func(s *span) bool { return s.del == 0 || s.del > lw })
}

func (m refIndex) reconcile(ix *Index, old, img page.Rows, prev, v uint64) {
	old.All(func(rid page.RowID, row value.Row) {
		if want, kept := img.Get(rid); kept && !ix.keyChanged(row, want) {
			return
		}
		for i, s := range m[pairOf(ix.keyOf(row), rid)] {
			if s.covers(v) {
				m[pairOf(ix.keyOf(row), rid)][i].del = v
			}
		}
	})
	img.All(func(rid page.RowID, row value.Row) {
		p := pairOf(ix.keyOf(row), rid)
		if m.visible(p, v) {
			return
		}
		var next uint64
		for _, s := range m[p] {
			if s.add > v && (next == 0 || s.add < next) {
				next = s.add
			}
		}
		m[p] = append(m[p], span{add: prev, del: next})
	})
}

// match fails t unless ix holds exactly the pairs and spans of m, and
// shows each pair at the same versions up to maxV.
func (m refIndex) match(t *testing.T, ix *Index, maxV uint64, what string) {
	t.Helper()
	got := make(map[refPair][]span)
	ix.tree.AscendAll(func(k ikey, l lives) bool {
		p := refPair{fmt.Sprint(k.key), k.rid}
		got[p] = l.spans()
		for v := uint64(0); v <= maxV; v++ {
			if l.visible(v) != m.visible(p, v) {
				t.Fatalf("%s: %v visible at %d is %v, model says %v", what, p, v, l.visible(v), m.visible(p, v))
			}
		}
		return true
	})
	if len(got) != len(m) {
		t.Fatalf("%s: index holds %d pairs %v, model %d %v", what, len(got), got, len(m), m)
	}
	for p, want := range m {
		if !slices.Equal(got[p], want) {
			t.Fatalf("%s: %v has spans %v, model %v", what, p, got[p], want)
		}
	}
}

// keyChangeFixture builds, in ix and m, the history of row 1 of a table
// (id, title) indexed on title, whose title goes A, B, A, B, A at versions
// 1 to 5, beside row 2, which keeps title A from version 1. (A, 1) lives
// three times and (B, 1) twice. It returns each version's row 1.
func keyChangeFixture(t *testing.T) (*Index, refIndex, []value.Row) {
	t.Helper()
	ix := newIndex(IndexDef{Name: "ix_title", Cols: []int{1}})
	m := refIndex{}
	rows := []value.Row{nil}
	for v, title := range []string{"A", "B", "A", "B", "A"} {
		ver := uint64(v + 1)
		row := value.Row{value.NewInt(1), value.NewString(title)}
		if prev := rows[len(rows)-1]; prev != nil {
			ix.del(ix.keyOf(prev), 1, ver)
			m.del(ix.keyOf(prev), 1, ver)
		}
		if err := ix.addUnchecked(ix.keyOf(row), 1, ver); err != nil {
			t.Fatal(err)
		}
		m.add(ix.keyOf(row), 1, ver)
		rows = append(rows, row)
	}
	other := value.Row{value.NewInt(2), value.NewString("A")}
	if err := ix.addUnchecked(ix.keyOf(other), 2, 1); err != nil {
		t.Fatal(err)
	}
	m.add(ix.keyOf(other), 2, 1)
	return ix, m, rows
}

// TestKeyChangeBackAndForth checks the visibility of a pair whose row's key
// goes A, B, A, B, A at every version, against the reference model.
func TestKeyChangeBackAndForth(t *testing.T) {
	ix, m, _ := keyChangeFixture(t)
	m.match(t, ix, 7, "after A-B-A-B-A")
	a := value.Row{value.NewString("A")}
	for v, want := range []bool{false, true, false, true, false, true, true} {
		var c IndexCursor
		seekIndex(&c, ix, uint64(v), a)
		var rids []page.RowID
		for key, rid, ok := c.Next(); ok && value.CompareRows(key, a) == 0; key, rid, ok = c.Next() {
			rids = append(rids, rid)
		}
		if got := slices.Contains(rids, 1); got != want {
			t.Fatalf("a cursor at version %d finds row 1 under A: %v, want %v (rows %v)", v, got, want, rids)
		}
	}
}

// TestMultiLifeHistory runs discardAbove, gc and reconcile on entries with
// several lives, each from a fresh fixture, against the reference model.
func TestMultiLifeHistory(t *testing.T) {
	for v := uint64(0); v <= 6; v++ {
		ix, m, _ := keyChangeFixture(t)
		ix.discardAbove(v)
		m.discardAbove(v)
		m.match(t, ix, 7, fmt.Sprintf("discardAbove(%d)", v))
	}
	for lw := uint64(0); lw <= 6; lw++ {
		ix, m, _ := keyChangeFixture(t)
		got, want := ix.gc(lw), m.gc(lw)
		if got != want {
			t.Fatalf("gc(%d) removed %d spans, model %d", lw, got, want)
		}
		m.match(t, ix, 7, fmt.Sprintf("gc(%d)", lw))
		if ix.gc(lw) != 0 {
			t.Fatalf("a second gc(%d) removed spans", lw)
		}
	}
	// An image that gives row 1 each title, installed at each version over
	// the row that version holds: the pair it drops closes, the pair it
	// shows opens from prev up to that pair's next life.
	for v := uint64(1); v <= 6; v++ {
		for _, title := range []string{"A", "B", "C"} {
			ix, m, rows := keyChangeFixture(t)
			pg := page.New(0, 0, 4, 0)
			pg.LockX()
			pg.XApply(page.RowOp{Kind: page.OpInsert, Row: 1, Data: rows[min(v, 5)]})
			_, _, old := pg.XInstall(page.Image{Version: v, Rows: map[page.RowID]value.Row{1: {value.NewInt(1), value.NewString(title)}}})
			img := pg.XRows()
			pg.UnlockX()
			ix.reconcile(old, img, v-1, v)
			m.reconcile(ix, old, img, v-1, v)
			m.match(t, ix, 7, fmt.Sprintf("reconcile to %s at %d", title, v))
		}
	}
}

// TestIndexKeyIsCapped checks that a key a cursor hands out, committed or
// an update's pending one, is capped at its length: appending to it copies
// and leaves the row it is a window onto unchanged.
func TestIndexKeyIsCapped(t *testing.T) {
	e, tbl := newTestEngine(t)
	loadItems(t, e, tbl, 3)
	check := func(tx Txn, what string) {
		t.Helper()
		var c IndexCursor
		if err := c.Seek(tx, tbl, 1, nil); err != nil {
			t.Fatal(err)
		}
		n := 0
		for key, rid, ok := c.Next(); ok; key, rid, ok = c.Next() {
			if cap(key) != len(key) {
				t.Fatalf("%s: key %v has cap %d, len %d", what, key, cap(key), len(key))
			}
			_ = append(key, value.NewString("appended"))
			row, found, err := tx.Fetch(tbl, rid)
			if err != nil || !found {
				t.Fatalf("%s: fetch row %d: %v, %v", what, rid, found, err)
			}
			if row[2].AsInt() != 100 {
				t.Fatalf("%s: row %d is %v after an append to its key", what, rid, row)
			}
			n++
		}
		if n == 0 {
			t.Fatalf("%s: the cursor found no entry", what)
		}
	}
	check(e.BeginRead(nil), "read")
	utx := e.BeginUpdate()
	defer func() { _ = utx.Rollback() }()
	if _, err := utx.Insert(tbl, value.Row{value.NewInt(4), value.NewString("title-004"), value.NewInt(100)}); err != nil {
		t.Fatal(err)
	}
	check(utx, "update")
}
