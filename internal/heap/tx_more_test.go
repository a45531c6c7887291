package heap

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dmv/internal/page"
	"dmv/internal/value"
)

func TestLockTimeoutResolvesDeadlock(t *testing.T) {
	e := NewEngine(Options{PageCap: 1, LockTimeout: 30 * time.Millisecond})
	tid, _ := e.CreateTable(TableDef{
		Name: "t",
		Cols: []Column{{Name: "id", Type: value.TInt}, {Name: "v", Type: value.TInt}},
	})
	_, _ = e.CreateIndex(tid, IndexDef{Name: "pk", Cols: []int{0}, Unique: true})
	_ = e.Load(tid, []value.Row{
		{value.NewInt(1), value.NewInt(0)},
		{value.NewInt(2), value.NewInt(0)},
	})

	// tx1 locks row 1's page (PageCap 1: one row per page).
	tx1 := e.BeginUpdate()
	r1, _ := tx1.LookupEq(tid, 0, value.Row{value.NewInt(1)})
	row, _, _ := tx1.Fetch(tid, r1[0])
	if err := tx1.Update(tid, r1[0], row); err != nil {
		t.Fatal(err)
	}
	// tx2 locks row 2's page, then needs row 1's -> times out.
	tx2 := e.BeginUpdate()
	r2, _ := tx2.LookupEq(tid, 0, value.Row{value.NewInt(2)})
	row2, _, _ := tx2.Fetch(tid, r2[0])
	if err := tx2.Update(tid, r2[0], row2); err != nil {
		t.Fatal(err)
	}
	_, _, err := tx2.Fetch(tid, r1[0])
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("err = %v, want ErrLockTimeout", err)
	}
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}
	// tx1 proceeds normally after the victim aborts.
	if _, err := tx1.Commit(nil); err != nil {
		t.Fatal(err)
	}
}

func TestInsertRollbackWithFreshPage(t *testing.T) {
	e := NewEngine(Options{PageCap: 2})
	tid, _ := e.CreateTable(TableDef{
		Name: "t",
		Cols: []Column{{Name: "id", Type: value.TInt}},
	})
	_, _ = e.CreateIndex(tid, IndexDef{Name: "pk", Cols: []int{0}, Unique: true})

	tx := e.BeginUpdate()
	for i := 1; i <= 5; i++ { // spans multiple fresh pages
		if _, err := tx.Insert(tid, value.Row{value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	n, err := e.RowCountAt(tid, VersionLatest)
	if err != nil || n != 0 {
		t.Fatalf("rows after rollback = %d (%v)", n, err)
	}
	// Fresh pages stay invisible to scans (create-version sentinel).
	rtx := e.BeginRead(nil)
	count := 0
	_ = rtx.Scan(tid, func(page.RowID, value.Row) bool { count++; return true })
	if count != 0 {
		t.Fatalf("scan saw %d phantom rows", count)
	}
	// And the table is fully usable afterwards.
	tx2 := e.BeginUpdate()
	if _, err := tx2.Insert(tid, value.Row{value.NewInt(100)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Commit(nil); err != nil {
		t.Fatal(err)
	}
}

func TestNonUniqueIndexDuplicates(t *testing.T) {
	e := NewEngine(Options{})
	tid, _ := e.CreateTable(TableDef{
		Name: "t",
		Cols: []Column{{Name: "id", Type: value.TInt}, {Name: "grp", Type: value.TInt}},
	})
	_, _ = e.CreateIndex(tid, IndexDef{Name: "grp", Cols: []int{1}})
	tx := e.BeginUpdate()
	for i := 1; i <= 6; i++ {
		if _, err := tx.Insert(tid, value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 2))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(nil); err != nil {
		t.Fatal(err)
	}
	rtx := e.BeginRead(nil)
	rids, err := rtx.LookupEq(tid, 0, value.Row{value.NewInt(0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 3 {
		t.Fatalf("grp=0 rows = %d, want 3", len(rids))
	}
}

func TestUpdateTxSeesOwnIndexChanges(t *testing.T) {
	e := NewEngine(Options{})
	tid, _ := e.CreateTable(TableDef{
		Name: "t",
		Cols: []Column{{Name: "id", Type: value.TInt}, {Name: "grp", Type: value.TInt}},
	})
	_, _ = e.CreateIndex(tid, IndexDef{Name: "pk", Cols: []int{0}, Unique: true})
	_, _ = e.CreateIndex(tid, IndexDef{Name: "grp", Cols: []int{1}})
	_ = e.Load(tid, []value.Row{{value.NewInt(1), value.NewInt(10)}})

	tx := e.BeginUpdate()
	// Move row 1 from grp 10 to grp 20; insert a new row in grp 10.
	rids, _ := tx.LookupEq(tid, 0, value.Row{value.NewInt(1)})
	if err := tx.Update(tid, rids[0], value.Row{value.NewInt(1), value.NewInt(20)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(tid, value.Row{value.NewInt(2), value.NewInt(10)}); err != nil {
		t.Fatal(err)
	}
	// Within the same transaction, the overlay must reflect both changes.
	g10, _ := tx.LookupEq(tid, 1, value.Row{value.NewInt(10)})
	g20, _ := tx.LookupEq(tid, 1, value.Row{value.NewInt(20)})
	if len(g10) != 1 || len(g20) != 1 {
		t.Fatalf("overlay view: grp10=%d grp20=%d, want 1/1", len(g10), len(g20))
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	// After rollback the overlay is gone.
	rtx := e.BeginRead(nil)
	g10b, _ := rtx.LookupEq(tid, 1, value.Row{value.NewInt(10)})
	g20b, _ := rtx.LookupEq(tid, 1, value.Row{value.NewInt(20)})
	if len(g10b) != 1 || len(g20b) != 0 {
		t.Fatalf("after rollback: grp10=%d grp20=%d, want 1/0", len(g10b), len(g20b))
	}
}

func TestUpdateTxScanLocksPages(t *testing.T) {
	e := NewEngine(Options{PageCap: 4})
	tid, _ := e.CreateTable(TableDef{
		Name: "t",
		Cols: []Column{{Name: "id", Type: value.TInt}},
	})
	rows := make([]value.Row, 8)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i))}
	}
	_ = e.Load(tid, rows)

	tx := e.BeginUpdate()
	n := 0
	if err := tx.Scan(tid, func(page.RowID, value.Row) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("scan saw %d rows", n)
	}
	if _, err := tx.Commit(nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadTxRejectsWrites(t *testing.T) {
	e := NewEngine(Options{})
	tid, _ := e.CreateTable(TableDef{Name: "t", Cols: []Column{{Name: "id", Type: value.TInt}}})
	rtx := e.BeginRead(nil)
	if _, err := rtx.Insert(tid, value.Row{value.NewInt(1)}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("insert err = %v", err)
	}
	if err := rtx.Update(tid, 1, nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("update err = %v", err)
	}
	if err := rtx.Delete(tid, 1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("delete err = %v", err)
	}
}

func TestCommitOnFinishedTx(t *testing.T) {
	e := NewEngine(Options{})
	tid, _ := e.CreateTable(TableDef{Name: "t", Cols: []Column{{Name: "id", Type: value.TInt}}})
	tx := e.BeginUpdate()
	if _, err := tx.Insert(tid, value.Row{value.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(nil); !errors.Is(err, ErrTxDone) {
		t.Fatalf("double commit err = %v", err)
	}
	if _, err := tx.Insert(tid, value.Row{value.NewInt(2)}); !errors.Is(err, ErrTxDone) {
		t.Fatalf("insert after commit err = %v", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("rollback after commit should be a no-op: %v", err)
	}
}

func TestEmptyUpdateTxCommit(t *testing.T) {
	e := NewEngine(Options{})
	_, _ = e.CreateTable(TableDef{Name: "t", Cols: []Column{{Name: "id", Type: value.TInt}}})
	tx := e.BeginUpdate()
	ver, err := tx.Commit(func(*WriteSet) error {
		t.Fatal("empty transaction must not broadcast")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ver != nil {
		t.Fatalf("empty commit produced version %v", ver)
	}
}

// TestRollbackRestoresPageImages rolls back a seeded mix of inserts (enough
// to open a fresh page), updates and deletes that writes several rows more
// than once, then checks that every page image and every index answer is
// the one from before the transaction. A rollback that replayed the
// write-set forwards would leave a twice-updated row at its first update.
func TestRollbackRestoresPageImages(t *testing.T) {
	const rows = 10
	e, tbl := newTestEngine(t) // PageCap 4
	loadItems(t, e, tbl, rows)
	// One committed update, so the images carry a non-zero version.
	setup := e.BeginUpdate()
	rid, _ := setup.LookupEq(tbl, 0, value.Row{value.NewInt(3)})
	if err := setup.Update(tbl, rid[0], value.Row{value.NewInt(3), value.NewString("title-three"), value.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Commit(nil); err != nil {
		t.Fatal(err)
	}

	images := func() map[page.ID]page.Image {
		out := make(map[page.ID]page.Image)
		for _, img := range e.FuzzyCheckpoint().Images {
			out[img.Page] = img
		}
		return out
	}
	// answers maps every primary key and title the transaction may touch to
	// the row ids LookupEq returns for it.
	answers := func() map[string][]page.RowID {
		tx := e.BeginRead(nil)
		out := make(map[string][]page.RowID)
		for pk := 1; pk <= 2*rows; pk++ {
			for idx, key := range []value.Value{value.NewInt(int64(pk)), value.NewString(fmt.Sprintf("title-%03d", pk))} {
				got, err := tx.LookupEq(tbl, idx, value.Row{key})
				if err != nil {
					t.Fatal(err)
				}
				out[fmt.Sprintf("%d/%v", idx, key)] = got
			}
		}
		return out
	}
	beforeImages, beforeAnswers := images(), answers()

	rng := rand.New(rand.NewSource(44))
	tx := e.BeginUpdate()
	live := make(map[int64]page.RowID) // pk -> rid of the rows the txn can still write
	for pk := int64(1); pk <= rows; pk++ {
		rids, err := tx.LookupEq(tbl, 0, value.Row{value.NewInt(pk)})
		if err != nil || len(rids) != 1 {
			t.Fatalf("LookupEq(%d) = %v, %v", pk, rids, err)
		}
		live[pk] = rids[0]
	}
	next := int64(rows + 1)
	for range 5 { // PageCap 4: the fifth insert at the latest opens a fresh page
		r, err := tx.Insert(tbl, value.Row{value.NewInt(next), value.NewString(fmt.Sprintf("title-%03d", next)), value.NewInt(1)})
		if err != nil {
			t.Fatal(err)
		}
		live[next] = r
		next++
	}
	for step := 0; step < 40 && len(live) > 0; step++ {
		pk := int64(rng.Intn(int(next-1))) + 1
		r, ok := live[pk]
		if !ok {
			continue
		}
		if rng.Intn(5) == 0 {
			if err := tx.Delete(tbl, r); err != nil {
				t.Fatal(err)
			}
			delete(live, pk)
			continue
		}
		title := fmt.Sprintf("title-%03d", pk)
		if rng.Intn(2) == 0 {
			title = fmt.Sprintf("title-%03d", rows+int(pk)) // moves the secondary key
		}
		if err := tx.Update(tbl, r, value.Row{value.NewInt(pk), value.NewString(title), value.NewInt(int64(step))}); err != nil {
			t.Fatal(err)
		}
	}
	if len(tx.recs) < 2*rows {
		t.Fatalf("the mix wrote %d records, want at least %d", len(tx.recs), 2*rows)
	}
	writes := make(map[page.RowID]int)
	for _, rec := range tx.recs {
		writes[rec.Op.Row]++
	}
	rewritten := 0
	for _, n := range writes {
		if n > 1 {
			rewritten++
		}
	}
	if rewritten == 0 {
		t.Fatal("the mix wrote no row twice")
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	afterImages := images()
	if len(afterImages) <= len(beforeImages) {
		t.Fatalf("%d pages after the inserts, %d before: no fresh page opened", len(afterImages), len(beforeImages))
	}
	for id, img := range afterImages {
		want, existed := beforeImages[id]
		switch {
		case !existed && len(img.Rows) != 0:
			t.Errorf("fresh page %d keeps %d rows after rollback", id, len(img.Rows))
		case existed && !reflect.DeepEqual(img, want):
			t.Errorf("page %d after rollback:\n got %+v\nwant %+v", id, img, want)
		}
	}
	if got := answers(); !reflect.DeepEqual(got, beforeAnswers) {
		t.Errorf("LookupEq answers after rollback:\n got %v\nwant %v", got, beforeAnswers)
	}
}
