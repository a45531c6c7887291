//go:build dmvdebug

package heap

import (
	"testing"

	"dmv/internal/page"
	"dmv/internal/value"
)

// Runs only under -tags dmvdebug (scripts/check.sh has a leg for it).

// expectPanic runs read and fails the test unless it panics.
func expectPanic(t *testing.T, what string, read func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s after a write into a published row did not panic", what)
		}
	}()
	read()
}

func TestSealedRowWrittenByReaderPanics(t *testing.T) {
	e, tbl := newTestEngine(t)
	loadItems(t, e, tbl, 10)
	tx := e.BeginRead(nil)
	row, ok := fetchByPK(t, tx, tbl, 3)
	if !ok {
		t.Fatal("pk 3 not found")
	}
	row[2] = value.NewInt(-1) // breaks the contract: the row is the stored one
	expectPanic(t, "Fetch", func() { fetchByPK(t, tx, tbl, 3) })
	expectPanic(t, "Scan", func() {
		_ = tx.Scan(tbl, func(page.RowID, value.Row) bool { return true })
	})
}

func TestSealedIndexKeyWrittenByReaderPanics(t *testing.T) {
	e, tbl := newTestEngine(t)
	loadItems(t, e, tbl, 10)
	tx := e.BeginRead(nil)
	var key value.Row
	if err := tx.IndexScan(tbl, 1, nil, func(k value.Row, _ page.RowID) bool {
		key = k
		return false
	}); err != nil {
		t.Fatal(err)
	}
	key[0] = value.NewString("title-000") // still sorts first; the index keeps it
	expectPanic(t, "IndexScan", func() {
		_ = tx.IndexScan(tbl, 1, nil, func(value.Row, page.RowID) bool { return true })
	})
}
