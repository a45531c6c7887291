package exec

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dmv/internal/heap"
)

// newPairsDB holds t(id, a, b) with rows (i, i, 10*i) for i in 1..n, a
// primary key on id and an index on a.
func newPairsDB(t *testing.T, n int) *heap.Engine {
	t.Helper()
	e := heap.NewEngine(heap.Options{PageCap: 4})
	for _, d := range []string{
		`CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT)`,
		`CREATE INDEX ix_a ON t (a)`,
	} {
		if err := ExecDDL(e, d); err != nil {
			t.Fatal(err)
		}
	}
	tx := e.BeginUpdate()
	for i := 1; i <= n; i++ {
		if _, err := Run(tx, fmt.Sprintf(`INSERT INTO t (id, a, b) VALUES (%d, %d, %d)`, i, i, 10*i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(nil); err != nil {
		t.Fatal(err)
	}
	return e
}

// pairs renders t as "id:a:b" in id order.
func pairs(t *testing.T, e *heap.Engine) string {
	t.Helper()
	var parts []string
	for _, r := range query(t, e, `SELECT id, a, b FROM t ORDER BY id`).Rows {
		parts = append(parts, fmt.Sprintf("%d:%d:%d", r[0].AsInt(), r[1].AsInt(), r[2].AsInt()))
	}
	return strings.Join(parts, " ")
}

// updateCommit runs q in an update transaction and commits it.
func updateCommit(t *testing.T, e *heap.Engine, q string) int {
	t.Helper()
	tx := e.BeginUpdate()
	res, err := Run(tx, q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	if _, err := tx.Commit(nil); err != nil {
		t.Fatalf("commit %s: %v", q, err)
	}
	return res.Affected
}

// TestUpdateSetsReadOldRow: every SET of an UPDATE reads the row as it was
// before the statement, so SET a = b, b = a swaps the two columns.
func TestUpdateSetsReadOldRow(t *testing.T) {
	e := newPairsDB(t, 3)
	if n := updateCommit(t, e, `UPDATE t SET a = b, b = a WHERE id = 2`); n != 1 {
		t.Fatalf("affected %d, want 1", n)
	}
	if got, want := pairs(t, e), "1:1:10 2:20:2 3:3:30"; got != want {
		t.Fatalf("rows %s, want %s", got, want)
	}
	// The swapped value is what the index on a finds.
	if res := query(t, e, `SELECT id FROM t WHERE a = 20`); len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 2 {
		t.Fatalf("a = 20 finds %v, want id 2", res.Rows)
	}
}

// TestRangeUpdateReadsColumnItWrites: a multi-row UPDATE over a range of
// the index it changes, whose SET reads the column it writes, changes each
// matched row once, from its old value.
func TestRangeUpdateReadsColumnItWrites(t *testing.T) {
	e := newPairsDB(t, 8)
	if n := updateCommit(t, e, `UPDATE t SET a = a + 3, b = a WHERE a >= 3 AND a <= 6`); n != 4 {
		t.Fatalf("affected %d, want 4", n)
	}
	want := "1:1:10 2:2:20 3:6:3 4:7:4 5:8:5 6:9:6 7:7:70 8:8:80"
	if got := pairs(t, e); got != want {
		t.Fatalf("rows %s, want %s", got, want)
	}
	res := query(t, e, `SELECT id FROM t WHERE a >= 7 AND a <= 8 ORDER BY id`)
	var ids []string
	for _, r := range res.Rows {
		ids = append(ids, r[0].String())
	}
	if got := strings.Join(ids, ","); got != "4,5,7,8" {
		t.Fatalf("index on a finds ids %s for 7 <= a <= 8, want 4,5,7,8", got)
	}
}

// TestUpdateThroughReadTxRefused: an UPDATE run through a read-only
// transaction fails with heap.ErrReadOnly and leaves the stored row as it
// was. A ReadTx hands out stored rows, so the refusal must come before any
// write into one; under -tags dmvdebug the seal check on the read below
// would also catch such a write.
func TestUpdateThroughReadTxRefused(t *testing.T) {
	e := newPairsDB(t, 3)
	for _, q := range []string{
		`UPDATE t SET a = 99, b = a WHERE id = 2`,
		`UPDATE t SET b = b + 1 WHERE a >= 1`,
	} {
		_, err := Run(e.BeginRead(nil), q)
		if !errors.Is(err, heap.ErrReadOnly) {
			t.Fatalf("%s through a ReadTx: err %v, want %v", q, err, heap.ErrReadOnly)
		}
	}
	if got, want := pairs(t, e), "1:1:10 2:2:20 3:3:30"; got != want {
		t.Fatalf("rows %s after refused updates, want %s", got, want)
	}
}
