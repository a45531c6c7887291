package exec

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"dmv/internal/heap"
	"dmv/internal/value"
)

// newBookDB builds a small bookstore schema with authors, items, orders and
// order lines, exercising the same query shapes as TPC-W.
func newBookDB(t *testing.T) *heap.Engine {
	t.Helper()
	e := heap.NewEngine(heap.Options{PageCap: 8})
	ddl := []string{
		`CREATE TABLE author (a_id INT PRIMARY KEY, a_fname VARCHAR(20), a_lname VARCHAR(20))`,
		`CREATE TABLE item (i_id INT PRIMARY KEY, i_title VARCHAR(60), i_a_id INT, i_subject VARCHAR(20), i_cost FLOAT, i_stock INT)`,
		`CREATE TABLE orders (o_id INT PRIMARY KEY, o_c_id INT, o_total FLOAT)`,
		`CREATE TABLE order_line (ol_id INT PRIMARY KEY, ol_o_id INT, ol_i_id INT, ol_qty INT)`,
		`CREATE INDEX ix_item_subject ON item (i_subject)`,
		`CREATE INDEX ix_item_author ON item (i_a_id)`,
		`CREATE INDEX ix_ol_order ON order_line (ol_o_id)`,
		`CREATE INDEX ix_orders_cust ON orders (o_c_id)`,
	}
	for _, d := range ddl {
		if err := ExecDDL(e, d); err != nil {
			t.Fatalf("ddl %q: %v", d, err)
		}
	}
	mustExec := func(q string, params ...value.Value) {
		tx := e.BeginUpdate()
		if _, err := Run(tx, q, params...); err != nil {
			t.Fatalf("exec %q: %v", q, err)
		}
		if _, err := tx.Commit(nil); err != nil {
			t.Fatalf("commit %q: %v", q, err)
		}
	}
	mustExec(`INSERT INTO author (a_id, a_fname, a_lname) VALUES (1,'Ursula','LeGuin'),(2,'Iain','Banks'),(3,'Octavia','Butler')`)
	subjects := []string{"SCIFI", "HISTORY", "SCIFI", "ARTS", "SCIFI", "HISTORY"}
	for i := 1; i <= 6; i++ {
		mustExec(fmt.Sprintf(
			`INSERT INTO item (i_id, i_title, i_a_id, i_subject, i_cost, i_stock) VALUES (%d,'Book %02d',%d,'%s',%f,%d)`,
			i, i, (i-1)%3+1, subjects[i-1], float64(i)*2.5, 10*i))
	}
	for o := 1; o <= 4; o++ {
		mustExec(fmt.Sprintf(`INSERT INTO orders (o_id, o_c_id, o_total) VALUES (%d,%d,%f)`, o, (o-1)%2+1, float64(o)*10))
		for l := 0; l < 3; l++ {
			ol := (o-1)*3 + l + 1
			item := (o+l-1)%6 + 1
			mustExec(fmt.Sprintf(`INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty) VALUES (%d,%d,%d,%d)`, ol, o, item, l+1))
		}
	}
	return e
}

func query(t *testing.T, e *heap.Engine, q string, params ...value.Value) *Result {
	t.Helper()
	tx := e.BeginRead(nil)
	res, err := Run(tx, q, params...)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return res
}

func TestSelectByPrimaryKey(t *testing.T) {
	e := newBookDB(t)
	res := query(t, e, `SELECT i_title, i_cost FROM item WHERE i_id = ?`, value.NewInt(3))
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if got := res.Rows[0][0].AsString(); got != "Book 03" {
		t.Fatalf("title = %q", got)
	}
	if res.Cols[0] != "i_title" || res.Cols[1] != "i_cost" {
		t.Fatalf("cols = %v", res.Cols)
	}
}

func TestSelectSecondaryIndex(t *testing.T) {
	e := newBookDB(t)
	res := query(t, e, `SELECT i_id FROM item WHERE i_subject = 'SCIFI' ORDER BY i_id`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	want := []int64{1, 3, 5}
	for i, r := range res.Rows {
		if r[0].AsInt() != want[i] {
			t.Fatalf("row %d = %v, want %d", i, r, want[i])
		}
	}
}

func TestJoinWithIndexProbe(t *testing.T) {
	e := newBookDB(t)
	res := query(t, e, `
		SELECT i.i_title, a.a_lname
		FROM item i JOIN author a ON i.i_a_id = a.a_id
		WHERE i.i_id = 4`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if got := res.Rows[0][1].AsString(); got != "LeGuin" {
		t.Fatalf("author = %q, want LeGuin (item 4 -> author 1)", got)
	}
}

func TestBestSellersShape(t *testing.T) {
	e := newBookDB(t)
	res := query(t, e, `
		SELECT i.i_id, i.i_title, a.a_lname, SUM(ol.ol_qty) AS qty
		FROM order_line ol
		JOIN orders o ON ol.ol_o_id = o.o_id
		JOIN item i ON ol.ol_i_id = i.i_id
		JOIN author a ON i.i_a_id = a.a_id
		WHERE o.o_id > 0
		GROUP BY i.i_id, i.i_title, a.a_lname
		ORDER BY qty DESC, i.i_id ASC
		LIMIT 3`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	// Quantities must be non-increasing.
	prev := res.Rows[0][3].AsInt()
	for _, r := range res.Rows[1:] {
		q := r[3].AsInt()
		if q > prev {
			t.Fatalf("qty not descending: %v", res.Rows)
		}
		prev = q
	}
}

func TestAggregatesGrandTotal(t *testing.T) {
	e := newBookDB(t)
	res := query(t, e, `SELECT COUNT(*), SUM(i_stock), MIN(i_cost), MAX(i_cost), AVG(i_stock) FROM item`)
	r := res.Rows[0]
	if r[0].AsInt() != 6 {
		t.Fatalf("count = %v", r[0])
	}
	if r[1].AsInt() != 10+20+30+40+50+60 {
		t.Fatalf("sum = %v", r[1])
	}
	if r[2].AsFloat() != 2.5 || r[3].AsFloat() != 15 {
		t.Fatalf("min/max = %v/%v", r[2], r[3])
	}
	if r[4].AsFloat() != 35 {
		t.Fatalf("avg = %v", r[4])
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	e := newBookDB(t)
	res := query(t, e, `SELECT COUNT(*), SUM(i_stock) FROM item WHERE i_id = 999`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if res.Rows[0][0].AsInt() != 0 {
		t.Fatalf("count = %v, want 0", res.Rows[0][0])
	}
	if !res.Rows[0][1].IsNull() {
		t.Fatalf("sum = %v, want NULL", res.Rows[0][1])
	}
}

func TestLikeAndRange(t *testing.T) {
	e := newBookDB(t)
	res := query(t, e, `SELECT i_id FROM item WHERE i_title LIKE 'Book 0%' AND i_id >= 2 AND i_id <= 4 ORDER BY i_id DESC`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3: %v", len(res.Rows), res.Rows)
	}
	if res.Rows[0][0].AsInt() != 4 {
		t.Fatalf("first = %v, want 4 (DESC)", res.Rows[0][0])
	}
}

func TestInAndBetween(t *testing.T) {
	e := newBookDB(t)
	res := query(t, e, `SELECT COUNT(*) FROM item WHERE i_id IN (1, 3, 9)`)
	if res.Rows[0][0].AsInt() != 2 {
		t.Fatalf("IN count = %v, want 2", res.Rows[0][0])
	}
	res = query(t, e, `SELECT COUNT(*) FROM item WHERE i_cost BETWEEN 5.0 AND 10.0`)
	if res.Rows[0][0].AsInt() != 3 { // 5.0, 7.5, 10.0
		t.Fatalf("BETWEEN count = %v, want 3", res.Rows[0][0])
	}
}

func TestDistinctAndOffset(t *testing.T) {
	e := newBookDB(t)
	res := query(t, e, `SELECT DISTINCT i_subject FROM item ORDER BY i_subject`)
	if len(res.Rows) != 3 {
		t.Fatalf("distinct rows = %d, want 3", len(res.Rows))
	}
	res = query(t, e, `SELECT i_id FROM item ORDER BY i_id LIMIT 2 OFFSET 3`)
	if len(res.Rows) != 2 || res.Rows[0][0].AsInt() != 4 {
		t.Fatalf("offset page = %v", res.Rows)
	}
}

// TestNegativeLimitOffset checks a negative LIMIT or OFFSET is an error,
// not a panic: over TCP a client binds it as a parameter.
func TestNegativeLimitOffset(t *testing.T) {
	e := newBookDB(t)
	for _, q := range []string{
		`SELECT i_id FROM item LIMIT ?`,
		`SELECT i_id FROM item ORDER BY i_id LIMIT 2 OFFSET ?`,
		`SELECT i_subject, COUNT(*) FROM item GROUP BY i_subject LIMIT ?`,
	} {
		if res, err := Run(e.BeginRead(nil), q, value.NewInt(-1)); err == nil {
			t.Errorf("%s with -1: rows %v, want an error", q, res.Rows)
		}
		query(t, e, q, value.NewInt(0))
	}
}

func TestUpdateAndDelete(t *testing.T) {
	e := newBookDB(t)

	tx := e.BeginUpdate()
	res, err := Run(tx, `UPDATE item SET i_stock = i_stock - 5, i_cost = ? WHERE i_id = ?`,
		value.NewFloat(99.5), value.NewInt(2))
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if res.Affected != 1 {
		t.Fatalf("affected = %d, want 1", res.Affected)
	}
	if _, err := tx.Commit(nil); err != nil {
		t.Fatalf("commit: %v", err)
	}

	got := query(t, e, `SELECT i_stock, i_cost FROM item WHERE i_id = 2`)
	if got.Rows[0][0].AsInt() != 15 || got.Rows[0][1].AsFloat() != 99.5 {
		t.Fatalf("after update: %v", got.Rows[0])
	}

	tx = e.BeginUpdate()
	res, err = Run(tx, `DELETE FROM order_line WHERE ol_o_id = 1`)
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	if res.Affected != 3 {
		t.Fatalf("deleted = %d, want 3", res.Affected)
	}
	if _, err := tx.Commit(nil); err != nil {
		t.Fatalf("commit: %v", err)
	}
	got = query(t, e, `SELECT COUNT(*) FROM order_line`)
	if got.Rows[0][0].AsInt() != 9 {
		t.Fatalf("remaining order lines = %v, want 9", got.Rows[0][0])
	}
}

// TestRangeUpdateDeleteOnIndexedColumn pins that UPDATE and DELETE honour a
// range bound the access path consumed: the index probe must stop at it,
// since the bound is no longer in the residual predicates.
func TestRangeUpdateDeleteOnIndexedColumn(t *testing.T) {
	e := heap.NewEngine(heap.Options{PageCap: 8})
	if err := ExecDDL(e, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`); err != nil {
		t.Fatal(err)
	}
	run := func(q string) int {
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
	for i := 1; i <= 10; i++ {
		run(fmt.Sprintf(`INSERT INTO t (id, v) VALUES (%d, 0)`, i))
	}
	for _, c := range []struct {
		q    string
		want int
	}{
		{`UPDATE t SET v = 1 WHERE id > 8`, 2},
		{`UPDATE t SET v = 2 WHERE id >= 3 AND id < 5`, 2},
		{`DELETE FROM t WHERE id <= 2`, 2},
	} {
		if got := run(c.q); got != c.want {
			t.Fatalf("%s: affected %d, want %d", c.q, got, c.want)
		}
	}
	got := query(t, e, `SELECT id, v FROM t ORDER BY id`)
	want := "3:2 4:2 5:0 6:0 7:0 8:0 9:1 10:1"
	var parts []string
	for _, r := range got.Rows {
		parts = append(parts, fmt.Sprintf("%d:%d", r[0].AsInt(), r[1].AsInt()))
	}
	if s := strings.Join(parts, " "); s != want {
		t.Fatalf("rows = %s, want %s", s, want)
	}
}

func TestSecondaryIndexMaintainedByUpdate(t *testing.T) {
	e := newBookDB(t)
	tx := e.BeginUpdate()
	if _, err := Run(tx, `UPDATE item SET i_subject = 'COOKING' WHERE i_id = 1`); err != nil {
		t.Fatalf("update: %v", err)
	}
	if _, err := tx.Commit(nil); err != nil {
		t.Fatalf("commit: %v", err)
	}
	res := query(t, e, `SELECT COUNT(*) FROM item WHERE i_subject = 'SCIFI'`)
	if res.Rows[0][0].AsInt() != 2 {
		t.Fatalf("scifi count = %v, want 2", res.Rows[0][0])
	}
	res = query(t, e, `SELECT i_id FROM item WHERE i_subject = 'COOKING'`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 1 {
		t.Fatalf("cooking = %v", res.Rows)
	}
}

func TestLeftJoin(t *testing.T) {
	e := newBookDB(t)
	// Author with no items after moving all of author 3's items away.
	tx := e.BeginUpdate()
	if _, err := Run(tx, `UPDATE item SET i_a_id = 1 WHERE i_a_id = 3`); err != nil {
		t.Fatalf("update: %v", err)
	}
	if _, err := tx.Commit(nil); err != nil {
		t.Fatalf("commit: %v", err)
	}
	res := query(t, e, `
		SELECT a.a_id, COUNT(i.i_id) AS n
		FROM author a LEFT JOIN item i ON i.i_a_id = a.a_id
		GROUP BY a.a_id ORDER BY a.a_id`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	if res.Rows[2][1].AsInt() != 0 {
		t.Fatalf("author 3 count = %v, want 0", res.Rows[2][1])
	}
}

func TestHaving(t *testing.T) {
	e := newBookDB(t)
	res := query(t, e, `
		SELECT i_subject, COUNT(*) AS n FROM item
		GROUP BY i_subject HAVING COUNT(*) >= 2 ORDER BY i_subject`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v, want HISTORY and SCIFI", res.Rows)
	}
}

func TestParamShortfall(t *testing.T) {
	e := newBookDB(t)
	tx := e.BeginRead(nil)
	_, err := Run(tx, `SELECT i_id FROM item WHERE i_id = ?`)
	if err == nil || !strings.Contains(err.Error(), "parameter") {
		t.Fatalf("err = %v, want parameter error", err)
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Prepare(`SELECT FROM WHERE`)
	if err == nil {
		t.Fatal("expected syntax error")
	}
}

func TestInsertDefaultColumnsOrder(t *testing.T) {
	e := newBookDB(t)
	tx := e.BeginUpdate()
	if _, err := Run(tx, `INSERT INTO author VALUES (9, 'New', 'Author')`); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if _, err := tx.Commit(nil); err != nil {
		t.Fatalf("commit: %v", err)
	}
	res := query(t, e, `SELECT a_fname FROM author WHERE a_id = 9`)
	if res.Rows[0][0].AsString() != "New" {
		t.Fatalf("got %v", res.Rows[0])
	}
}

func TestExplainPlans(t *testing.T) {
	e := newBookDB(t)
	plan, err := Explain(e, `
		SELECT i.i_title FROM item i JOIN author a ON i.i_a_id = a.a_id
		WHERE i.i_subject = 'SCIFI' AND i.i_id > 2`)
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if !strings.Contains(plan, "INDEX ix_item_subject eq(i_subject)") &&
		!strings.Contains(plan, "INDEX pk_item") {
		t.Fatalf("plan missing index choice:\n%s", plan)
	}
	if !strings.Contains(plan, "author") || !strings.Contains(plan, "nested-loop join") {
		t.Fatalf("plan missing join info:\n%s", plan)
	}

	plan, err = Explain(e, `SELECT i_subject, COUNT(*) FROM item GROUP BY i_subject ORDER BY i_subject LIMIT 3`)
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	for _, want := range []string{"FULL SCAN", "hash group-by", "sort", "limit"} {
		if !strings.Contains(plan, want) {
			t.Fatalf("plan missing %q:\n%s", want, plan)
		}
	}

	if _, err := Explain(e, `UPDATE item SET i_stock = 1`); err == nil {
		t.Fatal("explain of non-select must fail")
	}
}

func TestLeftJoinOnVsWhereSemantics(t *testing.T) {
	e := newBookDB(t)
	// Give author 3 no items.
	tx := e.BeginUpdate()
	if _, err := Run(tx, `UPDATE item SET i_a_id = 1 WHERE i_a_id = 3`); err != nil {
		t.Fatalf("update: %v", err)
	}
	if _, err := tx.Commit(nil); err != nil {
		t.Fatalf("commit: %v", err)
	}

	// WHERE on the left-joined table filters out null-extended rows: the
	// itemless author must NOT appear.
	res := query(t, e, `
		SELECT a.a_id, i.i_id
		FROM author a LEFT JOIN item i ON i.i_a_id = a.a_id
		WHERE i.i_subject = 'SCIFI'
		ORDER BY a.a_id, i.i_id`)
	for _, r := range res.Rows {
		if r[1].IsNull() {
			t.Fatalf("WHERE on joined table leaked a null row: %v", res.Rows)
		}
	}

	// The same predicate in the ON clause keeps the null-extended rows:
	// every author appears, with NULL item where nothing matched.
	res = query(t, e, `
		SELECT a.a_id, i.i_id
		FROM author a LEFT JOIN item i ON i.i_a_id = a.a_id AND i.i_subject = 'SCIFI'
		ORDER BY a.a_id, i.i_id`)
	authors := map[int64]bool{}
	nulls := 0
	for _, r := range res.Rows {
		authors[r[0].AsInt()] = true
		if r[1].IsNull() {
			nulls++
		}
	}
	if len(authors) != 3 {
		t.Fatalf("ON-filtered left join lost authors: %v", res.Rows)
	}
	if nulls == 0 {
		t.Fatalf("expected null-extended rows for the itemless author: %v", res.Rows)
	}
}

func TestScalarSubquery(t *testing.T) {
	e := newBookDB(t)
	// Items costing more than the average cost.
	res := query(t, e, `
		SELECT COUNT(*) FROM item
		WHERE i_cost > (SELECT AVG(i_cost) FROM item)`)
	// Costs are 2.5,5,7.5,10,12.5,15 -> avg 8.75 -> 3 items above.
	if res.Rows[0][0].AsInt() != 3 {
		t.Fatalf("count = %v, want 3", res.Rows[0][0])
	}
	// Scalar subquery in the SELECT list.
	res = query(t, e, `SELECT (SELECT MAX(i_cost) FROM item)`)
	if res.Rows[0][0].AsFloat() != 15 {
		t.Fatalf("max = %v", res.Rows[0][0])
	}
	// Empty subquery result is NULL.
	res = query(t, e, `SELECT (SELECT i_cost FROM item WHERE i_id = 999)`)
	if !res.Rows[0][0].IsNull() {
		t.Fatalf("empty scalar = %v, want NULL", res.Rows[0][0])
	}
}

func TestInSubquery(t *testing.T) {
	e := newBookDB(t)
	// Authors who wrote a SCIFI book.
	res := query(t, e, `
		SELECT a_id FROM author
		WHERE a_id IN (SELECT i_a_id FROM item WHERE i_subject = 'SCIFI')
		ORDER BY a_id`)
	// SCIFI items are 1,3,5 -> authors 1,3,2 -> all three authors.
	if len(res.Rows) != 3 {
		t.Fatalf("authors = %v", res.Rows)
	}
	// Negated membership.
	res = query(t, e, `
		SELECT COUNT(*) FROM item
		WHERE NOT i_id IN (SELECT ol_i_id FROM order_line)`)
	if res.Rows[0][0].AsInt() < 0 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}

func TestSubqueryInUpdate(t *testing.T) {
	e := newBookDB(t)
	tx := e.BeginUpdate()
	// Discount every item that has ever been ordered.
	res, err := Run(tx, `
		UPDATE item SET i_cost = i_cost - 1
		WHERE i_id IN (SELECT ol_i_id FROM order_line)`)
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if res.Affected == 0 {
		t.Fatal("no rows updated")
	}
	if _, err := tx.Commit(nil); err != nil {
		t.Fatal(err)
	}
}

func TestCorrelatedSubqueryRejected(t *testing.T) {
	e := newBookDB(t)
	tx := e.BeginRead(nil)
	// The inner query references the outer alias: unsupported, must error
	// cleanly rather than return wrong results.
	_, err := Run(tx, `
		SELECT i_id FROM item i
		WHERE i_cost > (SELECT AVG(o_total) FROM orders WHERE o_id = i.i_id)`)
	if err == nil {
		t.Fatal("correlated subquery silently accepted")
	}
}

func TestCountDistinct(t *testing.T) {
	e := newBookDB(t)
	res := query(t, e, `SELECT COUNT(DISTINCT i_subject), COUNT(i_subject) FROM item`)
	if res.Rows[0][0].AsInt() != 3 {
		t.Fatalf("distinct subjects = %v, want 3", res.Rows[0][0])
	}
	if res.Rows[0][1].AsInt() != 6 {
		t.Fatalf("plain count = %v, want 6", res.Rows[0][1])
	}
	// Per-group DISTINCT.
	res = query(t, e, `
		SELECT i_subject, COUNT(DISTINCT i_a_id) FROM item
		GROUP BY i_subject ORDER BY i_subject`)
	for _, r := range res.Rows {
		if r[1].AsInt() < 1 || r[1].AsInt() > 3 {
			t.Fatalf("group distinct out of range: %v", res.Rows)
		}
	}
	// SUM(DISTINCT) also dedupes.
	res = query(t, e, `SELECT SUM(DISTINCT i_stock) FROM item`)
	if res.Rows[0][0].AsInt() != 10+20+30+40+50+60 {
		t.Fatalf("sum distinct = %v", res.Rows[0][0])
	}
}

func TestOrderBySatisfiedByIndex(t *testing.T) {
	e := heap.NewEngine(heap.Options{PageCap: 4})
	for _, d := range []string{
		`CREATE TABLE ev (e_id INT PRIMARY KEY, e_kind VARCHAR(10), e_seq INT, e_data VARCHAR(10))`,
		`CREATE INDEX ix_kind_seq ON ev (e_kind, e_seq)`,
	} {
		if err := ExecDDL(e, d); err != nil {
			t.Fatal(err)
		}
	}
	tx := e.BeginUpdate()
	// Insert in a scrambled order so a missing sort would show.
	for _, seq := range []int{5, 1, 4, 2, 3} {
		if _, err := Run(tx, fmt.Sprintf(
			`INSERT INTO ev (e_id, e_kind, e_seq, e_data) VALUES (%d, 'a', %d, 'x')`, seq, seq)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(nil); err != nil {
		t.Fatal(err)
	}

	// eq prefix on e_kind + ORDER BY e_seq ASC: satisfied by ix_kind_seq.
	rtx := e.BeginRead(nil)
	res, err := Run(rtx, `SELECT e_seq FROM ev WHERE e_kind = 'a' ORDER BY e_seq`)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Rows {
		if r[0].AsInt() != int64(i+1) {
			t.Fatalf("row %d = %v (order broken)", i, res.Rows)
		}
	}
	// DESC is NOT satisfied by the ascending scan; the sort must kick in.
	res, err = Run(rtx, `SELECT e_seq FROM ev WHERE e_kind = 'a' ORDER BY e_seq DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 5 {
		t.Fatalf("desc order broken: %v", res.Rows)
	}
	// ORDER BY a non-index column still sorts.
	res, err = Run(rtx, `SELECT e_id FROM ev WHERE e_kind = 'a' ORDER BY e_id`)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Rows {
		if r[0].AsInt() != int64(i+1) {
			t.Fatalf("fallback order broken: %v", res.Rows)
		}
	}
}

func TestHavingOnSelectAlias(t *testing.T) {
	e := newBookDB(t)
	res := query(t, e, `
		SELECT i_subject, COUNT(*) AS n FROM item
		GROUP BY i_subject HAVING n >= 2 ORDER BY i_subject`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v, want HISTORY and SCIFI", res.Rows)
	}
}

// TestNaNInFloatColumn checks that a NaN stored in a FLOAT column matches
// no numeric predicate, sorts after every number, and that an index on the
// column and a full scan agree on a range over it.
func TestNaNInFloatColumn(t *testing.T) {
	const insert = `INSERT INTO f (id, x) VALUES (1, 1.0), (2, 'NaN'), (3, 3.0), (4, 8.0)`
	scan := newEngine(t, []string{`CREATE TABLE f (id INT PRIMARY KEY, x FLOAT)`}, insert)
	indexed := newEngine(t, []string{`CREATE TABLE f (id INT PRIMARY KEY, x FLOAT)`, `CREATE INDEX ix_x ON f (x)`}, insert)
	if got := rowsText(query(t, scan, `SELECT id, x FROM f WHERE x = 5`)); got != "" {
		t.Errorf("WHERE x = 5 returned %q, want no row", got)
	}
	if got := rowsText(query(t, scan, `SELECT id FROM f ORDER BY x`)); got != "1 3 4 2" {
		t.Errorf("ORDER BY x = %q, want NaN last: 1 3 4 2", got)
	}
	const rng = `SELECT id FROM f WHERE x >= 7 ORDER BY id`
	for _, c := range []struct {
		e    *heap.Engine
		path string
	}{{scan, "FULL SCAN"}, {indexed, "ix_x"}} {
		plan, err := Explain(c.e, rng)
		if err != nil || !strings.Contains(plan, c.path) {
			t.Fatalf("plan %q (%v), want a %s", plan, err, c.path)
		}
	}
	if a, b := rowsText(query(t, scan, rng)), rowsText(query(t, indexed, rng)); a != b {
		t.Errorf("x >= 7: full scan %q, index %q", a, b)
	}
}

// TestResultRowsDoNotAlias checks that the rows of a result, windows onto
// one per-statement slab, are independent: a write into one row, or an
// append to it, leaves its neighbours as they were, and running the
// statement again leaves the first result as it was.
func TestResultRowsDoNotAlias(t *testing.T) {
	e := newBookDB(t)
	tx := e.BeginRead(nil)
	for _, q := range []string{
		`SELECT i_id, i_title, i_cost FROM item WHERE i_stock > ?`,
		`SELECT * FROM item WHERE i_stock > ?`,
		`SELECT i.i_id, a.a_lname FROM item i JOIN author a ON i.i_a_id = a.a_id WHERE i.i_stock > ?`,
		`SELECT i.i_title, a.a_lname FROM item i JOIN author a ON i.i_a_id = a.a_id WHERE i.i_stock > ?
			ORDER BY i.i_cost DESC, a.a_lname LIMIT 4`,
		`SELECT ol_o_id, SUM(ol_qty), COUNT(*) FROM order_line WHERE ol_qty > ? GROUP BY ol_o_id ORDER BY ol_o_id`,
	} {
		p, err := Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		params := []value.Value{value.NewInt(0)}
		first, err := p.Exec(tx, params)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(first.Rows) < 3 {
			t.Fatalf("%s: %d rows, want at least 3", q, len(first.Rows))
		}
		want := rowStrings(first.Rows, false)
		second, err := p.Exec(tx, params)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got := rowStrings(first.Rows, false); !slices.Equal(got, want) {
			t.Fatalf("%s: a second Exec changed the first result\n got %v\nwant %v", q, got, want)
		}
		row := first.Rows[0]
		for j := range row {
			row[j] = value.NewString("written")
		}
		for range len(row) + 8 {
			row = append(row, value.NewString("appended"))
		}
		for name, res := range map[string]*Result{"first": first, "second": second} {
			if got := rowStrings(res.Rows[1:], false); !slices.Equal(got, want[1:]) {
				t.Errorf("%s: writing row 0 of the first result changed the %s result\n got %v\nwant %v",
					q, name, got, want[1:])
			}
		}
		if got := second.Rows[0].String(); got != want[0] {
			t.Errorf("%s: writing row 0 of the first result changed the second's to %s", q, got)
		}
	}
}
