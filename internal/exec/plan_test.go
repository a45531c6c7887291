package exec

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"dmv/internal/heap"
	"dmv/internal/page"
	"dmv/internal/value"
)

// tracingTx records, per table, the access methods the executor used:
// "FULL SCAN" for Scan, "INDEX <name>" for IndexScan.
type tracingTx struct {
	heap.Txn
	access map[string]map[string]int // table -> method -> calls
}

func newTracingTx(tx heap.Txn) *tracingTx {
	return &tracingTx{Txn: tx, access: make(map[string]map[string]int)}
}

func (t *tracingTx) note(table int, method string) {
	def, err := t.Engine().TableDef(table)
	if err != nil {
		panic(err)
	}
	if t.access[def.Name] == nil {
		t.access[def.Name] = make(map[string]int)
	}
	t.access[def.Name][method]++
}

func (t *tracingTx) Scan(table int, fn func(rid page.RowID, row value.Row) bool) error {
	t.note(table, "FULL SCAN")
	return t.Txn.Scan(table, fn)
}

func (t *tracingTx) IndexScan(table, idx int, from value.Row, fn func(key value.Row, rid page.RowID) bool) error {
	ixs, err := t.Engine().Indexes(table)
	if err != nil {
		return err
	}
	t.note(table, "INDEX "+ixs[idx].Name)
	return t.Txn.IndexScan(table, idx, from, fn)
}

// TestExplainMatchesExecutor pins Explain to the plan the executor runs: a
// left-joined table is probed only through its ON conditions, and a sort an
// index order satisfies is not reported. Every table line's access method
// must also be the one the executor's heap calls show.
func TestExplainMatchesExecutor(t *testing.T) {
	e := newBookDB(t)
	for _, d := range []string{
		`CREATE TABLE t (a INT, b INT, c INT)`,
		`CREATE INDEX ix_ab ON t (a, b)`,
	} {
		if err := ExecDDL(e, d); err != nil {
			t.Fatal(err)
		}
	}
	tx := e.BeginUpdate()
	if _, err := Run(tx, `INSERT INTO t (a, b, c) VALUES (1, 3, 0), (1, 1, 0), (2, 0, 0), (1, 2, 0)`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(nil); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name, q, want string
	}{
		{
			name: "left join probes with ON only",
			q: `SELECT a.a_id, i.i_id FROM author a LEFT JOIN item i ON i.i_a_id = a.a_id
				WHERE i.i_subject = 'SCIFI'`,
			want: "1: author AS a  FULL SCAN\n" +
				"2: item AS i  INDEX ix_item_author eq(i_a_id)  [nested-loop join]\n",
		},
		{
			name: "left join WHERE predicate is no probe",
			q: `SELECT a.a_id, i.i_id FROM author a LEFT JOIN item i ON i.i_cost > 0
				WHERE i.i_id = 3`,
			want: "1: author AS a  FULL SCAN\n" +
				"2: item AS i  FULL SCAN  [nested-loop join]\n",
		},
		{
			name: "index order elides the sort",
			q:    `SELECT b FROM t WHERE a = 1 ORDER BY b`,
			want: "1: t  INDEX ix_ab eq(a)\n",
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			plan, err := Explain(e, c.q)
			if err != nil {
				t.Fatal(err)
			}
			if plan != c.want {
				t.Fatalf("plan:\n%s\nwant:\n%s", plan, c.want)
			}
			tr := newTracingTx(e.BeginRead(nil))
			if _, err := Run(tr, c.q); err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(strings.TrimSpace(plan), "\n") {
				f := strings.Fields(line)
				method := "FULL SCAN"
				if k := strings.Index(line, "INDEX "); k >= 0 {
					method = "INDEX " + strings.Fields(line[k:])[1]
				}
				got := tr.access[f[1]]
				if len(got) != 1 || got[method] == 0 {
					t.Fatalf("%q: executor accessed %s by %v", line, f[1], got)
				}
			}
		})
	}
}

// TestUpdateSubqueryRunsOnce pins the subquery cache to one statement: an
// uncorrelated scalar subquery in SET runs once, not once per target row.
func TestUpdateSubqueryRunsOnce(t *testing.T) {
	e := newBookDB(t)
	tr := newTracingTx(e.BeginUpdate())
	res, err := Run(tr, `UPDATE item SET i_stock = (SELECT COUNT(*) FROM author) WHERE i_id > 0`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 6 {
		t.Fatalf("affected = %d, want 6", res.Affected)
	}
	if n := tr.access["author"]["FULL SCAN"]; n != 1 {
		t.Fatalf("author scanned %d times for %d rows, want once", n, res.Affected)
	}
	if _, err := tr.Txn.(*heap.UpdateTx).Commit(nil); err != nil {
		t.Fatal(err)
	}
	got := query(t, e, `SELECT COUNT(*) FROM item WHERE i_stock = 3`)
	if got.Rows[0][0].AsInt() != 6 {
		t.Fatalf("items with stock 3 = %v, want 6", got.Rows[0][0])
	}
}

// TestConstantPredicates checks a conjunct that names no column still
// filters, in SELECT as in UPDATE and DELETE.
func TestConstantPredicates(t *testing.T) {
	e := newBookDB(t)
	if got := query(t, e, `SELECT COUNT(*) FROM item WHERE 1 = 0`).Rows[0][0].AsInt(); got != 0 {
		t.Fatalf("SELECT WHERE 1 = 0 counted %d rows", got)
	}
	if got := query(t, e, `SELECT i_id FROM item WHERE i_id > ? AND ? = 1`, value.NewInt(0), value.NewInt(2)); len(got.Rows) != 0 {
		t.Fatalf("SELECT WHERE ? = 1 with 2 bound returned %v", got.Rows)
	}
	tx := e.BeginUpdate()
	for _, q := range []string{
		`UPDATE item SET i_stock = 0 WHERE 1 = 0`,
		`DELETE FROM item WHERE i_id > 0 AND 0 = 1`,
	} {
		res, err := Run(tx, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Affected != 0 {
			t.Fatalf("%s: affected %d, want 0", q, res.Affected)
		}
	}
}

// TestLeftJoinNullRowSubquery checks a WHERE subquery evaluates on a
// null-extended row too.
func TestLeftJoinNullRowSubquery(t *testing.T) {
	e := newBookDB(t)
	res := query(t, e, `
		SELECT a.a_id FROM author a LEFT JOIN item i ON i.i_a_id = a.a_id AND i.i_id > 100
		WHERE i.i_id IN (SELECT ol_i_id FROM order_line) OR i.i_id IS NULL`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v, want the three null-extended authors", res.Rows)
	}
}

// TestStatementAllocs guards the executor's allocations per statement, with
// the plan cached on the Prepared, and the bytes of the four-table join.
// Each ceiling is the figure last measured, and ceilings only fall: a
// change that raises one has made the executor costlier.
func TestStatementAllocs(t *testing.T) {
	if debugBuild {
		t.Skip("dmvdebug seal checks change allocation counts")
	}
	e := newBookDB(t)
	rtx := e.BeginRead(nil)
	bigTx := newBestSellersDB(t).BeginRead(nil)
	utx := e.BeginUpdate()
	defer func() { _ = utx.Rollback() }()
	for _, c := range []struct {
		name    string
		tx      heap.Txn
		q       string
		params  []value.Value
		ceiling float64
		bytes   float64                    // bytes-per-Exec ceiling; 0 leaves bytes unchecked
		next    func(params []value.Value) // if set, readies params for the next Exec
	}{
		{"point select", rtx, `SELECT i_title, i_cost FROM item WHERE i_id = ?`,
			[]value.Value{value.NewInt(3)}, 7, 0, nil},
		{"two-table join", rtx, `SELECT i.i_title, a.a_lname FROM item i JOIN author a ON i.i_a_id = a.a_id WHERE i.i_id = ?`,
			[]value.Value{value.NewInt(4)}, 10, 0, nil},
		{"range order-by limit", rtx, `SELECT i_id, i_cost FROM item WHERE i_id >= ? ORDER BY i_cost DESC LIMIT 3`,
			[]value.Value{value.NewInt(2)}, 10, 0, nil},
		// Before the writes: a latest-version scan waits on utx's page latches.
		{"like full scan", rtx, `SELECT i_id, i_title FROM item WHERE i_title LIKE ?`,
			[]value.Value{value.NewString("%BOOK 0%")}, 10, 0, nil}, // 9 without -race
		{"best sellers", rtx, `SELECT i.i_id, i.i_title, a.a_lname, SUM(ol.ol_qty) AS qty
			FROM item i JOIN order_line ol ON ol.ol_i_id = i.i_id JOIN orders o ON ol.ol_o_id = o.o_id
			JOIN author a ON i.i_a_id = a.a_id WHERE o.o_id > ? AND i.i_subject = ?
			GROUP BY i.i_id, i.i_title, a.a_lname ORDER BY qty DESC LIMIT 50`,
			[]value.Value{value.NewInt(0), value.NewString("SCIFI")}, 34, 11300, nil}, // 33 and 10960 B without -race
		// BenchmarkTPCW_BestSellersQuery's statement over enough rows that its
		// index walks read several chunks.
		{"best sellers at scale", bigTx, `SELECT i.i_id, i.i_title, a.a_fname, a.a_lname, SUM(ol.ol_qty) AS qty
			FROM item i JOIN order_line ol ON ol.ol_i_id = i.i_id JOIN orders o ON ol.ol_o_id = o.o_id
			JOIN author a ON i.i_a_id = a.a_id WHERE o.o_id > ? AND i.i_subject = ?
			GROUP BY i.i_id, i.i_title, a.a_fname, a.a_lname ORDER BY qty DESC LIMIT 50`,
			[]value.Value{value.NewInt(0), value.NewString("S07")}, 53, 24300, nil},
		// NewProducts' shape: a join whose 34 rows are sorted and cut to a page.
		{"join order-by limit", bigTx, `SELECT i.i_id, i.i_title, a.a_fname, a.a_lname
			FROM item i JOIN author a ON i.i_a_id = a.a_id WHERE i.i_subject >= ? AND i.i_subject <= ?
			ORDER BY i.i_cost DESC, i.i_title LIMIT 20`,
			[]value.Value{value.NewString("S07"), value.NewString("S08")}, 16, 0, nil},
		{"non-aggregate having", rtx, `SELECT i_id, i_title FROM item WHERE i_id >= ? HAVING i_cost > ?`,
			[]value.Value{value.NewInt(1), value.NewFloat(4)}, 10, 0, nil},
		{"point update", utx, `UPDATE item SET i_stock = i_stock + 1 WHERE i_id = ?`,
			[]value.Value{value.NewInt(2)}, 7, 0, nil},
		{"point delete", utx, `DELETE FROM order_line WHERE ol_id = ?`,
			[]value.Value{value.NewInt(5)}, 5, 0, nil},
		// A new primary key per Exec.
		{"insert one order_line", utx, `INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty) VALUES (?, ?, ?, ?)`,
			[]value.Value{value.NewInt(1000), value.NewInt(2), value.NewInt(3), value.NewInt(1)}, 3, 0,
			func(params []value.Value) { params[0] = value.NewInt(params[0].AsInt() + 1) }},
	} {
		p, err := Prepare(c.q)
		if err != nil {
			t.Fatal(err)
		}
		var runErr error
		exec := func() {
			if c.next != nil {
				c.next(c.params)
			}
			if _, err := p.Exec(c.tx, c.params); err != nil {
				runErr = err
			}
		}
		got := testing.AllocsPerRun(200, exec)
		if runErr != nil {
			t.Fatalf("%s: %v", c.name, runErr)
		}
		bytes := bytesPerRun(200, exec)
		t.Logf("%s: %.0f allocs, %.0f B", c.name, got, bytes)
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocs per Exec, ceiling %.0f", c.name, got, c.ceiling)
		}
		if c.bytes > 0 && bytes > c.bytes {
			t.Errorf("%s: %.0f bytes per Exec, ceiling %.0f", c.name, bytes, c.bytes)
		}
	}
}

// newBestSellersDB holds newBookDB's tables at the size and with the
// indexes BenchmarkTPCW_BestSellersQuery runs on: 400 items over 24
// subjects, 50 authors, 200 orders of three lines each, and an index on
// order lines by item.
func newBestSellersDB(t *testing.T) *heap.Engine {
	t.Helper()
	e := heap.NewEngine(heap.Options{})
	for _, d := range []string{
		`CREATE TABLE author (a_id INT PRIMARY KEY, a_fname VARCHAR(20), a_lname VARCHAR(20))`,
		`CREATE TABLE item (i_id INT PRIMARY KEY, i_title VARCHAR(60), i_a_id INT, i_subject VARCHAR(20), i_cost FLOAT, i_stock INT)`,
		`CREATE TABLE orders (o_id INT PRIMARY KEY, o_c_id INT, o_total FLOAT)`,
		`CREATE TABLE order_line (ol_id INT PRIMARY KEY, ol_o_id INT, ol_i_id INT, ol_qty INT)`,
		`CREATE INDEX ix_item_subject ON item (i_subject)`,
		`CREATE INDEX ix_item_author ON item (i_a_id)`,
		`CREATE INDEX ix_ol_order ON order_line (ol_o_id)`,
		`CREATE INDEX ix_ol_item ON order_line (ol_i_id)`,
	} {
		if err := ExecDDL(e, d); err != nil {
			t.Fatalf("ddl %q: %v", d, err)
		}
	}
	load := func(table string, n int, row func(i int64) value.Row) {
		tid, _ := e.TableID(table)
		rows := make([]value.Row, 0, n)
		for i := int64(1); i <= int64(n); i++ {
			rows = append(rows, row(i))
		}
		if err := e.Load(tid, rows); err != nil {
			t.Fatal(err)
		}
	}
	load("author", 50, func(i int64) value.Row {
		return value.Row{value.NewInt(i), value.NewString(fmt.Sprintf("F%d", i)), value.NewString(fmt.Sprintf("L%d", i))}
	})
	load("item", 400, func(i int64) value.Row {
		return value.Row{value.NewInt(i), value.NewString(fmt.Sprintf("Book %03d", i)), value.NewInt(i%50 + 1),
			value.NewString(fmt.Sprintf("S%02d", i%24)), value.NewFloat(float64(i)), value.NewInt(10)}
	})
	load("orders", 200, func(i int64) value.Row {
		return value.Row{value.NewInt(i), value.NewInt(i%20 + 1), value.NewFloat(float64(i))}
	})
	load("order_line", 600, func(i int64) value.Row {
		return value.Row{value.NewInt(i), value.NewInt((i-1)/3 + 1), value.NewInt(i*7%400 + 1), value.NewInt(i%5 + 1)}
	})
	return e
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call
// of fn allocates, averaged over runs after a warm-up call.
func bytesPerRun(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
