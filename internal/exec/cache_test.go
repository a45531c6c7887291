package exec

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"dmv/internal/heap"
	"dmv/internal/value"
)

// newEngine builds an engine from DDL and runs the given statements in one
// update transaction.
func newEngine(t *testing.T, ddl []string, stmts ...string) *heap.Engine {
	t.Helper()
	e := heap.NewEngine(heap.Options{PageCap: 4})
	for _, d := range ddl {
		if err := ExecDDL(e, d); err != nil {
			t.Fatalf("ddl %q: %v", d, err)
		}
	}
	tx := e.BeginUpdate()
	for _, q := range stmts {
		if _, err := Run(tx, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if _, err := tx.Commit(nil); err != nil {
		t.Fatal(err)
	}
	return e
}

// rowsText renders result rows as "v1,v2 v1,v2 ...".
func rowsText(res *Result) string {
	parts := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		vals := make([]string, len(r))
		for j, v := range r {
			vals[j] = v.AsString()
		}
		parts[i] = strings.Join(vals, ",")
	}
	return strings.Join(parts, " ")
}

// TestPlanCacheAcrossEngines runs one Prepared on two engines whose table t
// orders its columns differently and has different indexes, so a plan built
// on one reads the wrong ordinals and index on the other. Each run must see
// its own engine's schema, interleaved and from concurrent goroutines.
func TestPlanCacheAcrossEngines(t *testing.T) {
	var inserts []string
	for a := 1; a <= 6; a++ {
		inserts = append(inserts, fmt.Sprintf(`INSERT INTO t (a, b, c) VALUES (%d, 'x%d', %d)`, a, a, a%3))
	}
	engines := []*heap.Engine{
		newEngine(t, []string{`CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(10), c INT)`, `CREATE INDEX ix_c ON t (c)`}, inserts...),
		newEngine(t, []string{`CREATE TABLE t (c INT, b VARCHAR(10), a INT PRIMARY KEY)`, `CREATE INDEX ix_b ON t (b)`}, inserts...),
	}
	sel, err := Prepare(`SELECT a, b FROM t WHERE c = ? ORDER BY a`)
	if err != nil {
		t.Fatal(err)
	}
	selectC1 := func(e *heap.Engine) (string, error) {
		res, err := sel.Exec(e.BeginRead(nil), []value.Value{value.NewInt(1)})
		if err != nil {
			return "", err
		}
		return rowsText(res), nil
	}
	for i := 0; i < 4; i++ {
		for k, e := range engines {
			if got, err := selectC1(e); err != nil || got != "1,x1 4,x4" {
				t.Fatalf("round %d, engine %d: rows %q, %v", i, k, got, err)
			}
		}
	}

	// UPDATE plans hold the SET column ordinals too.
	up, err := Prepare(`UPDATE t SET c = ? WHERE a = ?`)
	if err != nil {
		t.Fatal(err)
	}
	for k, e := range engines {
		tx := e.BeginUpdate()
		if _, err := up.Exec(tx, []value.Value{value.NewInt(1), value.NewInt(2)}); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(nil); err != nil {
			t.Fatal(err)
		}
		if got := rowsText(query(t, e, `SELECT a, b, c FROM t WHERE a = 2`)); got != "2,x2,1" {
			t.Fatalf("engine %d after update: %q", k, got)
		}
	}

	const want = "1,x1 2,x2 4,x4"
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got, err := selectC1(engines[(g+i)%2]); err != nil || got != want {
					t.Errorf("goroutine %d, run %d: rows %q, %v; want %q", g, i, got, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPlanCacheReplansAfterCreateIndex checks DDL invalidates a cached
// plan: a CREATE INDEX between two runs of one Prepared moves the second
// run from a full scan to the index.
func TestPlanCacheReplansAfterCreateIndex(t *testing.T) {
	e := newEngine(t, []string{`CREATE TABLE t (a INT, b INT)`})
	p, err := Prepare(`SELECT b FROM t WHERE a = ?`)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (map[string]int, string) {
		t.Helper()
		tr := newTracingTx(e.BeginRead(nil))
		res, err := p.Exec(tr, []value.Value{value.NewInt(2)})
		if err != nil {
			t.Fatal(err)
		}
		return tr.access["t"], rowsText(res)
	}
	if got, _ := run(); len(got) != 1 || got["FULL SCAN"] != 1 {
		t.Fatalf("before the index: accessed t by %v", got)
	}
	// The index is created on the empty table; rows arrive after it.
	if err := ExecDDL(e, `CREATE INDEX ix_a ON t (a)`); err != nil {
		t.Fatal(err)
	}
	tx := e.BeginUpdate()
	if _, err := Run(tx, `INSERT INTO t (a, b) VALUES (1, 10), (2, 20), (3, 30)`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(nil); err != nil {
		t.Fatal(err)
	}
	got, rows := run()
	if len(got) != 1 || got["INDEX ix_a"] != 1 {
		t.Fatalf("after CREATE INDEX: accessed t by %v, want INDEX ix_a", got)
	}
	if rows != "20" {
		t.Fatalf("rows %q, want 20", rows)
	}
}

// TestSchemaFingerprint checks the fingerprint is a function of the
// catalog's content: equal for engines built by the same DDL, different
// when one index differs.
func TestSchemaFingerprint(t *testing.T) {
	ddl := []string{
		`CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(10))`,
		`CREATE TABLE u (x INT, y FLOAT)`,
		`CREATE INDEX ix_b ON t (b)`,
	}
	fp := func(ddl ...string) uint64 { return newEngine(t, ddl).SchemaFingerprint() }
	base := fp(ddl...)
	if base == heap.NewEngine(heap.Options{}).SchemaFingerprint() {
		t.Fatal("a catalog fingerprints like an empty engine")
	}
	if got := fp(ddl...); got != base {
		t.Fatalf("same DDL: %x, want %x", got, base)
	}
	for name, other := range map[string][]string{
		"index missing":          ddl[:2],
		"extra index":            append(ddl[:3:3], `CREATE INDEX ix_y ON u (y)`),
		"index unique":           {ddl[0], ddl[1], `CREATE UNIQUE INDEX ix_b ON t (b)`},
		"index on other col":     {ddl[0], ddl[1], `CREATE INDEX ix_b ON t (a)`},
		"columns in other order": {`CREATE TABLE t (b VARCHAR(10), a INT PRIMARY KEY)`, ddl[1], ddl[2]},
	} {
		if got := fp(other...); got == base {
			t.Errorf("%s: fingerprint unchanged", name)
		}
	}
}
