package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmv/internal/heap"
	"dmv/internal/sql"
	"dmv/internal/value"
	"dmv/internal/vclock"
)

// materialized runs a SELECT the way the executor did before its joins
// streamed: each join level is built in full, every scanned row is copied
// into a fresh joined row before the level's residuals test it, and
// grouping runs over the finished list (groupAll). Only output, the steps
// after the join, is shared with runSelect.
func materialized(tx heap.Txn, p *plan, sel *sql.Select, params []value.Value) (*Result, error) {
	b := p.b
	top := &env{cols: b.cols, params: params, tx: tx, subs: make(subCache)}
	offset, limit, err := rowBounds(sel, top)
	if err != nil {
		return nil, err
	}
	joined := []value.Row{nil}
	if len(b.tabs) == 0 {
		joined = []value.Row{{}}
	}
	for i, tb := range b.tabs {
		lv := &p.levels[i]
		var next []value.Row
		for _, outer := range joined {
			outerEnv := *top
			outerEnv.row = outer
			matched := false
			var s scanPath
			if err := s.open(tx, tb.tid, &lv.path, &outerEnv); err != nil {
				return nil, err
			}
			for {
				_, row, ok, err := s.next()
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
				rowEnv := *top
				rowEnv.row = append(slices.Clip(outer), row...)
				if ok, err := passes(&rowEnv, lv.residualOn); err != nil {
					return nil, err
				} else if !ok {
					continue
				}
				matched = true
				ok, err = passes(&rowEnv, lv.residualWhere)
				if err != nil {
					return nil, err
				}
				if ok {
					next = append(next, rowEnv.row)
				}
			}
			if tb.ref.Join == sql.JoinLeft && !matched {
				rowEnv := *top
				rowEnv.row = append(slices.Clip(outer), make(value.Row, len(tb.def.Cols))...)
				ok, err := passes(&rowEnv, lv.residualWhere)
				if err != nil {
					return nil, err
				}
				if ok {
					next = append(next, rowEnv.row)
				}
			}
		}
		joined = next
	}
	var outs []outRow
	if p.hasAgg {
		if outs, err = groupAll(p, sel, top, joined); err != nil {
			return nil, err
		}
	} else {
		for _, row := range joined {
			outs = append(outs, outRow{row: row})
		}
	}
	return output(p, sel, top, outs, offset, limit)
}

// groupAll groups a finished join in first-seen order and computes each
// aggregate over its group's whole row list.
func groupAll(p *plan, sel *sql.Select, top *env, joined []value.Row) ([]outRow, error) {
	calls := newAggregator(p, sel).calls
	groups := map[string][]value.Row{}
	var order []string
	for _, row := range joined {
		e := *top
		e.row = row
		var keyVals value.Row
		for _, g := range p.groupBy {
			v, err := eval(g, &e)
			if err != nil {
				return nil, err
			}
			keyVals = append(keyVals, v)
		}
		k := keyVals.Key()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], row)
	}
	if len(p.groupBy) == 0 && len(order) == 0 {
		order = append(order, "") // a grand aggregate over no rows
	}
	outs := make([]outRow, 0, len(order))
	for _, k := range order {
		rows := groups[k]
		o := outRow{row: make(value.Row, p.b.width), aggs: map[*sql.Call]value.Value{}}
		if len(rows) > 0 {
			o.row = rows[0]
		}
		for _, c := range calls {
			v, err := aggregateOver(c, rows, top)
			if err != nil {
				return nil, err
			}
			o.aggs[c] = v
		}
		outs = append(outs, o)
	}
	return outs, nil
}

func aggregateOver(c *sql.Call, rows []value.Row, top *env) (value.Value, error) {
	if c.Star {
		return value.NewInt(int64(len(rows))), nil
	}
	var vals []value.Value
	seen := map[string]bool{}
	for _, row := range rows {
		e := *top
		e.row = row
		v, err := eval(c.Args[0], &e)
		if err != nil {
			return value.Value{}, err
		}
		if v.IsNull() {
			continue
		}
		if k := (value.Row{v}).Key(); c.Distinct {
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	if c.Fn == "COUNT" {
		return value.NewInt(int64(len(vals))), nil
	}
	if len(vals) == 0 {
		return value.NewNull(), nil
	}
	switch c.Fn {
	case "SUM", "AVG":
		var si int64
		var sf float64
		isF := false
		for _, v := range vals {
			si, sf, isF = si+v.AsInt(), sf+v.AsFloat(), isF || v.K == value.Float
		}
		if c.Fn == "AVG" {
			return value.NewFloat(sf / float64(len(vals))), nil
		}
		if isF {
			return value.NewFloat(sf), nil
		}
		return value.NewInt(si), nil
	case "MIN", "MAX":
		best := vals[0]
		for _, v := range vals[1:] {
			if cmp := value.Compare(v, best); (c.Fn == "MIN" && cmp < 0) || (c.Fn == "MAX" && cmp > 0) {
				best = v
			}
		}
		return best, nil
	}
	return value.Value{}, fmt.Errorf("no aggregate %s", c.Fn)
}

// newRandomDB builds four small tables of seeded random rows over small
// value domains, NULLs included, on pages of four rows. r and q carry a
// secondary index each; u and z have none, so joins into them scan.
func newRandomDB(t *testing.T, seed int64) *heap.Engine {
	t.Helper()
	e := heap.NewEngine(heap.Options{PageCap: 4})
	for _, d := range []string{
		`CREATE TABLE r (id INT PRIMARY KEY, k INT, v INT, s VARCHAR(4))`,
		`CREATE INDEX ix_r_k ON r (k)`,
		`CREATE TABLE q (id INT PRIMARY KEY, rk INT, w INT, t VARCHAR(4))`,
		`CREATE INDEX ix_q_rk ON q (rk)`,
		`CREATE TABLE u (id INT PRIMARY KEY, qw INT, x INT)`,
		`CREATE TABLE z (id INT PRIMARY KEY, ux INT, y INT)`,
	} {
		if err := ExecDDL(e, d); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	num := func(n int) value.Value {
		if rng.Intn(8) == 0 {
			return value.NewNull()
		}
		return value.NewInt(int64(rng.Intn(n)))
	}
	str := func() value.Value {
		if rng.Intn(8) == 0 {
			return value.NewNull()
		}
		return value.NewString(string(rune('a' + rng.Intn(3))))
	}
	tx := e.BeginUpdate()
	for _, tb := range []struct {
		cols string
		vals func() []value.Value
	}{
		{"r (id, k, v, s)", func() []value.Value { return []value.Value{num(5), num(10), str()} }},
		{"q (id, rk, w, t)", func() []value.Value { return []value.Value{num(5), num(10), str()} }},
		{"u (id, qw, x)", func() []value.Value { return []value.Value{num(10), num(10)} }},
		{"z (id, ux, y)", func() []value.Value { return []value.Value{num(10), num(6)} }},
	} {
		for id, n := 1, 5+rng.Intn(10); id <= n; id++ {
			vals := append([]value.Value{value.NewInt(int64(id))}, tb.vals()...)
			q := fmt.Sprintf("INSERT INTO %s VALUES (?%s)", tb.cols, strings.Repeat(", ?", len(vals)-1))
			if _, err := Run(tx, q, vals...); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
	}
	if _, err := tx.Commit(nil); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestJoinMatchesMaterialized holds the streaming join and aggregation to
// the materializing reference on seeded random tables, under read and
// update transactions: LEFT JOINs with ON and WHERE residuals at inner and
// outer levels, self-joins over full scans, three- and four-table joins,
// and grouping with HAVING, ORDER BY, LIMIT and OFFSET. Results compare
// row for row where ORDER BY is total, as multisets otherwise.
func TestJoinMatchesMaterialized(t *testing.T) {
	cases := []struct {
		q       string
		params  []value.Value
		ordered bool
	}{
		{q: `SELECT r.id, q.id, r.v, q.w FROM r LEFT JOIN q ON q.rk = r.k AND q.w > 2 AND r.v > 1
			WHERE r.s <> 'c' AND (q.w IS NULL OR q.w < 8) ORDER BY r.id, q.id`, ordered: true},
		{q: `SELECT * FROM r LEFT JOIN u ON u.qw = r.v WHERE u.x IS NULL OR u.x > r.k`},
		{q: `SELECT a.id, b.id FROM r a JOIN r b ON b.k = a.k WHERE a.id < b.id ORDER BY a.id, b.id`, ordered: true},
		{q: `SELECT a.id, b.id, a.x FROM u a JOIN u b ON b.x = a.x WHERE a.qw <> b.qw`},
		{q: `SELECT r.id, q.id, u.id FROM r JOIN q ON q.rk = r.k JOIN u ON u.qw = q.w WHERE r.v > ? AND u.x < 7`,
			params: []value.Value{value.NewInt(2)}},
		{q: `SELECT r.id, q.id, u.id, z.id FROM r JOIN q ON q.rk = r.k LEFT JOIN u ON u.qw = q.w AND u.x > r.v
			JOIN z ON z.ux = r.v WHERE q.t <> 'b'`},
		{q: `SELECT u.id, z.id, r.id, q.id FROM u JOIN z ON z.ux = u.x JOIN r ON r.k = z.y
			LEFT JOIN q ON q.rk = r.k AND q.w < u.qw WHERE r.s = 'a' OR q.id IS NULL`},
		{q: `SELECT r.k, COUNT(*), SUM(q.w), MIN(q.t), MAX(q.w), COUNT(DISTINCT q.w) FROM r JOIN q ON q.rk = r.k
			GROUP BY r.k HAVING COUNT(*) > 1 ORDER BY r.k LIMIT 3 OFFSET 1`, ordered: true},
		{q: `SELECT q.t, SUM(r.v) AS sv, COUNT(DISTINCT u.id), AVG(u.x) FROM r JOIN q ON q.rk = r.k
			LEFT JOIN u ON u.qw = q.w GROUP BY q.t ORDER BY sv DESC, q.t LIMIT 2`, ordered: true},
		{q: `SELECT u.x, z.y, COUNT(*) AS n, MIN(z.id) FROM u JOIN z ON z.ux = u.x GROUP BY u.x, z.y HAVING MAX(u.qw) >= ?`,
			params: []value.Value{value.NewInt(3)}},
		{q: `SELECT COUNT(*), SUM(u.x), MIN(z.y), MAX(z.id) FROM u JOIN z ON z.ux = u.x`},
		{q: `SELECT COUNT(*), SUM(u.x), MIN(z.y) FROM u JOIN z ON z.ux = u.x WHERE u.id > 100`},
		{q: `SELECT DISTINCT r.k, q.w FROM r JOIN q ON q.rk = r.k ORDER BY r.k, q.w LIMIT 4 OFFSET 2`, ordered: true},
		{q: `SELECT 1 + ?, 'x'`, params: []value.Value{value.NewInt(2)}},
		{q: `SELECT COUNT(*), MAX(2)`},
	}
	for seed := int64(1); seed <= 25; seed++ {
		e := newRandomDB(t, seed)
		for _, c := range cases {
			p, err := Prepare(c.q)
			if err != nil {
				t.Fatal(err)
			}
			sel := p.stmt.(*sql.Select)
			pl, err := p.planFor(e)
			if err != nil {
				t.Fatal(err)
			}
			utx := e.BeginUpdate()
			for _, tx := range []heap.Txn{e.BeginRead(nil), utx} {
				want, err := materialized(tx, pl, sel, c.params)
				if err != nil {
					t.Fatalf("seed %d: reference %s: %v", seed, c.q, err)
				}
				got, err := p.Exec(tx, c.params)
				if err != nil {
					t.Fatalf("seed %d: %s: %v", seed, c.q, err)
				}
				if g, w := rowStrings(got.Rows, !c.ordered), rowStrings(want.Rows, !c.ordered); !slices.Equal(g, w) {
					t.Errorf("seed %d (%T): %s\n got %v\nwant %v", seed, tx, c.q, g, w)
				}
			}
			_ = utx.Rollback()
		}
	}
}

// rowStrings renders rows for comparison, sorted when order is not part of
// the result.
func rowStrings(rows []value.Row, multiset bool) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	if multiset {
		sort.Strings(out)
	}
	return out
}

// TestFullScanJoinUnderLazyApply runs a self-join whose outer level is a
// full scan on a slave at the version of a write-set still buffered on the
// table's only page, while another goroutine keeps forcing that page's lazy
// apply (Materialize takes the page's write latch every time). A join that
// descended from inside the Scan callback would take the page's read latch
// a second time behind the waiting writer and hang.
func TestFullScanJoinUnderLazyApply(t *testing.T) {
	master, slave := heap.NewEngine(heap.Options{}), heap.NewEngine(heap.Options{})
	for _, e := range []*heap.Engine{master, slave} {
		if err := ExecDDL(e, `CREATE TABLE t (id INT PRIMARY KEY, k INT)`); err != nil {
			t.Fatal(err)
		}
	}
	// commit runs q on the master and buffers its write-set on the slave.
	commit := func(q string, params ...value.Value) (vclock.Vector, error) {
		tx := master.BeginUpdate()
		if _, err := Run(tx, q, params...); err != nil {
			_ = tx.Rollback()
			return nil, err
		}
		var ws *heap.WriteSet
		if _, err := tx.Commit(func(w *heap.WriteSet) error { ws = w; return nil }); err != nil {
			return nil, err
		}
		return ws.Version, slave.ApplyWriteSet(ws)
	}
	if _, err := commit(`INSERT INTO t (id, k) VALUES (1, 0), (2, 0), (3, 1), (4, 1), (5, 2), (6, 2), (7, 3), (8, 3)`); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT a.id, b.id FROM t a JOIN t b ON b.id = a.k + 1 WHERE a.id <> b.id ORDER BY a.id, b.id`

	var (
		at   atomic.Pointer[vclock.Vector]
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() { // the lazy-apply forcer
		defer wg.Done()
		for !stop.Load() {
			if v := at.Load(); v != nil {
				_ = slave.MaterializeAll(*v)
			}
		}
	}()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 300; i++ {
			v, err := commit(`UPDATE t SET k = ? WHERE id = ?`, value.NewInt(int64(i%4)), value.NewInt(int64(i%8+1)))
			if err != nil {
				done <- err
				return
			}
			want, err := Run(master.BeginRead(v), q)
			if err != nil {
				done <- err
				return
			}
			at.Store(&v)
			got, err := Run(slave.BeginRead(v), q)
			if err != nil {
				done <- err
				return
			}
			if g, w := rowStrings(got.Rows, false), rowStrings(want.Rows, false); !slices.Equal(g, w) {
				done <- fmt.Errorf("round %d: got %v, want %v", i, g, w)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		stop.Store(true)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("self-join over a full scan hung against a lazy apply")
	}
}
