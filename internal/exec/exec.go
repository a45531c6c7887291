package exec

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"dmv/internal/heap"
	"dmv/internal/page"
	"dmv/internal/sql"
	"dmv/internal/value"
)

// Result is the outcome of executing one statement.
type Result struct {
	Cols     []string    // column names (SELECT only)
	Rows     []value.Row // result rows (SELECT only)
	Affected int         // rows changed (INSERT/UPDATE/DELETE)
}

// Prepared is a parsed, reusable statement; execution binds positional
// parameters. Exec never mutates its text or AST, and caches its plan tagged
// with the schema fingerprint of the engine it was built on; on an engine
// with another fingerprint (another schema, or DDL since) Exec re-plans. So
// one Prepared is safe to share between goroutines, engines and nodes.
type Prepared struct {
	text string
	stmt sql.Statement
	plan atomic.Pointer[plan]
}

// Prepare parses a statement for repeated execution, bypassing the cache.
func Prepare(text string) (*Prepared, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	return &Prepared{text: text, stmt: stmt}, nil
}

// maxCachedStmts bounds the statement cache. Statement text arrives from
// callers of the public API, so an unbounded map is a leak; a workload's
// distinct statements number in the tens, so the bound is only ever hit by
// callers that splice literals into the text, and dropping the whole map
// then costs the steady ones a single re-parse each.
const maxCachedStmts = 4096

// stmtCache is the process-wide prepared-statement cache behind Cached: the
// scheduler's update classification, every node's session layer and the
// persistence tier's replay all resolve statement text through it.
type stmtCache struct {
	mu sync.RWMutex
	m  map[string]*Prepared // guarded by mu
}

var stmts = stmtCache{m: make(map[string]*Prepared, 64)}

// Cached returns the shared Prepared for text, parsing it on first use. A
// hit is one read lock and one map lookup with no allocation; parse errors
// are not cached.
func Cached(text string) (*Prepared, error) {
	stmts.mu.RLock()
	p, ok := stmts.m[text]
	stmts.mu.RUnlock()
	if ok {
		return p, nil
	}
	p, err := Prepare(text)
	if err != nil {
		return nil, err
	}
	stmts.mu.Lock()
	if len(stmts.m) >= maxCachedStmts {
		stmts.m = make(map[string]*Prepared, 64)
	}
	stmts.m[text] = p
	stmts.mu.Unlock()
	return p, nil
}

// Text returns the original statement text.
func (p *Prepared) Text() string { return p.text }

// Stmt exposes the parsed AST (the scheduler inspects statement class).
func (p *Prepared) Stmt() sql.Statement { return p.stmt }

// ReadOnly reports whether the statement performs no writes.
func (p *Prepared) ReadOnly() bool {
	switch p.stmt.(type) {
	case *sql.Select:
		return true
	default:
		return false
	}
}

// TableNames lists the tables the statement touches (conflict-class
// routing).
func (p *Prepared) TableNames() []string {
	switch s := p.stmt.(type) {
	case *sql.Select:
		out := make([]string, 0, len(s.From))
		for _, f := range s.From {
			out = append(out, f.Table)
		}
		return out
	case *sql.Insert:
		return []string{s.Table}
	case *sql.Update:
		return []string{s.Table}
	case *sql.Delete:
		return []string{s.Table}
	default:
		return nil
	}
}

// Exec runs the prepared statement in the given storage transaction.
func (p *Prepared) Exec(tx heap.Txn, params []value.Value) (*Result, error) {
	if ins, ok := p.stmt.(*sql.Insert); ok {
		return runInsert(tx, ins, params)
	}
	pl, err := p.planFor(tx.Engine())
	if err != nil {
		return nil, err
	}
	switch s := p.stmt.(type) {
	case *sql.Select:
		return runSelect(tx, pl, s, params)
	case *sql.Update:
		return runUpdate(tx, pl, s, params)
	default:
		return runDelete(tx, pl, params)
	}
}

// planFor returns the cached plan if it was built under e's fingerprint,
// else plans and caches. Reading the fingerprint first tags a plan racing
// DDL with the older schema, so its next use rebuilds it.
func (p *Prepared) planFor(e *heap.Engine) (*plan, error) {
	fp := e.SchemaFingerprint()
	if pl := p.plan.Load(); pl != nil && pl.fp == fp {
		checkCachedPlan(p, e, pl)
		return pl, nil
	}
	pl, err := planStmt(e, p.stmt)
	if err != nil {
		return nil, err
	}
	pl.fp = fp
	p.plan.Store(pl)
	return pl, nil
}

// Run parses and executes text in one step (tests and examples).
func Run(tx heap.Txn, text string, params ...value.Value) (*Result, error) {
	p, err := Prepare(text)
	if err != nil {
		return nil, err
	}
	return p.Exec(tx, params)
}

// ExecDDL applies CREATE TABLE / CREATE INDEX directly to an engine. A
// PRIMARY KEY column implies a unique index named pk_<table>.
func ExecDDL(e *heap.Engine, text string) error {
	stmt, err := sql.Parse(text)
	if err != nil {
		return err
	}
	switch s := stmt.(type) {
	case *sql.CreateTable:
		def := heap.TableDef{Name: s.Name}
		pk := -1
		for i, c := range s.Cols {
			def.Cols = append(def.Cols, heap.Column{Name: c.Name, Type: c.Type})
			if c.PrimaryKey {
				pk = i
			}
		}
		tid, err := e.CreateTable(def)
		if err != nil {
			return err
		}
		if pk >= 0 {
			if _, err := e.CreateIndex(tid, heap.IndexDef{
				Name:   "pk_" + s.Name,
				Cols:   []int{pk},
				Unique: true,
			}); err != nil {
				return err
			}
		}
		return nil
	case *sql.CreateIndex:
		tid, ok := e.TableID(s.Table)
		if !ok {
			return fmt.Errorf("exec: create index on unknown table %q", s.Table)
		}
		def, err := e.TableDef(tid)
		if err != nil {
			return err
		}
		cols := make([]int, 0, len(s.Cols))
		for _, c := range s.Cols {
			ord := def.ColIndex(c)
			if ord < 0 {
				return fmt.Errorf("exec: create index: %w: %s.%s", ErrUnknownColumn, s.Table, c)
			}
			cols = append(cols, ord)
		}
		_, err = e.CreateIndex(tid, heap.IndexDef{Name: s.Name, Cols: cols, Unique: s.Unique})
		return err
	default:
		return fmt.Errorf("exec: ExecDDL got non-DDL statement %T", stmt)
	}
}

// --- execution -------------------------------------------------------------

// scanPath streams the rows of table tid matching the access path, given
// the outer environment (for probe-expression evaluation).
func scanPath(tx heap.Txn, tid int, path accessPath, outer *env, fn func(rid page.RowID, row value.Row) (bool, error)) error {
	if path.idx < 0 {
		var ferr error
		err := tx.Scan(tid, func(rid page.RowID, row value.Row) bool {
			cont, err := fn(rid, row)
			if err != nil {
				ferr = err
				return false
			}
			return cont
		})
		if err != nil {
			return err
		}
		return ferr
	}
	// Evaluate probe values.
	prefix := make(value.Row, 0, len(path.eq)+1)
	for _, e := range path.eq {
		v, err := eval(e, outer)
		if err != nil {
			return err
		}
		prefix = append(prefix, v)
	}
	var loV, hiV value.Value
	haveLo, haveHi := false, false
	if path.lo != nil {
		v, err := eval(path.lo, outer)
		if err != nil {
			return err
		}
		loV, haveLo = v, true
	}
	if path.hi != nil {
		v, err := eval(path.hi, outer)
		if err != nil {
			return err
		}
		hiV, haveHi = v, true
	}
	from := prefix
	if haveLo {
		from = append(prefix.Clone(), loV)
	}
	var ferr error
	err := tx.IndexScan(tid, path.idx, from, func(key value.Row, rid page.RowID) bool {
		// Stop once the equality prefix no longer matches.
		for i := range prefix {
			if i >= len(key) || !value.Equal(key[i], prefix[i]) {
				return false
			}
		}
		if haveLo || haveHi {
			k := len(prefix)
			if k < len(key) {
				if haveLo {
					c := value.Compare(key[k], loV)
					if c < 0 || (c == 0 && !path.loInc) {
						return true // before range start (exclusive bound)
					}
				}
				if haveHi {
					c := value.Compare(key[k], hiV)
					if c > 0 || (c == 0 && !path.hiInc) {
						return false // past range end
					}
				}
			}
		}
		row, ok, err := tx.Fetch(tid, rid)
		if err != nil {
			ferr = err
			return false
		}
		if !ok {
			return true
		}
		cont, err := fn(rid, row)
		if err != nil {
			ferr = err
			return false
		}
		return cont
	})
	if err != nil {
		return err
	}
	return ferr
}

// --- SELECT -----------------------------------------------------------------

func runSelect(tx heap.Txn, p *plan, sel *sql.Select, params []value.Value) (*Result, error) {
	var err error
	b := p.b
	subs := make(subCache)

	// Join pipeline: materialize level by level.
	joined := []value.Row{nil}
	if len(b.tabs) == 0 {
		joined = []value.Row{{}}
	}
	for i := range b.tabs {
		lv := &p.levels[i]
		leftJoin := b.tabs[i].ref.Join == sql.JoinLeft
		nullRow := make(value.Row, len(b.tabs[i].def.Cols))
		next := make([]value.Row, 0, len(joined))
		for _, outerRow := range joined {
			outerEnv := &env{cols: b.cols, row: outerRow, params: params, tx: tx, subs: subs}
			matched := false
			err := scanPath(tx, b.tabs[i].tid, lv.path, outerEnv, func(_ page.RowID, row value.Row) (bool, error) {
				combined := make(value.Row, 0, len(outerRow)+len(row))
				combined = append(combined, outerRow...)
				combined = append(combined, row...)
				rowEnv := &env{cols: b.cols, row: combined, params: params, tx: tx, subs: subs}
				if ok, err := passes(rowEnv, lv.residualOn); err != nil || !ok {
					return err == nil, err
				}
				matched = true // the ON condition matched
				if ok, err := passes(rowEnv, lv.residualWhere); err != nil || !ok {
					return err == nil, err
				}
				next = append(next, combined)
				return true, nil
			})
			if err != nil {
				return nil, err
			}
			if leftJoin && !matched {
				combined := make(value.Row, 0, len(outerRow)+len(nullRow))
				combined = append(combined, outerRow...)
				combined = append(combined, nullRow...)
				rowEnv := &env{cols: b.cols, row: combined, params: params, tx: tx, subs: subs}
				ok, err := passes(rowEnv, lv.residualWhere)
				if err != nil {
					return nil, err
				}
				if ok {
					next = append(next, combined)
				}
			}
		}
		joined = next
	}

	var outs []outRow
	if p.hasAgg {
		outs, err = aggregate(tx, subs, p, sel, joined, params)
		if err != nil {
			return nil, err
		}
	} else {
		outs = make([]outRow, 0, len(joined))
		for _, row := range joined {
			outs = append(outs, outRow{env: &env{cols: b.cols, row: row, params: params, tx: tx, subs: subs}})
		}
	}

	// HAVING (aggregate filters handled in aggregate(); non-agg HAVING here).
	if p.having != nil && !p.hasAgg {
		kept := outs[:0]
		for _, o := range outs {
			v, err := eval(p.having, o.env)
			if err != nil {
				return nil, err
			}
			if truthy(v) {
				kept = append(kept, o)
			}
		}
		outs = kept
	}

	// ORDER BY keys.
	if orderBy := p.orderBy; len(orderBy) > 0 {
		for i := range outs {
			keys := make(value.Row, len(orderBy))
			for j, o := range orderBy {
				v, err := eval(o.Expr, outs[i].env)
				if err != nil {
					return nil, err
				}
				keys[j] = v
			}
			outs[i].keys = keys
		}
		sort.SliceStable(outs, func(x, y int) bool {
			for j, o := range orderBy {
				c := value.Compare(outs[x].keys[j], outs[y].keys[j])
				if c == 0 {
					continue
				}
				if o.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}

	projected, err := project(p, sel, outs)
	if err != nil {
		return nil, err
	}

	if sel.Distinct {
		seen := make(map[string]struct{}, len(projected))
		kept := projected[:0]
		for _, r := range projected {
			k := r.Key()
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			kept = append(kept, r)
		}
		projected = kept
	}

	// OFFSET / LIMIT.
	if sel.Offset != nil {
		v, err := eval(sel.Offset, &env{cols: b.cols, params: params, tx: tx, subs: subs})
		if err != nil {
			return nil, err
		}
		n := int(v.AsInt())
		if n > len(projected) {
			n = len(projected)
		}
		projected = projected[n:]
	}
	if sel.Limit != nil {
		v, err := eval(sel.Limit, &env{cols: b.cols, params: params, tx: tx, subs: subs})
		if err != nil {
			return nil, err
		}
		n := int(v.AsInt())
		if n < len(projected) {
			projected = projected[:n]
		}
	}
	return &Result{Cols: slices.Clone(p.cols), Rows: projected}, nil
}

type outRow struct {
	env  *env
	keys value.Row
}

// aggregate groups the joined rows and computes aggregate values; HAVING
// with aggregates is applied here.
func aggregate(tx heap.Txn, subs subCache, p *plan, sel *sql.Select, joined []value.Row, params []value.Value) ([]outRow, error) {
	b, groupBy := p.b, p.groupBy
	var aggCalls []*sql.Call
	for _, se := range sel.Exprs {
		if !se.Star {
			collectAggs(se.Expr, &aggCalls)
		}
	}
	if p.having != nil {
		collectAggs(p.having, &aggCalls)
	}
	for _, o := range sel.OrderBy {
		collectAggs(o.Expr, &aggCalls)
	}

	type aggState struct {
		count  int64
		sumI   int64
		sumF   float64
		asF    bool
		minSet bool
		minV   value.Value
		maxV   value.Value
		seen   map[string]struct{} // DISTINCT aggregates
	}
	type group struct {
		first value.Row
		state []*aggState
	}
	groups := make(map[string]*group, 64)
	var order []string
	for _, row := range joined {
		e := &env{cols: b.cols, row: row, params: params, tx: tx, subs: subs}
		keyVals := make(value.Row, len(groupBy))
		for i, g := range groupBy {
			v, err := eval(g, e)
			if err != nil {
				return nil, err
			}
			keyVals[i] = v
		}
		k := keyVals.Key()
		grp, ok := groups[k]
		if !ok {
			grp = &group{first: row, state: make([]*aggState, len(aggCalls))}
			for i := range grp.state {
				grp.state[i] = &aggState{}
			}
			groups[k] = grp
			order = append(order, k)
		}
		for i, call := range aggCalls {
			st := grp.state[i]
			if call.Star {
				st.count++
				continue
			}
			v, err := eval(call.Args[0], e)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				continue
			}
			if call.Distinct {
				if st.seen == nil {
					st.seen = make(map[string]struct{}, 16)
				}
				k := value.Row{v}.Key()
				if _, dup := st.seen[k]; dup {
					continue
				}
				st.seen[k] = struct{}{}
			}
			st.count++
			if v.K == value.Float {
				st.asF = true
			}
			st.sumI += v.AsInt()
			st.sumF += v.AsFloat()
			if !st.minSet {
				st.minV, st.maxV, st.minSet = v, v, true
			} else {
				if value.Compare(v, st.minV) < 0 {
					st.minV = v
				}
				if value.Compare(v, st.maxV) > 0 {
					st.maxV = v
				}
			}
		}
	}
	// A grand aggregate over zero rows still yields one group.
	if len(groupBy) == 0 && len(groups) == 0 {
		grp := &group{first: make(value.Row, b.width), state: make([]*aggState, len(aggCalls))}
		for i := range grp.state {
			grp.state[i] = &aggState{}
		}
		groups[""] = grp
		order = append(order, "")
	}

	finalize := func(call *sql.Call, st *aggState) value.Value {
		switch call.Fn {
		case "COUNT":
			return value.NewInt(st.count)
		case "SUM":
			if st.count == 0 {
				return value.NewNull()
			}
			if st.asF {
				return value.NewFloat(st.sumF)
			}
			return value.NewInt(st.sumI)
		case "AVG":
			if st.count == 0 {
				return value.NewNull()
			}
			return value.NewFloat(st.sumF / float64(st.count))
		case "MIN":
			if !st.minSet {
				return value.NewNull()
			}
			return st.minV
		case "MAX":
			if !st.minSet {
				return value.NewNull()
			}
			return st.maxV
		}
		return value.NewNull()
	}

	outs := make([]outRow, 0, len(groups))
	for _, k := range order {
		grp := groups[k]
		aggVals := make(map[*sql.Call]value.Value, len(aggCalls))
		for i, call := range aggCalls {
			aggVals[call] = finalize(call, grp.state[i])
		}
		e := &env{cols: b.cols, row: grp.first, params: params, aggs: aggVals, tx: tx, subs: subs}
		if p.having != nil {
			v, err := eval(p.having, e)
			if err != nil {
				return nil, err
			}
			if !truthy(v) {
				continue
			}
		}
		outs = append(outs, outRow{env: e})
	}
	return outs, nil
}

// project evaluates the SELECT list for every output row, each row
// allocated once at the plan's width.
func project(p *plan, sel *sql.Select, outs []outRow) ([]value.Row, error) {
	rows := make([]value.Row, 0, len(outs))
	for _, o := range outs {
		row := make(value.Row, 0, p.width)
		for _, se := range sel.Exprs {
			if se.Star {
				row = append(row, o.env.row...)
				continue
			}
			v, err := eval(se.Expr, o.env)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// --- INSERT / UPDATE / DELETE -----------------------------------------------

func runInsert(tx heap.Txn, ins *sql.Insert, params []value.Value) (*Result, error) {
	tid, ok := tx.Engine().TableID(ins.Table)
	if !ok {
		return nil, fmt.Errorf("exec: unknown table %q", ins.Table)
	}
	def, err := tx.Engine().TableDef(tid)
	if err != nil {
		return nil, err
	}
	ords := make([]int, 0, len(ins.Cols))
	if len(ins.Cols) == 0 {
		for i := range def.Cols {
			ords = append(ords, i)
		}
	} else {
		for _, c := range ins.Cols {
			ord := def.ColIndex(c)
			if ord < 0 {
				return nil, fmt.Errorf("exec: %w: %s.%s", ErrUnknownColumn, ins.Table, c)
			}
			ords = append(ords, ord)
		}
	}
	e := &env{cols: map[string]int{}, params: params, tx: tx, subs: make(subCache)}
	n := 0
	for _, exprRow := range ins.Rows {
		if len(exprRow) != len(ords) {
			return nil, fmt.Errorf("exec: INSERT %s: %d values for %d columns", ins.Table, len(exprRow), len(ords))
		}
		row := make(value.Row, len(def.Cols))
		for i, ex := range exprRow {
			v, err := eval(ex, e)
			if err != nil {
				return nil, err
			}
			row[ords[i]] = v
		}
		if _, err := tx.Insert(tid, row); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Affected: n}, nil
}

// passes reports whether every predicate holds for the row in rowEnv.
func passes(rowEnv *env, preds []sql.Expr) (bool, error) {
	for _, r := range preds {
		v, err := eval(r, rowEnv)
		if err != nil {
			return false, err
		}
		if !truthy(v) {
			return false, nil
		}
	}
	return true, nil
}

// targetRows finds the row ids an UPDATE's or DELETE's WHERE clause
// matches, through the access path and residuals of its plan.
func targetRows(tx heap.Txn, p *plan, params []value.Value, subs subCache) ([]page.RowID, error) {
	b, lv := p.b, &p.levels[0]
	outerEnv := &env{cols: b.cols, params: params, tx: tx, subs: subs}
	var rids []page.RowID
	err := scanPath(tx, b.tabs[0].tid, lv.path, outerEnv, func(rid page.RowID, row value.Row) (bool, error) {
		ok, err := passes(&env{cols: b.cols, row: row, params: params, tx: tx, subs: subs}, lv.residualWhere)
		if ok {
			rids = append(rids, rid)
		}
		return err == nil, err
	})
	return rids, err
}

func runUpdate(tx heap.Txn, p *plan, up *sql.Update, params []value.Value) (*Result, error) {
	subs := make(subCache)
	rids, err := targetRows(tx, p, params, subs)
	if err != nil {
		return nil, err
	}
	tb := p.b.tabs[0]
	n := 0
	for _, rid := range rids {
		row, ok, err := tx.Fetch(tb.tid, rid)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		e := &env{cols: p.b.cols, row: row, params: params, tx: tx, subs: subs}
		newRow := row.Clone()
		for i, s := range up.Sets {
			v, err := eval(s.Expr, e)
			if err != nil {
				return nil, err
			}
			newRow[p.sets[i]] = v
		}
		if err := tx.Update(tb.tid, rid, newRow); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Affected: n}, nil
}

func runDelete(tx heap.Txn, p *plan, params []value.Value) (*Result, error) {
	rids, err := targetRows(tx, p, params, make(subCache))
	if err != nil {
		return nil, err
	}
	for _, rid := range rids {
		if err := tx.Delete(p.b.tabs[0].tid, rid); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(rids)}, nil
}
