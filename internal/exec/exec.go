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

// scanPath streams the rows of one table that match an access path: a
// table cursor for a full scan, or an index cursor bounded by the path's
// probe values. A join level owns one and reopens it for every row of the
// level above, so a probe reuses the cursors' buffers and allocates
// nothing, and no latch is held while the caller works on a row.
type scanPath struct {
	tx     heap.Txn
	tid    int
	path   *accessPath
	table  heap.TableCursor
	index  heap.IndexCursor
	key    value.Row // the probe key: the equality prefix, then lo
	prefix int       // the equality prefix's length in key
	lo, hi value.Value
}

// open positions s before the first row of table tid on path, with the
// probe expressions evaluated in outer.
func (s *scanPath) open(tx heap.Txn, tid int, path *accessPath, outer *env) error {
	s.tx, s.tid, s.path = tx, tid, path
	if path.idx < 0 {
		return s.table.Seek(tx, tid)
	}
	key := s.key[:0]
	for _, e := range path.eq {
		v, err := eval(e, outer)
		if err != nil {
			return err
		}
		key = append(key, v)
	}
	s.prefix = len(key)
	if path.lo != nil {
		v, err := eval(path.lo, outer)
		if err != nil {
			return err
		}
		s.lo, key = v, append(key, v)
	}
	if path.hi != nil {
		v, err := eval(path.hi, outer)
		if err != nil {
			return err
		}
		s.hi = v
	}
	s.key = key
	return s.index.Seek(tx, tid, path.idx, key)
}

// next returns the next row on the path; ok is false at its end.
func (s *scanPath) next() (rid page.RowID, row value.Row, ok bool, err error) {
	if s.path.idx < 0 {
		rid, row, ok = s.table.Next()
		return rid, row, ok, s.table.Err()
	}
	for {
		key, rid, ok := s.index.Next()
		if !ok {
			return 0, nil, false, s.index.Err()
		}
		// Stop once the equality prefix no longer matches.
		for i, v := range s.key[:s.prefix] {
			if i >= len(key) || !value.Equal(key[i], v) {
				return 0, nil, false, nil
			}
		}
		if k := s.prefix; k < len(key) {
			if s.path.lo != nil {
				c := value.Compare(key[k], s.lo)
				if c < 0 || (c == 0 && !s.path.loInc) {
					continue // before range start (exclusive bound)
				}
			}
			if s.path.hi != nil {
				c := value.Compare(key[k], s.hi)
				if c > 0 || (c == 0 && !s.path.hiInc) {
					return 0, nil, false, nil // past range end
				}
			}
		}
		row, ok, err := s.tx.Fetch(s.tid, rid)
		if err != nil {
			return 0, nil, false, err
		}
		if ok {
			return rid, row, true, nil
		}
	}
}

// --- SELECT -----------------------------------------------------------------

// runSelect runs a SELECT. The join streams (joinWalk): each row it keeps
// goes straight to the aggregation or to the output list, and only a kept
// row is copied. output then makes the result from what it kept.
func runSelect(tx heap.Txn, p *plan, sel *sql.Select, params []value.Value) (*Result, error) {
	top := &env{cols: p.b.cols, params: params, tx: tx, subs: make(subCache)}
	offset, limit, err := rowBounds(sel, top)
	if err != nil {
		return nil, err
	}
	w := newJoinWalk(tx, p, sel, top)
	if len(p.b.tabs) == 0 {
		err = w.keep(top) // no FROM: one row without columns
	} else {
		err = w.level(0)
	}
	if err != nil {
		return nil, err
	}
	outs := w.outs
	if w.agg != nil {
		outs = w.agg.results()
	}
	return output(p, sel, top, outs, offset, limit)
}

// output makes the result of a SELECT from the rows its join kept, or from
// its groups: HAVING, ORDER BY, projection, DISTINCT, OFFSET and LIMIT.
func output(p *plan, sel *sql.Select, top *env, outs []outRow, offset, limit int) (*Result, error) {
	e := *top // evaluates one output row at a time (env.at)
	if p.having != nil {
		kept := outs[:0]
		for _, o := range outs {
			v, err := eval(p.having, e.at(o))
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
				v, err := eval(o.Expr, e.at(outs[i]))
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

	projected, err := project(p, sel, outs, &e)
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

	projected = projected[min(offset, len(projected)):]
	if limit >= 0 && limit < len(projected) {
		projected = projected[:limit]
	}
	return &Result{Cols: slices.Clone(p.cols), Rows: projected}, nil
}

// rowBounds evaluates OFFSET and LIMIT once, before the join runs; limit
// is -1 without a LIMIT clause. Either may be a parameter a client bound,
// so a negative count is an error.
func rowBounds(sel *sql.Select, e *env) (offset, limit int, err error) {
	limit = -1
	if sel.Offset != nil {
		if offset, err = rowCount("OFFSET", sel.Offset, e); err != nil {
			return 0, 0, err
		}
	}
	if sel.Limit != nil {
		if limit, err = rowCount("LIMIT", sel.Limit, e); err != nil {
			return 0, 0, err
		}
	}
	return offset, limit, nil
}

func rowCount(clause string, x sql.Expr, e *env) (int, error) {
	v, err := eval(x, e)
	if err != nil {
		return 0, err
	}
	n := v.AsInt()
	if n < 0 {
		return 0, fmt.Errorf("exec: negative %s %d", clause, n)
	}
	return int(n), nil
}

// joinWalk is one SELECT's join, run as nested iterators: a depth-first
// walk over the FROM tables in plan order, outer-major like the nested
// loops it stands for. With more than one table, level i copies its current
// row into buf[base:] (base: the table's first column), so its residuals
// read the joined row as buf[:base+width] and a row they reject is never
// copied. buf is private to the statement and never published; keep clones
// what the query keeps. A single table needs no buffer: its stored row is
// the row the residuals read.
type joinWalk struct {
	tx     heap.Txn
	p      *plan
	top    *env        // no row: binds level 0's probe expressions
	buf    value.Row   // the joined row; nil for a single table
	levels []walkLevel // one per FROM table
	agg    *aggregator // non-nil when the query aggregates
	outs   []outRow    // the kept rows when it does not
}

// walkLevel is the state of one join level for one statement.
type walkLevel struct {
	env     env      // reads this level's row; binds the next level's probes
	scan    scanPath // reopened for every row of the level above
	matched bool     // a row met the ON residuals (LEFT JOIN null extension)
}

func newJoinWalk(tx heap.Txn, p *plan, sel *sql.Select, top *env) *joinWalk {
	w := &joinWalk{tx: tx, p: p, top: top, levels: make([]walkLevel, len(p.b.tabs))}
	if len(p.b.tabs) > 1 {
		w.buf = make(value.Row, p.b.width)
	}
	for i, tb := range p.b.tabs {
		lv := &w.levels[i]
		lv.env = *top
		if w.buf != nil {
			lv.env.row = w.buf[:tb.base+len(tb.def.Cols)]
		}
	}
	if p.hasAgg {
		w.agg = newAggregator(p, sel)
	}
	return w
}

// level runs join level i under the rows levels 0..i-1 have placed. The
// scan holds no latch while a row is visited, so a deeper level, or a
// subquery in a residual, may read the pages this level reads.
func (w *joinWalk) level(i int) error {
	tb, pl, lv := &w.p.b.tabs[i], &w.p.levels[i], &w.levels[i]
	probe := w.top
	if i > 0 {
		probe = &w.levels[i-1].env
	}
	lv.matched = false
	if err := lv.scan.open(w.tx, tb.tid, &pl.path, probe); err != nil {
		return err
	}
	for {
		_, row, ok, err := lv.scan.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := w.visit(i, row); err != nil {
			return err
		}
	}
	if tb.ref.Join != sql.JoinLeft || lv.matched {
		return nil
	}
	clear(lv.env.row[tb.base:]) // the null-extended row
	if ok, err := passes(&lv.env, pl.residualWhere); err != nil || !ok {
		return err
	}
	return w.next(i)
}

// visit tests one row level i scanned against the level's residuals, the
// outer levels' rows in place, and passes it on if they hold.
func (w *joinWalk) visit(i int, row value.Row) error {
	pl, lv := &w.p.levels[i], &w.levels[i]
	w.load(i, row)
	if ok, err := passes(&lv.env, pl.residualOn); err != nil || !ok {
		return err
	}
	lv.matched = true // the ON condition matched
	if ok, err := passes(&lv.env, pl.residualWhere); err != nil || !ok {
		return err
	}
	return w.next(i)
}

// load makes row the current row of level i.
func (w *joinWalk) load(i int, row value.Row) {
	if w.buf == nil {
		w.levels[i].env.row = row
		return
	}
	copy(w.buf[w.p.b.tabs[i].base:], row)
}

// next passes on the row level i has placed: to level i+1, or from the
// last level to keep.
func (w *joinWalk) next(i int) error {
	if i+1 < len(w.levels) {
		return w.level(i + 1)
	}
	return w.keep(&w.levels[i].env)
}

// keep takes the joined row in e: the aggregator folds it into its group,
// or it joins the output. A row in the buffer is cloned when it is kept,
// by the aggregator only as a new group's first row; a stored row is kept
// as it is.
func (w *joinWalk) keep(e *env) error {
	if w.agg != nil {
		return w.agg.add(e, w.buf != nil)
	}
	row := e.row
	if w.buf != nil {
		row = row.Clone()
	}
	w.outs = append(w.outs, outRow{row: row})
	return nil
}

// outRow is one row before projection: a kept joined row, or a group's
// first row with the group's aggregate values; keys is its sort key.
type outRow struct {
	row  value.Row
	aggs map[*sql.Call]value.Value
	keys value.Row
}

// at points e at output row o and returns it.
func (e *env) at(o outRow) *env {
	e.row, e.aggs = o.row, o.aggs
	return e
}

// aggregator folds the rows the join keeps into their groups as they
// arrive, in first-seen group order. A group keeps its first row, for the
// SELECT list's plain columns, and nothing else of its input.
type aggregator struct {
	p      *plan
	calls  []*sql.Call
	groups map[string]*group
	order  []*group
	key    []byte // scratch: a group key, or a DISTINCT argument's key
}

type group struct {
	first value.Row
	state []aggState // one per aggregator.calls
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

func newAggregator(p *plan, sel *sql.Select) *aggregator {
	a := &aggregator{p: p, groups: make(map[string]*group, 64)}
	for _, se := range sel.Exprs {
		if !se.Star {
			collectAggs(se.Expr, &a.calls)
		}
	}
	if p.having != nil {
		collectAggs(p.having, &a.calls)
	}
	for _, o := range sel.OrderBy {
		collectAggs(o.Expr, &a.calls)
	}
	return a
}

// add folds the row in e into its group. shared reports that e.row is the
// join's buffer, which a new group must copy.
func (a *aggregator) add(e *env, shared bool) error {
	a.key = a.key[:0]
	for _, g := range a.p.groupBy {
		v, err := eval(g, e)
		if err != nil {
			return err
		}
		a.key = v.AppendKey(a.key)
	}
	grp, ok := a.groups[string(a.key)]
	if !ok {
		first := e.row
		if shared {
			first = first.Clone()
		}
		grp = a.newGroup(string(a.key), first)
	}
	for i, call := range a.calls {
		st := &grp.state[i]
		if call.Star {
			st.count++
			continue
		}
		v, err := eval(call.Args[0], e)
		if err != nil {
			return err
		}
		if v.IsNull() {
			continue
		}
		if call.Distinct {
			a.key = v.AppendKey(a.key[:0])
			if _, dup := st.seen[string(a.key)]; dup {
				continue
			}
			if st.seen == nil {
				st.seen = make(map[string]struct{}, 16)
			}
			st.seen[string(a.key)] = struct{}{}
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
	return nil
}

func (a *aggregator) newGroup(key string, first value.Row) *group {
	grp := &group{first: first, state: make([]aggState, len(a.calls))}
	a.groups[key] = grp
	a.order = append(a.order, grp)
	return grp
}

// results finalizes every group, in first-seen order.
func (a *aggregator) results() []outRow {
	// A grand aggregate over zero rows still yields one group.
	if len(a.p.groupBy) == 0 && len(a.order) == 0 {
		a.newGroup("", make(value.Row, a.p.b.width))
	}
	outs := make([]outRow, 0, len(a.order))
	for _, grp := range a.order {
		o := outRow{row: grp.first, aggs: make(map[*sql.Call]value.Value, len(a.calls))}
		for i, call := range a.calls {
			o.aggs[call] = grp.state[i].result(call.Fn)
		}
		outs = append(outs, o)
	}
	return outs
}

// result is the value of aggregate fn over what st folded.
func (st *aggState) result(fn string) value.Value {
	switch fn {
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

// project evaluates the SELECT list for every output row in e, each row
// allocated once at the plan's width.
func project(p *plan, sel *sql.Select, outs []outRow, e *env) ([]value.Row, error) {
	rows := make([]value.Row, 0, len(outs))
	for _, o := range outs {
		e.at(o)
		row := make(value.Row, 0, p.width)
		for _, se := range sel.Exprs {
			if se.Star {
				row = append(row, o.row...)
				continue
			}
			v, err := eval(se.Expr, e)
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
	e := env{cols: b.cols, params: params, tx: tx, subs: subs}
	var s scanPath
	if err := s.open(tx, b.tabs[0].tid, &lv.path, &e); err != nil {
		return nil, err
	}
	var rids []page.RowID
	for {
		rid, row, ok, err := s.next()
		if err != nil || !ok {
			return rids, err
		}
		e.row = row
		if ok, err := passes(&e, lv.residualWhere); err != nil {
			return nil, err
		} else if ok {
			rids = append(rids, rid)
		}
	}
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
