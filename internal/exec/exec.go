package exec

import (
	"fmt"
	"slices"
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
	pl, err := p.planFor(tx.Engine())
	if err != nil {
		return nil, err
	}
	switch p.stmt.(type) {
	case *sql.Select:
		return runSelect(tx, pl, params)
	case *sql.Insert:
		return runInsert(tx, pl, params)
	case *sql.Update:
		return runUpdate(tx, pl, params)
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

// LoggedStmt is one update statement of a committed transaction, as the
// scheduler hands it to the persistence tier and the on-disk baseline's
// binlog keeps it.
type LoggedStmt struct {
	Text   string
	Params []value.Value
}

// Replay runs stmts as one update transaction on e and commits it; the
// first failing statement rolls it back. Every replay of a statement log
// goes through it. It charges no cost model: each caller charges its own.
func Replay(e *heap.Engine, stmts []LoggedStmt) error {
	tx := e.BeginUpdate()
	for _, s := range stmts {
		p, err := Cached(s.Text)
		if err == nil {
			_, err = p.Exec(tx, s.Params)
		}
		if err != nil {
			_ = tx.Rollback()
			return err
		}
	}
	_, err := tx.Commit(nil)
	return err
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
// goes straight to the aggregation, or is evaluated into the statement's
// output slab (keptRows). The result is made from the one or the other.
func runSelect(tx heap.Txn, p *plan, params []value.Value) (*Result, error) {
	w := newJoinWalk(tx, p, params)
	offset, limit, err := rowBounds(p, &w.top)
	if err != nil {
		return nil, err
	}
	if len(p.b.tabs) == 0 {
		err = w.keep(&w.top) // no FROM: one row without columns
	} else {
		err = w.level(0)
	}
	if err != nil {
		return nil, err
	}
	if w.agg != nil {
		return outputGroups(p, &w.top, w.agg.results(), offset, limit)
	}
	return w.kept.result(p, offset, limit), nil
}

// keptRows is the output of a query without aggregation, built as its join
// keeps rows: each row's SELECT list and then its ORDER BY keys, evaluated
// into one slab that grows with the rows. No joined row outlives the join.
type keptRows struct {
	slab []value.Value
	n    int // rows in slab
}

// add evaluates the row in e into the slab if the query's HAVING holds for
// it: its SELECT list, then its ORDER BY keys.
func (k *keptRows) add(p *plan, e *env) error {
	if p.having != nil {
		v, err := eval(p.having, e)
		if err != nil || !truthy(v) {
			return err
		}
	}
	at, stride := len(k.slab), p.width+len(p.orderBy)
	k.slab = grow(k.slab, stride)
	row := k.slab[at:]
	if err := project(p, e, row[:p.width]); err != nil {
		return err
	}
	for j, o := range p.orderBy {
		v, err := eval(o.x, e)
		if err != nil {
			return err
		}
		row[p.width+j] = v
	}
	k.n++
	return nil
}

// result sorts the kept rows by their keys, drops duplicates for DISTINCT
// and applies OFFSET and LIMIT. The slab no longer grows, so the rows it
// hands out are capped windows onto it.
func (k *keptRows) result(p *plan, offset, limit int) *Result {
	w, stride := p.width, p.width+len(p.orderBy)
	rows := make([]value.Row, k.n)
	for i := range rows {
		rows[i] = k.slab[i*stride : i*stride+stride : i*stride+stride]
	}
	if len(p.orderBy) > 0 {
		slices.SortStableFunc(rows, func(a, b value.Row) int {
			return compareKeys(p.orderBy, a[w:], b[w:])
		})
	}
	for i, r := range rows {
		rows[i] = r[:w:w]
	}
	if p.distinct {
		rows = distinct(rows)
	}
	return &Result{Cols: p.cols[:len(p.cols):len(p.cols)], Rows: bounds(rows, offset, limit)}
}

// outputGroups makes the result of an aggregate query from its groups:
// HAVING, ORDER BY, OFFSET and LIMIT over the groups, and projection of the
// groups they keep (of every group, for DISTINCT, which must see them all).
// The sort moves group ordinals; one slab holds every group's keys, and
// then the joined row a group is evaluated in.
func outputGroups(p *plan, top *env, g *groupRows, offset, limit int) (*Result, error) {
	nk := len(p.orderBy)
	keys := make([]value.Value, g.n*nk+p.b.width)
	e := *top
	e.row = keys[g.n*nk:]
	kept := make([]int, 0, g.n)
	for i := 0; i < g.n; i++ {
		g.load(p, i, &e)
		if p.having != nil {
			v, err := eval(p.having, &e)
			if err != nil {
				return nil, err
			}
			if !truthy(v) {
				continue
			}
		}
		for j, o := range p.orderBy {
			v, err := eval(o.x, &e)
			if err != nil {
				return nil, err
			}
			keys[i*nk+j] = v
		}
		kept = append(kept, i)
	}
	if nk > 0 {
		slices.SortStableFunc(kept, func(a, b int) int {
			return compareKeys(p.orderBy, keys[a*nk:a*nk+nk], keys[b*nk:b*nk+nk])
		})
	}
	if !p.distinct {
		kept = bounds(kept, offset, limit)
	}
	w := p.width
	slab := make([]value.Value, len(kept)*w)
	rows := make([]value.Row, len(kept))
	for i, grp := range kept {
		g.load(p, grp, &e)
		rows[i] = slab[i*w : i*w+w : i*w+w]
		if err := project(p, &e, rows[i]); err != nil {
			return nil, err
		}
	}
	if p.distinct {
		rows = bounds(distinct(rows), offset, limit)
	}
	return &Result{Cols: p.cols[:len(p.cols):len(p.cols)], Rows: rows}, nil
}

// compareKeys orders two rows' ORDER BY keys.
func compareKeys(orderBy []orderKey, a, b value.Row) int {
	for j, o := range orderBy {
		if c := value.Compare(a[j], b[j]); c != 0 {
			if o.desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// distinct keeps the first of equal rows, in place.
func distinct(rows []value.Row) []value.Row {
	seen := make(map[string]struct{}, len(rows))
	kept := rows[:0]
	for _, r := range rows {
		k := r.Key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		kept = append(kept, r)
	}
	return kept
}

// bounds applies OFFSET and LIMIT (limit < 0: none) to s.
func bounds[T any](s []T, offset, limit int) []T {
	s = s[min(offset, len(s)):]
	if limit >= 0 && limit < len(s) {
		s = s[:limit]
	}
	return s
}

// rowBounds evaluates OFFSET and LIMIT once, before the join runs; limit
// is -1 without a LIMIT clause. Either may be a parameter a client bound,
// so a negative count is an error.
func rowBounds(p *plan, e *env) (offset, limit int, err error) {
	limit = -1
	if p.offset != nil {
		if offset, err = rowCount("OFFSET", p.offset, e); err != nil {
			return 0, 0, err
		}
	}
	if p.limit != nil {
		if limit, err = rowCount("LIMIT", p.limit, e); err != nil {
			return 0, 0, err
		}
	}
	return offset, limit, nil
}

func rowCount(clause string, x expr, e *env) (int, error) {
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
// copied. buf is private to the statement and never published, and no row
// leaves it: keep evaluates what the query keeps of it. A single table
// needs no buffer: its stored row is the row the residuals read.
type joinWalk struct {
	tx     heap.Txn
	p      *plan
	top    env         // no row: binds level 0's probe expressions
	subs   subCache    // the statement's subquery results, shared by every env
	buf    value.Row   // the joined row; nil for a single table
	levels []walkLevel // one per FROM table
	agg    *aggregator // the groups when the query aggregates
	kept   keptRows    // the output when it does not
}

// walkLevel is the state of one join level for one statement.
type walkLevel struct {
	env     env      // reads this level's row; binds the next level's probes
	scan    scanPath // reopened for every row of the level above
	matched bool     // a row met the ON residuals (LEFT JOIN null extension)
}

func newJoinWalk(tx heap.Txn, p *plan, params []value.Value) *joinWalk {
	w := &joinWalk{tx: tx, p: p, levels: make([]walkLevel, len(p.b.tabs))}
	w.top = env{params: params, tx: tx, subs: &w.subs}
	if len(p.b.tabs) > 1 {
		w.buf = make(value.Row, p.b.width)
	}
	for i, tb := range p.b.tabs {
		lv := &w.levels[i]
		lv.env = w.top
		if w.buf != nil {
			lv.env.row = w.buf[:tb.base+len(tb.def.Cols)]
		}
	}
	if p.hasAgg {
		w.agg = &aggregator{p: p}
	}
	return w
}

// level runs join level i under the rows levels 0..i-1 have placed. The
// scan holds no latch while a row is visited, so a deeper level, or a
// subquery in a residual, may read the pages this level reads.
func (w *joinWalk) level(i int) error {
	tb, pl, lv := &w.p.b.tabs[i], &w.p.levels[i], &w.levels[i]
	probe := &w.top
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
// or its output is evaluated into the kept rows. The row itself is not
// kept; a new group copies the columns of it that its output reads.
func (w *joinWalk) keep(e *env) error {
	if w.agg != nil {
		return w.agg.add(e)
	}
	return w.kept.add(w.p, e)
}

// aggregator folds the rows the join keeps into their groups as they
// arrive, in first-seen group order. Group i keeps the plan.groupCols of its
// first row at firsts[i*len(groupCols):], and its states, one per
// plan.calls, at states[i*len(calls):]; nothing else of its input.
type aggregator struct {
	p      *plan
	groups map[string]int // group ordinals by key; made by the first group
	n      int            // groups
	firsts []value.Value
	states []aggState
	key    []byte    // scratch: a group key, or a DISTINCT argument's key
	out    groupRows // the groups, once results has finalized them
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

// add folds the row in e into its group.
func (a *aggregator) add(e *env) error {
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
		grp = a.newGroup(string(a.key), e.row)
	}
	calls := a.p.calls
	states := a.states[grp*len(calls) : (grp+1)*len(calls)]
	for i, call := range calls {
		st := &states[i]
		if call.Star {
			st.count++
			continue
		}
		v, err := eval(call.arg, e)
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

// newGroup adds the group of key with first row row (nulls past its end)
// and returns its ordinal.
func (a *aggregator) newGroup(key string, row value.Row) int {
	if a.groups == nil {
		a.groups = make(map[string]int, 64)
	}
	grp := a.n
	a.groups[key] = grp
	a.n++
	at := len(a.firsts)
	a.firsts = grow(a.firsts, len(a.p.groupCols))
	for j, off := range a.p.groupCols {
		if off < len(row) {
			a.firsts[at+j] = row[off]
		}
	}
	a.states = grow(a.states, len(a.p.calls))
	return grp
}

// grow extends s by n zero values. Past its first allocation, made at
// len+n, s grows as append grows it: about doubling, up to a size class.
// (append(s, make([]T, n)...) would too, but allocates the make under
// -race.)
func grow[T any](s []T, n int) []T {
	at := len(s)
	if at+n > cap(s) && cap(s) > 0 {
		var zero T
		s = append(s[:cap(s)], zero)[:at]
	}
	if at+n > cap(s) {
		s = append(make([]T, 0, at+n), s...)
	}
	s = s[:at+n]
	clear(s[at:])
	return s
}

// results finalizes every group, in first-seen order.
func (a *aggregator) results() *groupRows {
	// A grand aggregate over zero rows still yields one group.
	if len(a.p.groupBy) == 0 && a.n == 0 {
		a.newGroup("", nil)
	}
	calls := a.p.calls
	a.out = groupRows{n: a.n, firsts: a.firsts, aggs: make([]value.Value, len(a.states))}
	for i := range a.out.aggs {
		a.out.aggs[i] = a.states[i].result(calls[i%len(calls)].Fn)
	}
	return &a.out
}

// groupRows is an aggregate query's n groups in first-seen order: group i's
// plan.groupCols of its first row are firsts[i*len(groupCols):], and its
// aggregate values, one per plan.calls, aggs[i*len(calls):].
type groupRows struct {
	n            int
	firsts, aggs []value.Value
}

// load makes group i the group e evaluates: its first row's columns go
// into e.row, a joined row, and e.aggs holds its aggregate values.
func (g *groupRows) load(p *plan, i int, e *env) {
	nf, nc := len(p.groupCols), len(p.calls)
	for j, off := range p.groupCols {
		e.row[off] = g.firsts[i*nf+j]
	}
	e.aggs = g.aggs[i*nc : i*nc+nc]
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

// project evaluates the SELECT list for the row in e into row, which has
// the plan's width and arrives zeroed: * copies the joined row, and leaves
// nulls past a short row's end.
func project(p *plan, e *env, row value.Row) error {
	i := 0
	for _, x := range p.exprs {
		if x == nil {
			copy(row[i:i+p.b.width], e.row)
			i += p.b.width
			continue
		}
		v, err := eval(x, e)
		if err != nil {
			return err
		}
		row[i] = v
		i++
	}
	return nil
}

// --- INSERT / UPDATE / DELETE -----------------------------------------------

// runInsert inserts the VALUES rows. Each row is built at the table's width
// and handed to Insert, which coerces it in place and publishes it.
func runInsert(tx heap.Txn, p *plan, params []value.Value) (*Result, error) {
	tid := p.b.tabs[0].tid
	// No row and no subquery cache: e stays on the stack.
	e := env{params: params, tx: tx}
	for _, exprRow := range p.values {
		row := make(value.Row, p.b.width)
		for i, ex := range exprRow {
			v, err := eval(ex, &e)
			if err != nil {
				return nil, err
			}
			row[p.assign[i]] = v
		}
		if _, err := tx.Insert(tid, row); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(p.values)}, nil
}

// passes reports whether every predicate holds for the row in rowEnv.
func passes(rowEnv *env, preds []expr) (bool, error) {
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

// target is one row an UPDATE or DELETE matched: its id and the row as
// the transaction's Fetch returned it.
type target struct {
	rid page.RowID
	row value.Row
}

// targetRows finds the rows an UPDATE's or DELETE's WHERE clause matches,
// through the access path and residuals of its plan. An UpdateTx fetches
// each as a private copy, so UPDATE writes into it and hands it to Update.
func targetRows(tx heap.Txn, p *plan, params []value.Value, subs *subCache) ([]target, error) {
	b, lv := p.b, &p.levels[0]
	e := env{params: params, tx: tx, subs: subs}
	var s scanPath
	if err := s.open(tx, b.tabs[0].tid, &lv.path, &e); err != nil {
		return nil, err
	}
	var out []target
	for {
		rid, row, ok, err := s.next()
		if err != nil || !ok {
			return out, err
		}
		e.row = row
		if ok, err := passes(&e, lv.residualWhere); err != nil {
			return nil, err
		} else if ok {
			out = append(out, target{rid, row})
		}
	}
}

// runUpdate evaluates every SET against the row as it was before the
// statement, then writes the new values into that row and hands it to
// Update: one private copy per target row, the one Fetch made. A read-only
// transaction's Fetch returns stored rows, so it is refused before any row
// is written.
func runUpdate(tx heap.Txn, p *plan, params []value.Value) (*Result, error) {
	if tx.ReadOnly() {
		return nil, heap.ErrReadOnly
	}
	var subs subCache
	targets, err := targetRows(tx, p, params, &subs)
	if err != nil {
		return nil, err
	}
	tid := p.b.tabs[0].tid
	// The SET values of one row; eight cover every TPC-W UPDATE (at most
	// four SETs) on the stack.
	var scratch [8]value.Value
	vals := scratch[:0]
	for _, tg := range targets {
		e := env{row: tg.row, params: params, tx: tx, subs: &subs}
		vals = vals[:0]
		for _, x := range p.sets {
			v, err := eval(x, &e)
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}
		for i, v := range vals {
			tg.row[p.assign[i]] = v
		}
		if err := tx.Update(tid, tg.rid, tg.row); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(targets)}, nil
}

func runDelete(tx heap.Txn, p *plan, params []value.Value) (*Result, error) {
	var subs subCache
	targets, err := targetRows(tx, p, params, &subs)
	if err != nil {
		return nil, err
	}
	for _, tg := range targets {
		if err := tx.Delete(p.b.tabs[0].tid, tg.rid); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(targets)}, nil
}
