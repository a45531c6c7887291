package exec

import (
	"fmt"
	"slices"
	"strings"

	"dmv/internal/heap"
	"dmv/internal/sql"
)

// --- binding ----------------------------------------------------------------

type tableBinding struct {
	ref  sql.TableRef
	tid  int
	def  heap.TableDef
	base int // offset of this table's first column in the joined row
}

type binder struct {
	tabs  []tableBinding
	cols  map[string]int
	width int
}

func bindTables(e *heap.Engine, from []sql.TableRef) (*binder, error) {
	b := &binder{cols: make(map[string]int, 16)}
	for _, ref := range from {
		tid, ok := e.TableID(ref.Table)
		if !ok {
			return nil, fmt.Errorf("exec: unknown table %q", ref.Table)
		}
		def, err := e.TableDef(tid)
		if err != nil {
			return nil, err
		}
		tb := tableBinding{ref: ref, tid: tid, def: def, base: b.width}
		name := ref.Alias
		if name == "" {
			name = ref.Table
		}
		for i, c := range def.Cols {
			off := tb.base + i
			b.cols[strings.ToLower(name+"."+c.Name)] = off
			key := strings.ToLower(c.Name)
			if _, dup := b.cols[key]; !dup {
				b.cols[key] = off
			}
		}
		b.width += len(def.Cols)
		b.tabs = append(b.tabs, tb)
	}
	return b, nil
}

// exprLevel returns the highest table index an expression's columns bind to
// (-1 if it references no columns), or an error for unresolvable columns.
func (b *binder) exprLevel(x sql.Expr) (int, error) {
	var refs []*sql.ColRef
	colRefsIn(x, &refs)
	level := -1
	for _, r := range refs {
		off, ok := colOffset(b.cols, r)
		if !ok {
			return 0, fmt.Errorf("%w: %s", ErrUnknownColumn, refName(r))
		}
		for i := len(b.tabs) - 1; i >= 0; i-- {
			if off >= b.tabs[i].base {
				if i > level {
					level = i
				}
				break
			}
		}
	}
	return level, nil
}

// colOrdinalOf resolves a ColRef to a column ordinal of table tabIdx, or -1
// if the reference binds elsewhere.
func (b *binder) colOrdinalOf(r *sql.ColRef, tabIdx int) int {
	tb := b.tabs[tabIdx]
	off, ok := colOffset(b.cols, r)
	if !ok || off < tb.base || off >= tb.base+len(tb.def.Cols) {
		return -1
	}
	return off - tb.base
}

// colOffset resolves a column reference to its offset in the joined row,
// given the qualified and unqualified name -> offset map. Only planning
// resolves names: a plan holds offsets (bind).
func colOffset(cols map[string]int, r *sql.ColRef) (int, bool) {
	if r.Table != "" {
		off, ok := cols[strings.ToLower(r.Table+"."+r.Col)]
		return off, ok
	}
	off, ok := cols[strings.ToLower(r.Col)]
	return off, ok
}

// bind builds the plan's form of x: each column reference becomes its
// offset in the joined row b lays out, or, if it names no column, a node
// that fails when evaluated; each aggregate call becomes its ordinal in
// calls. It shares no node with x but the references and calls the nodes
// name, and writes nothing into x. A nil x binds to nil.
func (b *binder) bind(x sql.Expr, calls []*sql.Call) expr {
	sub := func(x sql.Expr) expr { return b.bind(x, calls) }
	switch t := x.(type) {
	case *sql.ColRef:
		if off, ok := colOffset(b.cols, t); ok {
			return &colExpr{off: off, ref: t}
		}
		return &unknownColExpr{ref: t}
	case *sql.Lit:
		return &litExpr{v: t.V}
	case *sql.Param:
		return &paramExpr{n: t.N}
	case *sql.Call:
		return &aggExpr{i: slices.Index(calls, t), call: t}
	case *sql.Unary:
		return &unaryExpr{op: t.Op, x: sub(t.X)}
	case *sql.Binary:
		return &binaryExpr{op: t.Op, l: sub(t.L), r: sub(t.R)}
	case *sql.IsNull:
		return &isNullExpr{x: sub(t.X), not: t.Not}
	case *sql.InList:
		out := &inListExpr{x: sub(t.X), sub: t.Sub}
		for _, e := range t.List {
			out.list = append(out.list, sub(e))
		}
		return out
	case *sql.Between:
		return &betweenExpr{x: sub(t.X), lo: sub(t.Lo), hi: sub(t.Hi)}
	case *sql.Subquery:
		return &subqueryExpr{sq: t}
	}
	return nil
}

// bindAll binds each of xs.
func (b *binder) bindAll(xs []sql.Expr, calls []*sql.Call) []expr {
	if xs == nil {
		return nil
	}
	out := make([]expr, len(xs))
	for i, x := range xs {
		out[i] = b.bind(x, calls)
	}
	return out
}

// --- the plan ---------------------------------------------------------------

// plan is how one statement runs: the plan of a SELECT, or of the
// single-table WHERE clause an UPDATE or DELETE targets rows with, with the
// expressions the statement evaluates bound to row offsets (binder.bind).
// runSelect executes it, targetRows probes with it and Explain renders it,
// so the three cannot disagree. A Prepared caches it, so goroutines and
// engines share it and nothing writes it once stored. It holds ordinals and
// definitions, never engine pointers. Execution reads no names: the
// binder's name map serves planning only.
type plan struct {
	fp     uint64 // the engine schema fingerprint the plan was built under
	b      *binder
	levels []joinLevel // one per FROM table, in join order

	exprs         []expr     // SELECT list; nil stands for a *
	orderBy       []orderKey // aliases substituted; nil when the index order already satisfies it
	groupBy       []expr     // aliases substituted
	having        expr       // aliases substituted
	limit, offset expr       // nil when the clause is absent
	distinct      bool
	hasAgg        bool
	// The aggregate calls of the SELECT list, HAVING and ORDER BY, each
	// once: a group's aggregate values are indexed by their ordinals here.
	calls []aggCall
	// The joined-row offsets the SELECT list, HAVING and ORDER BY read
	// (every column under *), each once: a group keeps these of its first
	// row, at the same offsets, so one bound tree reads both.
	groupCols []int

	cols  []string // SELECT: output column names
	width int      // SELECT: values per output row
	// UPDATE: the column ordinal each SET assigns; INSERT: the ordinal
	// each VALUES position fills.
	assign []int
	sets   []expr   // UPDATE: each SET's value, over the target row
	values [][]expr // INSERT: the VALUES rows, with no column in scope
}

// orderKey is one ORDER BY key.
type orderKey struct {
	x    expr
	desc bool
}

// aggCall is one aggregate call of a plan with its argument bound.
type aggCall struct {
	*sql.Call
	arg expr // Args[0]; nil for COUNT(*)
}

// joinLevel is the plan for one table of the join pipeline.
type joinLevel struct {
	path accessPath
	// Conjuncts that become fully bound at this level and that the path
	// did not consume, split by origin: ON residuals decide matching; WHERE
	// residuals filter every emitted row, null-extended ones included.
	residualOn, residualWhere []expr
}

// planSelect plans a SELECT: binding, the level at which each conjunct
// becomes evaluable, an access path and residuals per join level, alias
// substitution, sort elision and whether the query aggregates.
func planSelect(e *heap.Engine, sel *sql.Select) (*plan, error) {
	b, err := bindTables(e, sel.From)
	if err != nil {
		return nil, err
	}

	// Collect conjuncts with the level at which they become evaluable,
	// remembering whether each came from WHERE or an ON clause: for LEFT
	// JOIN the two differ (ON decides matching; WHERE filters the final
	// rows, including null-extended ones). A WHERE conjunct that names no
	// column filters at the first level.
	var whereConj []sql.Expr
	splitConjuncts(sel.Where, &whereConj)
	type levConj struct {
		e      sql.Expr
		level  int
		fromOn bool
	}
	var conj []levConj
	for _, c := range whereConj {
		lvl, err := b.exprLevel(c)
		if err != nil {
			return nil, err
		}
		conj = append(conj, levConj{e: c, level: max(lvl, 0)})
	}
	for i, ref := range sel.From {
		var onConj []sql.Expr
		splitConjuncts(ref.On, &onConj)
		for _, c := range onConj {
			if _, err := b.exprLevel(c); err != nil {
				return nil, err
			}
			conj = append(conj, levConj{e: c, level: i, fromOn: true})
		}
	}

	p := &plan{b: b, levels: make([]joinLevel, len(b.tabs))}
	for i := range b.tabs {
		leftJoin := b.tabs[i].ref.Join == sql.JoinLeft
		// A left-joined table's access path may only use ON conditions:
		// using a WHERE predicate as the probe would let null-extended rows
		// bypass it.
		var usable []sql.Expr
		for _, c := range conj {
			if c.level > i {
				continue
			}
			if leftJoin && !c.fromOn {
				continue
			}
			usable = append(usable, c.e)
		}
		lv := &p.levels[i]
		if lv.path, err = choosePath(e, b, i, usable, i-1); err != nil {
			return nil, err
		}
		for _, c := range conj {
			if c.level != i {
				continue
			}
			if _, used := lv.path.consumed[c.e]; used {
				continue
			}
			if c.fromOn {
				lv.residualOn = append(lv.residualOn, b.bind(c.e, nil))
			} else {
				lv.residualWhere = append(lv.residualWhere, b.bind(c.e, nil))
			}
		}
	}

	var orderBy []sql.OrderItem
	if len(sel.OrderBy) > 0 {
		orderBy = make([]sql.OrderItem, len(sel.OrderBy))
		for i, o := range sel.OrderBy {
			orderBy[i] = sql.OrderItem{Expr: substituteAliases(o.Expr, b, sel), Desc: o.Desc}
		}
	}
	var groupBy []sql.Expr
	if len(sel.GroupBy) > 0 {
		groupBy = make([]sql.Expr, len(sel.GroupBy))
		for i, g := range sel.GroupBy {
			groupBy[i] = substituteAliases(g, b, sel)
		}
	}
	var having sql.Expr
	if sel.Having != nil {
		having = substituteAliases(sel.Having, b, sel)
	}

	// A single-table index scan emits rows in key order; when the ORDER BY
	// is exactly the index key columns following the equality prefix (all
	// ascending), the sort is already satisfied.
	if len(b.tabs) == 1 && orderSatisfiedByIndex(b, p.levels[0].path, orderBy) {
		orderBy = nil
	}

	p.hasAgg = len(groupBy) > 0 || (having != nil && sql.IsAggregate(having))
	for i, se := range sel.Exprs {
		if se.Star {
			for _, tb := range b.tabs {
				for _, c := range tb.def.Cols {
					p.cols = append(p.cols, c.Name)
				}
			}
			p.width += b.width
			continue
		}
		if sql.IsAggregate(se.Expr) {
			p.hasAgg = true
		}
		name := se.Alias
		if name == "" {
			if ref, ok := se.Expr.(*sql.ColRef); ok {
				name = ref.Col
			} else {
				name = fmt.Sprintf("col%d", i+1)
			}
		}
		p.cols = append(p.cols, name)
		p.width++
	}
	var calls []*sql.Call
	if p.hasAgg {
		calls = p.planGroups(sel, orderBy, having)
	}

	// Bind what the rows are evaluated with, now that the calls are known.
	p.calls = make([]aggCall, len(calls))
	for i, c := range calls {
		p.calls[i].Call = c
		if !c.Star && len(c.Args) > 0 {
			p.calls[i].arg = b.bind(c.Args[0], nil)
		}
	}
	p.exprs = make([]expr, len(sel.Exprs))
	for i, se := range sel.Exprs {
		if !se.Star {
			p.exprs[i] = b.bind(se.Expr, calls)
		}
	}
	if orderBy != nil {
		p.orderBy = make([]orderKey, len(orderBy))
		for i, o := range orderBy {
			p.orderBy[i] = orderKey{x: b.bind(o.Expr, calls), desc: o.Desc}
		}
	}
	p.groupBy = b.bindAll(groupBy, calls)
	p.having = b.bind(having, calls)
	p.limit, p.offset = b.bind(sel.Limit, nil), b.bind(sel.Offset, nil)
	p.distinct = sel.Distinct
	return p, nil
}

// planGroups finds what an aggregate query keeps of each group: its
// aggregate calls, which it returns, and the columns of its first row the
// output reads. orderBy and having are the plan's, aliases substituted.
func (p *plan) planGroups(sel *sql.Select, orderBy []sql.OrderItem, having sql.Expr) []*sql.Call {
	col := func(off int) {
		if !slices.Contains(p.groupCols, off) {
			p.groupCols = append(p.groupCols, off)
		}
	}
	var calls []*sql.Call
	var refs []*sql.ColRef
	for _, se := range sel.Exprs {
		if se.Star {
			for off := range p.b.width {
				col(off)
			}
			continue
		}
		collectAggs(se.Expr, &calls)
		colRefsIn(se.Expr, &refs)
	}
	if having != nil {
		collectAggs(having, &calls)
		colRefsIn(having, &refs)
	}
	for _, o := range sel.OrderBy {
		collectAggs(o.Expr, &calls)
	}
	for _, o := range orderBy {
		colRefsIn(o.Expr, &refs)
	}
	for _, r := range refs {
		// An unknown column fails when the output evaluates it.
		if off, ok := colOffset(p.b.cols, r); ok {
			col(off)
		}
	}
	return calls
}

// planStmt plans a SELECT, or an UPDATE's or DELETE's WHERE clause as a
// single-table SELECT.
func planStmt(e *heap.Engine, stmt sql.Statement) (*plan, error) {
	switch s := stmt.(type) {
	case *sql.Select:
		return planSelect(e, s)
	case *sql.Insert:
		return planInsert(e, s)
	case *sql.Update:
		p, err := planSelect(e, &sql.Select{From: []sql.TableRef{{Table: s.Table, Join: sql.JoinInner}}, Where: s.Where})
		if err != nil {
			return nil, err
		}
		p.assign = make([]int, len(s.Sets))
		p.sets = make([]expr, len(s.Sets))
		for i, set := range s.Sets {
			if p.assign[i] = p.b.tabs[0].def.ColIndex(set.Col); p.assign[i] < 0 {
				return nil, fmt.Errorf("exec: %w: %s.%s", ErrUnknownColumn, s.Table, set.Col)
			}
			p.sets[i] = p.b.bind(set.Expr, nil)
		}
		return p, nil
	case *sql.Delete:
		return planSelect(e, &sql.Select{From: []sql.TableRef{{Table: s.Table, Join: sql.JoinInner}}, Where: s.Where})
	default:
		return nil, fmt.Errorf("exec: statement %T must run through ExecDDL or the session layer", stmt)
	}
}

// planInsert resolves the ordinal of each column an INSERT names (every
// column, in table order, when it names none), checks that each VALUES row
// has one value per column and binds the values, with no column in scope.
func planInsert(e *heap.Engine, ins *sql.Insert) (*plan, error) {
	b, err := bindTables(e, []sql.TableRef{{Table: ins.Table}})
	if err != nil {
		return nil, err
	}
	def := b.tabs[0].def
	p := &plan{b: b, assign: make([]int, 0, b.width)}
	if len(ins.Cols) == 0 {
		for i := range def.Cols {
			p.assign = append(p.assign, i)
		}
	}
	for _, c := range ins.Cols {
		ord := def.ColIndex(c)
		if ord < 0 {
			return nil, fmt.Errorf("exec: %w: %s.%s", ErrUnknownColumn, ins.Table, c)
		}
		p.assign = append(p.assign, ord)
	}
	var none binder
	p.values = make([][]expr, len(ins.Rows))
	for i, exprRow := range ins.Rows {
		if len(exprRow) != len(p.assign) {
			return nil, fmt.Errorf("exec: INSERT %s: %d values for %d columns", ins.Table, len(exprRow), len(p.assign))
		}
		p.values[i] = none.bindAll(exprRow, nil)
	}
	return p, nil
}

// substituteAliases replaces SELECT aliases referenced by ORDER BY / GROUP
// BY / HAVING, recursively through expression trees (but not into
// subqueries, whose names resolve in their own scope). Unqualified
// references that match a real column win over aliases, per SQL resolution
// rules.
func substituteAliases(x sql.Expr, b *binder, sel *sql.Select) sql.Expr {
	sub := func(x sql.Expr) sql.Expr { return substituteAliases(x, b, sel) }
	switch t := x.(type) {
	case *sql.ColRef:
		if t.Table != "" {
			return t
		}
		if _, isCol := b.cols[strings.ToLower(t.Col)]; isCol {
			return t
		}
		for _, se := range sel.Exprs {
			if se.Alias != "" && strings.EqualFold(se.Alias, t.Col) {
				return se.Expr
			}
		}
		return t
	case *sql.Binary:
		return &sql.Binary{Op: t.Op, L: sub(t.L), R: sub(t.R)}
	case *sql.Unary:
		return &sql.Unary{Op: t.Op, X: sub(t.X)}
	case *sql.IsNull:
		return &sql.IsNull{X: sub(t.X), Not: t.Not}
	case *sql.Between:
		return &sql.Between{X: sub(t.X), Lo: sub(t.Lo), Hi: sub(t.Hi)}
	case *sql.InList:
		out := &sql.InList{X: sub(t.X), Sub: t.Sub}
		for _, e := range t.List {
			out.List = append(out.List, sub(e))
		}
		return out
	default:
		return x
	}
}

// --- access-path selection --------------------------------------------------

type accessPath struct {
	idx    int           // index ordinal, or -1 for full scan
	ix     heap.IndexDef // the index's definition when idx >= 0
	eq     []expr        // probe expressions for the index prefix columns
	lo, hi expr          // optional range bounds on the next index column
	loInc  bool
	hiInc  bool
	// The conjuncts the probes stand for, by AST node: the planner leaves
	// them out of the residuals.
	consumed map[sql.Expr]struct{}
}

// choosePath inspects the conjuncts usable at this join level and picks the
// index with the longest equality prefix (plus at most one range column).
// Its probe expressions are bound; they read only outer levels' columns.
func choosePath(e *heap.Engine, b *binder, tabIdx int, conjuncts []sql.Expr, maxOuter int) (accessPath, error) {
	type colPreds struct {
		eq     sql.Expr
		eqSrc  sql.Expr
		lo, hi sql.Expr
		loInc  bool
		hiInc  bool
		loSrc  sql.Expr
		hiSrc  sql.Expr
	}
	tb := b.tabs[tabIdx]
	preds := make(map[int]*colPreds, 4)
	pred := func(ord int) *colPreds {
		p, ok := preds[ord]
		if !ok {
			p = &colPreds{}
			preds[ord] = p
		}
		return p
	}
	for _, c := range conjuncts {
		bin, ok := c.(*sql.Binary)
		if !ok {
			continue
		}
		classify := func(col sql.Expr, other sql.Expr, op string) {
			ref, ok := col.(*sql.ColRef)
			if !ok {
				return
			}
			ord := b.colOrdinalOf(ref, tabIdx)
			if ord < 0 {
				return
			}
			lvl, err := b.exprLevel(other)
			if err != nil || lvl > maxOuter {
				return // probe side must be bound by earlier tables/params
			}
			p := pred(ord)
			switch op {
			case "=":
				if p.eq == nil {
					p.eq, p.eqSrc = other, c
				}
			case ">":
				if p.lo == nil {
					p.lo, p.loInc, p.loSrc = other, false, c
				}
			case ">=":
				if p.lo == nil {
					p.lo, p.loInc, p.loSrc = other, true, c
				}
			case "<":
				if p.hi == nil {
					p.hi, p.hiInc, p.hiSrc = other, false, c
				}
			case "<=":
				if p.hi == nil {
					p.hi, p.hiInc, p.hiSrc = other, true, c
				}
			}
		}
		switch bin.Op {
		case "=":
			classify(bin.L, bin.R, "=")
			classify(bin.R, bin.L, "=")
		case "<", "<=", ">", ">=":
			// With the operands swapped, the comparison mirrors.
			mirrored := "<="
			switch bin.Op {
			case "<":
				mirrored = ">"
			case "<=":
				mirrored = ">="
			case ">":
				mirrored = "<"
			}
			classify(bin.L, bin.R, bin.Op)
			classify(bin.R, bin.L, mirrored)
		}
	}
	if len(preds) == 0 {
		return accessPath{idx: -1}, nil
	}
	indexes, err := e.Indexes(tb.tid)
	if err != nil {
		return accessPath{}, err
	}
	best := accessPath{idx: -1}
	bestScore := 0
	for ord, ix := range indexes {
		path := accessPath{idx: ord, ix: ix, consumed: make(map[sql.Expr]struct{}, 4)}
		score := 0
		for _, col := range ix.Cols {
			p, ok := preds[col]
			if ok && p.eq != nil {
				path.eq = append(path.eq, b.bind(p.eq, nil))
				path.consumed[p.eqSrc] = struct{}{}
				score += 2
				continue
			}
			if ok && (p.lo != nil || p.hi != nil) {
				path.lo, path.loInc = b.bind(p.lo, nil), p.loInc
				path.hi, path.hiInc = b.bind(p.hi, nil), p.hiInc
				if p.loSrc != nil {
					path.consumed[p.loSrc] = struct{}{}
				}
				if p.hiSrc != nil {
					path.consumed[p.hiSrc] = struct{}{}
				}
				score++
			}
			break
		}
		if score > bestScore {
			best, bestScore = path, score
		}
	}
	return best, nil
}

// orderSatisfiedByIndex reports whether a single-table scan through the
// given access path already delivers rows in the requested order: the ORDER
// BY items must be ascending column references matching the index key
// columns immediately after the equality prefix (whose values are fixed).
func orderSatisfiedByIndex(b *binder, path accessPath, orderBy []sql.OrderItem) bool {
	if len(orderBy) == 0 || path.idx < 0 || path.lo != nil || path.hi != nil {
		return false
	}
	next := len(path.eq) // first unfixed key column
	for k, item := range orderBy {
		if item.Desc {
			return false
		}
		ref, ok := item.Expr.(*sql.ColRef)
		if !ok {
			return false
		}
		ord := b.colOrdinalOf(ref, 0)
		if ord < 0 {
			return false
		}
		pos := next + k
		if pos >= len(path.ix.Cols) || path.ix.Cols[pos] != ord {
			return false
		}
	}
	return true
}
