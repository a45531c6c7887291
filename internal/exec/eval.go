// Package exec plans and executes parsed SQL statements against the heap
// storage engine: index selection (equality prefixes plus one range column),
// index nested-loop joins, filtering, grouping/aggregation, sorting, and
// projection. A join runs as pipelined nested iterators over one row buffer
// per statement: residuals test the stored rows in place, a row the query
// keeps has its SELECT list and sort keys evaluated into a per-statement
// slab, and grouping folds rows as the join produces them, into slabs of
// group columns and aggregate states. A result's rows are capped windows
// onto one slab, so a statement allocates a fixed number of times plus the
// slabs' growth, however many rows it returns. Names resolve only while
// planning: a plan binds every column reference to its offset in the
// joined row and every aggregate call to its ordinal, and evaluation
// indexes the row. It is deliberately a straightforward executor — the paper's contribution is in the
// replication layer, not the optimizer — but it runs every TPC-W
// interaction, including the BestSellers and NewProducts joins.
package exec

import (
	"errors"
	"fmt"
	"slices"
	"unicode"
	"unicode/utf8"

	"dmv/internal/heap"
	"dmv/internal/sql"
	"dmv/internal/value"
)

// Errors surfaced by the executor.
var (
	// ErrUnknownColumn reports an unresolvable column reference.
	ErrUnknownColumn = errors.New("exec: unknown column")
	// ErrParamCount reports too few bound parameters.
	ErrParamCount = errors.New("exec: missing statement parameter")
)

// env is the evaluation environment for one (joined) row. It holds no
// names: a plan binds every column reference to a row offset and every
// aggregate call to its ordinal (plan.bind).
type env struct {
	row    value.Row
	params []value.Value
	aggs   []value.Value // a group's aggregate values, by plan.calls ordinal; nil outside aggregation
	tx     heap.Txn      // for uncorrelated subqueries
	subs   *subCache     // per-statement subquery result cache
}

// expr is an expression bound to a plan: a sql.Expr whose column references
// are offsets in the joined row and whose aggregate calls are ordinals in
// plan.calls. A plan builds its own trees (binder.bind) and never writes the
// statement's AST, which every engine's plan of a Prepared shares. The
// nodes are plain data, so two plans of one statement compare equal.
type expr interface{ bound() }

type (
	// litExpr is a literal value.
	litExpr struct{ v value.Value }
	// paramExpr is the n-th positional parameter.
	paramExpr struct{ n int }
	// colExpr reads the joined row at off; ref is the reference it binds.
	colExpr struct {
		off int
		ref *sql.ColRef
	}
	// unknownColExpr is a reference that names no column in scope:
	// evaluating it fails with ErrUnknownColumn.
	unknownColExpr struct{ ref *sql.ColRef }
	// aggExpr is a group's value of call, plan.calls[i]; i is -1 for a call
	// the plan does not aggregate, which fails when evaluated.
	aggExpr struct {
		i    int
		call *sql.Call
	}
	unaryExpr struct {
		op string
		x  expr
	}
	binaryExpr struct {
		op   string
		l, r expr
	}
	isNullExpr struct {
		x   expr
		not bool
	}
	// inListExpr is x IN (list...) or, with sub set, x IN (SELECT ...).
	inListExpr struct {
		x    expr
		list []expr
		sub  *sql.Subquery
	}
	betweenExpr struct{ x, lo, hi expr }
	// subqueryExpr is a scalar subquery, planned when it runs (env.subquery).
	subqueryExpr struct{ sq *sql.Subquery }
)

func (*litExpr) bound()        {}
func (*paramExpr) bound()      {}
func (*colExpr) bound()        {}
func (*unknownColExpr) bound() {}
func (*aggExpr) bound()        {}
func (*unaryExpr) bound()      {}
func (*binaryExpr) bound()     {}
func (*isNullExpr) bound()     {}
func (*inListExpr) bound()     {}
func (*betweenExpr) bound()    {}
func (*subqueryExpr) bound()   {}

// subCache memoizes uncorrelated subquery results for one statement
// execution (a scalar subquery in WHERE would otherwise re-run per row).
// The first subquery makes its map: TPC-W statements have none.
type subCache struct {
	m map[*sql.Subquery]*Result
}

// subquery evaluates (with memoization) an uncorrelated subquery.
func (e *env) subquery(sq *sql.Subquery) (*Result, error) {
	if e.tx == nil {
		return nil, errors.New("exec: subquery outside a transaction context")
	}
	if e.subs != nil {
		if r, ok := e.subs.m[sq]; ok {
			return r, nil
		}
	}
	// Planned per statement execution, not cached: TPC-W issues none.
	p, err := planSelect(e.tx.Engine(), sq.Sel)
	var r *Result
	if err == nil {
		r, err = runSelect(e.tx, p, e.params)
	}
	if err != nil {
		return nil, fmt.Errorf("subquery: %w", err)
	}
	if e.subs != nil {
		if e.subs.m == nil {
			e.subs.m = make(map[*sql.Subquery]*Result, 1)
		}
		e.subs.m[sq] = r
	}
	return r, nil
}

func truthy(v value.Value) bool {
	switch v.K {
	case value.Null:
		return false
	case value.Int:
		return v.Int() != 0
	case value.Float:
		return v.Float() != 0
	default:
		return v.S != ""
	}
}

func eval(x expr, e *env) (value.Value, error) {
	switch t := x.(type) {
	case *colExpr:
		if t.off >= len(e.row) {
			return value.NewNull(), nil
		}
		return e.row[t.off], nil
	case *litExpr:
		return t.v, nil
	case *paramExpr:
		if t.n >= len(e.params) {
			return value.Value{}, fmt.Errorf("%w: ?%d of %d bound", ErrParamCount, t.n+1, len(e.params))
		}
		return e.params[t.n], nil
	case *unknownColExpr:
		return value.Value{}, fmt.Errorf("%w: %s", ErrUnknownColumn, refName(t.ref))
	case *unaryExpr:
		v, err := eval(t.x, e)
		if err != nil {
			return value.Value{}, err
		}
		switch t.op {
		case "NOT":
			return boolVal(!truthy(v)), nil
		case "-":
			if v.K == value.Float {
				return value.NewFloat(-v.Float()), nil
			}
			return value.NewInt(-v.AsInt()), nil
		}
		return value.Value{}, fmt.Errorf("exec: bad unary op %q", t.op)
	case *binaryExpr:
		return evalBinary(t, e)
	case *isNullExpr:
		v, err := eval(t.x, e)
		if err != nil {
			return value.Value{}, err
		}
		res := v.IsNull()
		if t.not {
			res = !res
		}
		return boolVal(res), nil
	case *inListExpr:
		v, err := eval(t.x, e)
		if err != nil {
			return value.Value{}, err
		}
		if t.sub != nil {
			res, err := e.subquery(t.sub)
			if err != nil {
				return value.Value{}, err
			}
			for _, row := range res.Rows {
				if len(row) > 0 && value.Equal(v, row[0]) {
					return boolVal(true), nil
				}
			}
			return boolVal(false), nil
		}
		for _, le := range t.list {
			lv, err := eval(le, e)
			if err != nil {
				return value.Value{}, err
			}
			if value.Equal(v, lv) {
				return boolVal(true), nil
			}
		}
		return boolVal(false), nil
	case *betweenExpr:
		v, err := eval(t.x, e)
		if err != nil {
			return value.Value{}, err
		}
		lo, err := eval(t.lo, e)
		if err != nil {
			return value.Value{}, err
		}
		hi, err := eval(t.hi, e)
		if err != nil {
			return value.Value{}, err
		}
		return boolVal(value.Compare(v, lo) >= 0 && value.Compare(v, hi) <= 0), nil
	case *subqueryExpr:
		res, err := e.subquery(t.sq)
		if err != nil {
			return value.Value{}, err
		}
		if len(res.Rows) == 0 || len(res.Rows[0]) == 0 {
			return value.NewNull(), nil
		}
		return res.Rows[0][0], nil
	case *aggExpr:
		if t.i >= 0 && t.i < len(e.aggs) {
			return e.aggs[t.i], nil
		}
		return value.Value{}, fmt.Errorf("exec: aggregate %s outside aggregation context", t.call.Fn)
	default:
		return value.Value{}, fmt.Errorf("exec: unsupported expression %T", x)
	}
}

func evalBinary(b *binaryExpr, e *env) (value.Value, error) {
	// Short-circuit logical operators.
	switch b.op {
	case "AND":
		l, err := eval(b.l, e)
		if err != nil {
			return value.Value{}, err
		}
		if !truthy(l) {
			return boolVal(false), nil
		}
		r, err := eval(b.r, e)
		if err != nil {
			return value.Value{}, err
		}
		return boolVal(truthy(r)), nil
	case "OR":
		l, err := eval(b.l, e)
		if err != nil {
			return value.Value{}, err
		}
		if truthy(l) {
			return boolVal(true), nil
		}
		r, err := eval(b.r, e)
		if err != nil {
			return value.Value{}, err
		}
		return boolVal(truthy(r)), nil
	}
	l, err := eval(b.l, e)
	if err != nil {
		return value.Value{}, err
	}
	r, err := eval(b.r, e)
	if err != nil {
		return value.Value{}, err
	}
	switch b.op {
	case "=":
		return boolVal(!l.IsNull() && !r.IsNull() && value.Equal(l, r)), nil
	case "<>":
		return boolVal(!l.IsNull() && !r.IsNull() && !value.Equal(l, r)), nil
	case "<":
		return boolVal(cmpNonNull(l, r) < 0), nil
	case "<=":
		return boolVal(cmpNonNull(l, r) <= 0 && !l.IsNull() && !r.IsNull()), nil
	case ">":
		return boolVal(cmpNonNull(l, r) > 0), nil
	case ">=":
		return boolVal(cmpNonNull(l, r) >= 0 && !l.IsNull() && !r.IsNull()), nil
	case "LIKE":
		return boolVal(likeMatch(l.AsString(), r.AsString())), nil
	case "+", "-", "*", "/":
		return arith(b.op, l, r)
	}
	return value.Value{}, fmt.Errorf("exec: bad binary op %q", b.op)
}

// cmpNonNull orders l and r; comparisons involving NULL are pushed to an
// extreme so the boolean wrappers above yield false.
func cmpNonNull(l, r value.Value) int {
	if l.IsNull() || r.IsNull() {
		return 2 // incomparable: strict < and > and = all false
	}
	return value.Compare(l, r)
}

func arith(op string, l, r value.Value) (value.Value, error) {
	if l.IsNull() || r.IsNull() {
		return value.NewNull(), nil
	}
	if l.K == value.Float || r.K == value.Float || op == "/" {
		lf, rf := l.AsFloat(), r.AsFloat()
		switch op {
		case "+":
			return value.NewFloat(lf + rf), nil
		case "-":
			return value.NewFloat(lf - rf), nil
		case "*":
			return value.NewFloat(lf * rf), nil
		case "/":
			if rf == 0 {
				return value.NewNull(), nil
			}
			return value.NewFloat(lf / rf), nil
		}
	}
	li, ri := l.AsInt(), r.AsInt()
	switch op {
	case "+":
		return value.NewInt(li + ri), nil
	case "-":
		return value.NewInt(li - ri), nil
	case "*":
		return value.NewInt(li * ri), nil
	}
	return value.Value{}, fmt.Errorf("exec: bad arithmetic op %q", op)
}

func boolVal(b bool) value.Value {
	if b {
		return value.NewInt(1)
	}
	return value.NewInt(0)
}

// likeMatch implements SQL LIKE with % (any run) and _ (any one character),
// case-insensitively as MySQL does by default: runes compare by
// unicode.ToLower, as strings.ToLower maps them (an invalid byte is U+FFFD).
func likeMatch(s, p string) bool {
	// After a %, star is the pattern position past it and retry the text
	// position the rest is next tried at; a mismatch lets that % absorb one
	// more character. Backing up to the last % only suffices.
	i, j, star, retry := 0, 0, -1, 0
	for i < len(s) {
		if j < len(p) {
			sc, sn := nextRune(s[i:])
			switch pc, pn := nextRune(p[j:]); {
			case pc == '%':
				j, star, retry = j+1, j+1, i
				continue
			case pc == '_' || sc == pc || unicode.ToLower(sc) == unicode.ToLower(pc):
				i, j = i+sn, j+pn
				continue
			}
		}
		if star < 0 {
			return false
		}
		_, n := nextRune(s[retry:])
		retry += n
		i, j = retry, star
	}
	for j < len(p) && p[j] == '%' {
		j++
	}
	return j == len(p)
}

// nextRune decodes the first rune of a non-empty s and its width.
func nextRune(s string) (rune, int) {
	if c := s[0]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(s)
}

func refName(c *sql.ColRef) string {
	if c.Table != "" {
		return c.Table + "." + c.Col
	}
	return c.Col
}

// collectAggs gathers the aggregate calls inside an expression tree that
// out does not hold yet.
func collectAggs(x sql.Expr, out *[]*sql.Call) {
	switch t := x.(type) {
	case *sql.Call:
		if !slices.Contains(*out, t) {
			*out = append(*out, t)
		}
	case *sql.Binary:
		collectAggs(t.L, out)
		collectAggs(t.R, out)
	case *sql.Unary:
		collectAggs(t.X, out)
	case *sql.IsNull:
		collectAggs(t.X, out)
	case *sql.Between:
		collectAggs(t.X, out)
		collectAggs(t.Lo, out)
		collectAggs(t.Hi, out)
	case *sql.InList:
		collectAggs(t.X, out)
		for _, e := range t.List {
			collectAggs(e, out)
		}
	}
}

// splitConjuncts flattens a WHERE tree into AND-ed conjuncts.
func splitConjuncts(x sql.Expr, out *[]sql.Expr) {
	if b, ok := x.(*sql.Binary); ok && b.Op == "AND" {
		splitConjuncts(b.L, out)
		splitConjuncts(b.R, out)
		return
	}
	if x != nil {
		*out = append(*out, x)
	}
}

// colRefsIn collects every column reference in an expression.
func colRefsIn(x sql.Expr, out *[]*sql.ColRef) {
	switch t := x.(type) {
	case *sql.ColRef:
		*out = append(*out, t)
	case *sql.Binary:
		colRefsIn(t.L, out)
		colRefsIn(t.R, out)
	case *sql.Unary:
		colRefsIn(t.X, out)
	case *sql.IsNull:
		colRefsIn(t.X, out)
	case *sql.Between:
		colRefsIn(t.X, out)
		colRefsIn(t.Lo, out)
		colRefsIn(t.Hi, out)
	case *sql.InList:
		colRefsIn(t.X, out)
		for _, e := range t.List {
			colRefsIn(e, out)
		}
	case *sql.Call:
		for _, e := range t.Args {
			colRefsIn(e, out)
		}
	}
}
