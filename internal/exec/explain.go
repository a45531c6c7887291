package exec

import (
	"fmt"
	"strings"

	"dmv/internal/heap"
	"dmv/internal/sql"
)

// Explain renders the plan the executor runs for a SELECT statement: the
// join order (FROM order) and, per table, the chosen index with its
// equality-prefix and range columns, or a full scan; then the aggregation,
// sort and limit steps that run. It renders the plan cached on the
// statement's shared Prepared, the one Exec runs. Diagnostics for query
// authors; the figure workloads were tuned with it.
func Explain(e *heap.Engine, text string) (string, error) {
	prep, err := Cached(text)
	if err != nil {
		return "", err
	}
	sel, ok := prep.stmt.(*sql.Select)
	if !ok {
		return "", fmt.Errorf("exec: EXPLAIN supports SELECT only, got %T", prep.stmt)
	}
	p, err := prep.planFor(e)
	if err != nil {
		return "", err
	}
	var out strings.Builder
	for i, tb := range p.b.tabs {
		fmt.Fprintf(&out, "%d: %s", i+1, tb.ref.Table)
		if tb.ref.Alias != "" && tb.ref.Alias != tb.ref.Table {
			fmt.Fprintf(&out, " AS %s", tb.ref.Alias)
		}
		path := p.levels[i].path
		if path.idx < 0 {
			out.WriteString("  FULL SCAN")
		} else {
			// The path's probes cover a prefix of the index columns, then at
			// most one range column.
			keyCol := func(k int) string { return tb.def.Cols[path.ix.Cols[k]].Name }
			fmt.Fprintf(&out, "  INDEX %s", path.ix.Name)
			if n := len(path.eq); n > 0 {
				cols := make([]string, n)
				for k := range cols {
					cols[k] = keyCol(k)
				}
				fmt.Fprintf(&out, " eq(%s)", strings.Join(cols, ","))
			}
			if path.lo != nil || path.hi != nil {
				fmt.Fprintf(&out, " range(%s)", keyCol(len(path.eq)))
			}
		}
		if i > 0 {
			out.WriteString("  [nested-loop join]")
		}
		out.WriteByte('\n')
	}
	if p.hasAgg {
		out.WriteString("aggregate: hash group-by\n")
	}
	if len(p.orderBy) > 0 {
		out.WriteString("sort: order-by\n")
	}
	if sel.Limit != nil {
		out.WriteString("limit\n")
	}
	return out.String(), nil
}

// ColumnBindings plans text on e as Exec does (the plan cached on the
// statement's shared Prepared) and reports how the plan bound the column
// references of every expression it evaluates: how many read a joined-row
// offset, and the names of those that name no column in scope and fail
// when evaluated. A subquery binds through its own plan when it runs and is
// not visited. Diagnostics, like Explain.
func ColumnBindings(e *heap.Engine, text string) (bound int, unknown []string, err error) {
	prep, err := Cached(text)
	if err != nil {
		return 0, nil, err
	}
	p, err := prep.planFor(e)
	if err != nil {
		return 0, nil, err
	}
	var visit func(xs ...expr)
	visit = func(xs ...expr) {
		for _, x := range xs {
			switch t := x.(type) {
			case *colExpr:
				bound++
			case *unknownColExpr:
				unknown = append(unknown, refName(t.ref))
			case *unaryExpr:
				visit(t.x)
			case *binaryExpr:
				visit(t.l, t.r)
			case *isNullExpr:
				visit(t.x)
			case *inListExpr:
				visit(t.x)
				visit(t.list...)
			case *betweenExpr:
				visit(t.x, t.lo, t.hi)
			}
		}
	}
	for _, lv := range p.levels {
		visit(lv.path.eq...)
		visit(lv.path.lo, lv.path.hi)
		visit(lv.residualOn...)
		visit(lv.residualWhere...)
	}
	visit(p.exprs...)
	for _, o := range p.orderBy {
		visit(o.x)
	}
	visit(p.groupBy...)
	visit(p.having, p.limit, p.offset)
	for _, c := range p.calls {
		visit(c.arg)
	}
	visit(p.sets...)
	for _, row := range p.values {
		visit(row...)
	}
	return bound, unknown, nil
}
