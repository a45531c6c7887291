package tpcw

import (
	"sort"
	"testing"

	"dmv/internal/exec"
	"dmv/internal/value"
)

// stmtRecorder is a Store that runs interactions on one engine and keeps
// the text of every statement they issue, reads and updates.
type stmtRecorder struct {
	storeOverEngine
	seen map[string]bool
}

type stmtQuerier struct {
	Querier
	seen map[string]bool
}

func (q stmtQuerier) Exec(stmt string, params ...value.Value) (*exec.Result, error) {
	q.seen[stmt] = true
	return q.Querier.Exec(stmt, params...)
}

func (s stmtRecorder) Run(readOnly bool, tables []string, fn func(Querier) error) error {
	return s.storeOverEngine.Run(readOnly, tables, func(q Querier) error {
		return fn(stmtQuerier{Querier: q, seen: s.seen})
	})
}

// TestMixBindsCompletely plans every statement the TPC-W mix issues and
// walks its plan: each column reference must have bound to a joined-row
// offset, so running the mix resolves no name per row. Every SELECT of the
// mix returns columns, so one that binds none means the walk stopped seeing
// them. (An UPDATE whose WHERE the index probe consumed may bind none.)
func TestMixBindsCompletely(t *testing.T) {
	scale := Scale{Items: 80, Customers: 30}
	e := loadEngine(t, scale)
	rec := stmtRecorder{storeOverEngine: storeOverEngine{e: e}, seen: make(map[string]bool)}
	w := NewWorkload(rec, scale)
	s := w.NewSession(1)
	for round := 0; round < 20; round++ {
		for it := Home; it <= AdminConfirm; it++ {
			if err := w.Do(s, it); err != nil {
				t.Fatalf("%s: %v", it, err)
			}
		}
	}
	stmts := make([]string, 0, len(rec.seen))
	for stmt := range rec.seen {
		stmts = append(stmts, stmt)
	}
	sort.Strings(stmts)
	total := 0
	for _, stmt := range stmts {
		bound, unknown, err := exec.ColumnBindings(e, stmt)
		if err != nil {
			t.Fatalf("plan %q: %v", stmt, err)
		}
		if len(unknown) > 0 {
			t.Errorf("%q: unresolved column references %v", stmt, unknown)
		}
		p, err := exec.Cached(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if p.ReadOnly() && bound == 0 {
			t.Errorf("%q: a SELECT that binds no column reference", stmt)
		}
		total += bound
	}
	t.Logf("%d statements, %d bound column references", len(stmts), total)
}
