package tpcw

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/value"
)

// selectRecorder is a Store that runs interactions on one engine and keeps
// the text of every SELECT they issue.
type selectRecorder struct {
	storeOverEngine
	seen map[string]bool
}

type recordingQuerier struct {
	Querier
	seen map[string]bool
}

func (q recordingQuerier) Exec(stmt string, params ...value.Value) (*exec.Result, error) {
	if p, err := exec.Cached(stmt); err == nil && p.ReadOnly() {
		q.seen[stmt] = true
	}
	return q.Querier.Exec(stmt, params...)
}

func (s selectRecorder) Run(readOnly bool, tables []string, fn func(Querier) error) error {
	return s.storeOverEngine.Run(readOnly, tables, func(q Querier) error {
		return fn(recordingQuerier{Querier: q, seen: s.seen})
	})
}

// TestReadPlansGolden renders the plan of every SELECT the workload issues
// and compares it to testdata/read_plans.golden: a planner change that moves
// any TPC-W read to another access path, join shape or sort shows here.
func TestReadPlansGolden(t *testing.T) {
	scale := Scale{Items: 80, Customers: 30}
	e := loadEngine(t, scale)
	rec := selectRecorder{storeOverEngine: storeOverEngine{e: e}, seen: make(map[string]bool)}
	w := NewWorkload(rec, scale)
	s := w.NewSession(1)
	for round := 0; round < 20; round++ {
		for it := Home; it <= AdminConfirm; it++ {
			if err := w.Do(s, it); err != nil {
				t.Fatalf("%s: %v", it, err)
			}
		}
	}
	got := renderPlans(t, e, rec.seen)
	want, err := os.ReadFile(filepath.Join("testdata", "read_plans.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("read plans differ from testdata/read_plans.golden; got:\n%s", got)
	}
}

// renderPlans lists each statement, whitespace collapsed, above its plan, in
// statement order.
func renderPlans(t *testing.T, e *heap.Engine, stmts map[string]bool) string {
	t.Helper()
	type entry struct{ text, plan string }
	var out []entry
	for stmt := range stmts {
		plan, err := exec.Explain(e, stmt)
		if err != nil {
			t.Fatalf("explain %q: %v", stmt, err)
		}
		out = append(out, entry{strings.Join(strings.Fields(stmt), " "), plan})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].text < out[j].text })
	var b strings.Builder
	for _, x := range out {
		b.WriteString("-- " + x.text + "\n" + x.plan + "\n")
	}
	return b.String()
}
