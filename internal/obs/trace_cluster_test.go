package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestSpanIDsUniqueAndRooted(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		id := newSpanID()
		if id == 0 {
			t.Fatal("span id 0 is reserved for \"no trace\"")
		}
		if seen[id] {
			t.Fatalf("duplicate span id %#x after %d draws", id, i)
		}
		seen[id] = true
	}
	tr := NewTracer(8)
	root := tr.Begin("update")
	if root.TraceID == 0 || root.TraceID != root.SpanID || root.ParentID != 0 {
		t.Fatalf("root span ids = trace=%d span=%d parent=%d, want trace==span, parent 0",
			root.TraceID, root.SpanID, root.ParentID)
	}
	if got := root.Context(); got.TraceID != root.TraceID || got.SpanID != root.SpanID {
		t.Fatalf("Context() = %+v, want the span's own ids", got)
	}
	if (TraceContext{}).Valid() {
		t.Fatal("zero TraceContext must be invalid")
	}
}

func TestBeginChildPropagation(t *testing.T) {
	tr := NewTracer(8)
	root := tr.Begin("update")
	child := tr.BeginChild("ws-recv", root.Context())
	if child.TraceID != root.TraceID {
		t.Fatalf("child trace = %d, want root's %d", child.TraceID, root.TraceID)
	}
	if child.ParentID != root.SpanID {
		t.Fatalf("child parent = %d, want root span %d", child.ParentID, root.SpanID)
	}
	if child.SpanID == root.SpanID || child.SpanID == 0 {
		t.Fatalf("child span id %d must be fresh", child.SpanID)
	}
	// An invalid context starts a fresh root so untraced traffic still
	// records locally.
	orphan := tr.BeginChild("ws-recv", TraceContext{})
	if orphan.ParentID != 0 || orphan.TraceID == root.TraceID || orphan.TraceID == 0 {
		t.Fatalf("orphan = trace=%d parent=%d, want a fresh root", orphan.TraceID, orphan.ParentID)
	}
}

func TestStitchCausalOrder(t *testing.T) {
	tr := NewTracer(32)
	root := tr.Begin("update")
	shipA := tr.BeginChild("ws-ship", root.Context())
	shipB := tr.BeginChild("ws-ship", root.Context())
	apply := tr.BeginChild("lazy-apply", shipB.Context())
	other := tr.Begin("read")
	// Finish out of causal order: the ring order must not matter.
	apply.Finish("commit", "")
	other.Finish("commit", "")
	root.Finish("commit", "")
	shipB.Finish("commit", "")
	shipA.Finish("abort", "node-down")

	got := Stitch(tr.Dump(), root.TraceID)
	if len(got) != 4 {
		t.Fatalf("stitched %d spans, want 4 (other trace filtered): %+v", len(got), got)
	}
	pos := map[uint64]int{}
	for i, sp := range got {
		if sp.TraceID != root.TraceID {
			t.Fatalf("span %d from foreign trace %d", i, sp.TraceID)
		}
		pos[sp.SpanID] = i
	}
	if pos[root.SpanID] != 0 {
		t.Fatalf("root at position %d, want 0", pos[root.SpanID])
	}
	if pos[apply.SpanID] < pos[shipB.SpanID] {
		t.Fatalf("lazy-apply (pos %d) before its ws-ship parent (pos %d)",
			pos[apply.SpanID], pos[shipB.SpanID])
	}
	if Stitch(tr.Dump(), 0) != nil {
		t.Fatal("trace id 0 must stitch to nothing")
	}
	// A child whose parent was evicted surfaces as a root.
	partial := Stitch([]Span{{TraceID: 9, SpanID: 2, ParentID: 1, Start: time.Now()}}, 9)
	if len(partial) != 1 {
		t.Fatalf("orphaned child dropped: %+v", partial)
	}
}

func TestHistQuantileSummaryMerge(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 90; i++ {
		h.Observe(3) // bucket le=3
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000) // bucket le=1023
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 3 {
		t.Fatalf("p50 = %d, want 3", got)
	}
	if got := s.Quantile(0.99); got != 1023 {
		t.Fatalf("p99 = %d, want 1023", got)
	}
	sum := s.Summary()
	if sum.Count != 100 || sum.P50 != 3 || sum.P95 != 1023 || sum.P99 != 1023 {
		t.Fatalf("summary = %+v", sum)
	}
	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 || empty.Summary().Count != 0 {
		t.Fatal("empty histogram must summarize to zero")
	}

	h2 := &Histogram{}
	h2.Observe(3)
	merged := s.Merge(h2.Snapshot())
	if merged.Count != 101 || merged.Sum != s.Sum+3 {
		t.Fatalf("merge count=%d sum=%d, want 101/%d", merged.Count, merged.Sum, s.Sum+3)
	}
	var le3 int64
	for _, b := range merged.Buckets {
		if b.Bound == 3 {
			le3 = b.Count
		}
	}
	if le3 != 91 {
		t.Fatalf("merged le=3 bucket = %d, want 91", le3)
	}
}

func TestLabeled(t *testing.T) {
	if got := Labeled(ReplicaVersionLag, "node", "slave0", "table", "item"); got !=
		ReplicaVersionLag+`{node="slave0",table="item"}` {
		t.Fatalf("Labeled = %q", got)
	}
	if got := Labeled(NodeRole); got != NodeRole {
		t.Fatalf("label-free Labeled = %q, want the bare name", got)
	}
}

func TestMergeSnapshots(t *testing.T) {
	mk := func(node string, applied, maxv []uint64, pend int, reads int64) NodeSnapshot {
		r := New()
		r.Counter(NodeReadTxns).Add(reads)
		r.Gauge(PersistBacklog).Set(2)
		r.Histogram(testHist).Observe(5)
		sp := r.Tracer().Begin("update")
		sp.Finish("commit", "")
		return NodeSnapshot{
			Node: node, Role: "slave", StartUnix: 10,
			Applied: applied, MaxVer: maxv, PendingMods: pend,
			Snap:  r.Snapshot(),
			Spans: r.Tracer().Dump(),
		}
	}
	a := mk("b-node", []uint64{5, 2}, []uint64{7, 2}, 3, 4)
	b := mk("a-node", []uint64{7, 2}, []uint64{7, 2}, 0, 6)
	cs := MergeSnapshots([]NodeSnapshot{a, b}, []uint64{6, 3})

	if cs.Frontier[0] != 7 || cs.Frontier[1] != 3 {
		t.Fatalf("frontier = %v, want [7 3] (max of MaxVers and floor)", cs.Frontier)
	}
	if cs.Nodes[0].Node != "a-node" || cs.Nodes[1].Node != "b-node" {
		t.Fatalf("nodes not sorted: %+v", cs.Nodes)
	}
	bl := cs.Nodes[1]
	if bl.Lag[0] != 2 || bl.Lag[1] != 1 || bl.PendingMods != 3 {
		t.Fatalf("b-node lag = %v pending = %d, want [2 1] / 3", bl.Lag, bl.PendingMods)
	}
	if cs.Merged.Counters[NodeReadTxns] != 10 {
		t.Fatalf("merged counter = %d, want 10", cs.Merged.Counters[NodeReadTxns])
	}
	if cs.Merged.Gauges[PersistBacklog] != 4 {
		t.Fatalf("merged gauge = %g, want 4", cs.Merged.Gauges[PersistBacklog])
	}
	if h := cs.Merged.Histograms[testHist]; h.Count != 2 || h.Sum != 10 {
		t.Fatalf("merged hist = %+v, want count 2 sum 10", h)
	}
	if len(cs.Spans) != 2 {
		t.Fatalf("spans = %d, want the two rings concatenated", len(cs.Spans))
	}
}

func TestWriteTextQuantileLines(t *testing.T) {
	r := New()
	for i := 0; i < 10; i++ {
		r.Histogram(SchedTxnUS).Observe(3)
	}
	var sb strings.Builder
	r.WriteText(&sb)
	for _, want := range []string{
		SchedTxnUS + `{quantile="0.5"} 3`,
		SchedTxnUS + `{quantile="0.95"} 3`,
		SchedTxnUS + `{quantile="0.99"} 3`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q in:\n%s", want, sb.String())
		}
	}
}

func TestRegisterIdentityAndRoleValue(t *testing.T) {
	r := New()
	start := time.Unix(1234, 0)
	RegisterIdentity(r, "slave0", start)
	snap := r.Snapshot()
	if got := snap.Gauges[Labeled(NodeStartTime, "node", "slave0")]; got != 1234 {
		t.Fatalf("start-time gauge = %g, want 1234", got)
	}
	found := false
	for name, v := range snap.Gauges {
		if strings.HasPrefix(name, BuildInfo) && strings.Contains(name, `node="slave0"`) && v == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("build-info gauge missing: %v", snap.Gauges)
	}
	RegisterIdentity(nil, "x", start) // must not panic
	for role, want := range map[string]int64{"slave": 0, "master": 1, "joining": 2, "spare": 3} {
		if got := RoleValue(role); got != want {
			t.Errorf("RoleValue(%s) = %d, want %d", role, got, want)
		}
	}
}

func TestClusterEndpointAndAggregator(t *testing.T) {
	r := New()
	root := r.Tracer().Begin("update")
	child := r.Tracer().BeginChild("ws-recv", root.Context())
	child.Finish("commit", "")
	root.Finish("commit", "")

	agg := &Aggregator{}
	agg.Update(ClusterSnapshot{
		Frontier: []uint64{4},
		Nodes:    []NodeLag{{Node: "slave0", Role: "slave", Lag: []uint64{1}, PendingMods: 2}},
		Merged:   Snapshot{Counters: map[string]int64{SchedReadTxns: 7}},
	})
	ln, err := Serve("127.0.0.1:0", r, ServeOptions{Cluster: agg.Current})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + ln.Addr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	body := get("/cluster")
	for _, want := range []string{`"slave0"`, `"PendingMods": 2`, `"Frontier"`} {
		if !strings.Contains(body, want) {
			t.Errorf("/cluster missing %q:\n%s", want, body)
		}
	}
	if text := get("/cluster?format=text"); !strings.Contains(text, SchedReadTxns+" 7") {
		t.Errorf("/cluster?format=text missing merged counter:\n%s", text)
	}
	// Default /stitch resolves the latest root trace and orders the child
	// after its parent.
	stitched := get("/stitch")
	ri := strings.Index(stitched, `"update"`)
	ci := strings.Index(stitched, `"ws-recv"`)
	if ri < 0 || ci < 0 || ci < ri {
		t.Errorf("/stitch order wrong (root at %d, child at %d):\n%s", ri, ci, stitched)
	}

	var nilAgg *Aggregator
	nilAgg.Update(ClusterSnapshot{}) // must not panic
	if cur := nilAgg.Current(); len(cur.Nodes) != 0 {
		t.Fatal("nil aggregator must return the zero snapshot")
	}
}
