package transport

import (
	"testing"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/replica"
	"dmv/internal/value"
)

func newTracedNode(t *testing.T, id string) (*replica.Node, *obs.Registry) {
	t.Helper()
	reg := obs.New()
	e := heap.NewEngine(heap.Options{PageCap: 8, Obs: reg, NodeID: id})
	if err := exec.ExecDDL(e, `CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(32))`); err != nil {
		t.Fatalf("ddl: %v", err)
	}
	rows := make([]value.Row, 0, 20)
	for i := 1; i <= 20; i++ {
		rows = append(rows, value.Row{value.NewInt(int64(i)), value.NewString("init")})
	}
	tid, _ := e.TableID("kv")
	if err := e.Load(tid, rows); err != nil {
		t.Fatalf("load: %v", err)
	}
	return replica.NewNode(replica.Options{ID: id, Engine: e, Obs: reg}), reg
}

// TestTracePropagation drives one traced update through real TCP
// round-trips — scheduler-side root, remote master commit, write-set ship
// to the slave, and the slave's lazy apply on first read — and asserts the
// whole causal path stitches under a single TraceID even though the spans
// were recorded on three different registries (three processes, in the
// multiprocess deployment).
func TestTracePropagation(t *testing.T) {
	master, regM := newTracedNode(t, "m")
	slave, regS := newTracedNode(t, "s")
	if err := master.Promote([]int{0}); err != nil {
		t.Fatalf("promote: %v", err)
	}
	msrv, err := ServeNode(master, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve master: %v", err)
	}
	defer msrv.Close()
	ssrv, err := ServeNode(slave, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve slave: %v", err)
	}
	defer ssrv.Close()
	mPeer, err := DialNode("m", msrv.Addr())
	if err != nil {
		t.Fatalf("dial master: %v", err)
	}
	sPeer, err := DialNode("s", ssrv.Addr())
	if err != nil {
		t.Fatalf("dial slave: %v", err)
	}
	if err := mPeer.SetSubscribers(map[string]string{"s": ssrv.Addr()}); err != nil {
		t.Fatalf("set subscribers: %v", err)
	}

	// Scheduler side: root span, its context rides the Begin RPC.
	regSched := obs.New()
	sp := regSched.Tracer().Begin("update")
	txID, err := mPeer.TxBegin(false, nil, 0, sp.Context())
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if _, err := mPeer.TxExec(txID, `UPDATE kv SET v = ? WHERE k = ?`,
		[]value.Value{value.NewString("traced"), value.NewInt(7)}); err != nil {
		t.Fatalf("exec: %v", err)
	}
	ver, err := mPeer.TxCommit(txID)
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	sp.Finish("commit", "")

	// Slave read at the committed version: first touch of the page applies
	// the buffered mods, recording the lazy-apply leg of the trace.
	rID, err := sPeer.TxBegin(true, ver, 0, obs.TraceContext{})
	if err != nil {
		t.Fatalf("read begin: %v", err)
	}
	res, err := sPeer.TxExec(rID, `SELECT v FROM kv WHERE k = ?`, []value.Value{value.NewInt(7)})
	if err != nil {
		t.Fatalf("read exec: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "traced" {
		t.Fatalf("slave read = %v", res.Rows)
	}
	if _, err := sPeer.TxCommit(rID); err != nil {
		t.Fatalf("read commit: %v", err)
	}

	// Stitch across the three registries, exactly as the scheduler's
	// /stitch endpoint does with aggregated spans.
	all := append(regSched.Tracer().Dump(), regM.Tracer().Dump()...)
	all = append(all, regS.Tracer().Dump()...)
	stitched := obs.Stitch(all, sp.TraceID)
	if len(stitched) == 0 || stitched[0].Kind != "update" {
		t.Fatalf("stitched trace must start at the scheduler root: %+v", stitched)
	}
	byKind := map[string]obs.Span{}
	for _, s := range stitched {
		if s.TraceID != sp.TraceID {
			t.Fatalf("span %q carries trace %d, want %d", s.Kind, s.TraceID, sp.TraceID)
		}
		byKind[s.Kind] = s
	}
	mc, ok := byKind["master-commit"]
	if !ok || mc.Node != "m" {
		t.Fatalf("missing master-commit on m: %+v", byKind)
	}
	if mc.ParentID != sp.SpanID {
		t.Fatalf("master-commit parent = %d, want scheduler root %d", mc.ParentID, sp.SpanID)
	}
	ship, ok := byKind["ws-ship"]
	if !ok || ship.Node != "s" {
		t.Fatalf("missing ws-ship targeting s: %+v", byKind)
	}
	acked := false
	for _, st := range ship.Stages {
		if st.Name == "ack" {
			acked = true
		}
	}
	if !acked {
		t.Fatalf("ws-ship missing ack stage: %+v", ship.Stages)
	}
	recv, ok := byKind["ws-recv"]
	if !ok || recv.Node != "s" {
		t.Fatalf("missing ws-recv on s: %+v", byKind)
	}
	apply, ok := byKind["lazy-apply"]
	if !ok || apply.Node != "s" {
		t.Fatalf("missing lazy-apply on s: %+v", byKind)
	}
	if apply.ParentID != mc.SpanID {
		t.Fatalf("lazy-apply parent = %d, want master-commit %d", apply.ParentID, mc.SpanID)
	}

	// The aggregation RPC: the slave's snapshot carries identity, version
	// state, and its half of the trace for the scheduler's merge.
	ns, err := sPeer.ObsSnapshot()
	if err != nil {
		t.Fatalf("obs snapshot: %v", err)
	}
	if ns.Node != "s" || ns.Role != "slave" {
		t.Fatalf("snapshot identity = %s/%s", ns.Node, ns.Role)
	}
	if len(ns.MaxVer) == 0 || ns.MaxVer[0] != 1 {
		t.Fatalf("snapshot MaxVer = %v, want [1]", ns.MaxVer)
	}
	if len(ns.Applied) == 0 || ns.Applied[0] != 1 {
		t.Fatalf("snapshot Applied = %v, want [1] after the read applied the mods", ns.Applied)
	}
	if len(ns.Spans) == 0 {
		t.Fatal("snapshot carries no spans")
	}
	for i, v := range ver {
		if i >= len(ns.Applied) || ns.Applied[i] < v {
			t.Fatalf("snapshot Applied = %v behind the scheduler's %v after apply", ns.Applied, ver)
		}
	}
}
