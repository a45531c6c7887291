package transport

import (
	"errors"
	"testing"
	"time"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/page"
	"dmv/internal/replica"
	"dmv/internal/value"
)

func newTPCNode(t *testing.T, id string) *replica.Node {
	t.Helper()
	return newTPCNodeWith(t, replica.Options{ID: id})
}

// newTPCNodeWith is newTPCNode with opts; the engine is the test's own.
func newTPCNodeWith(t *testing.T, opts replica.Options) *replica.Node {
	t.Helper()
	e := heap.NewEngine(heap.Options{PageCap: 8})
	ddl := []string{
		`CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(32))`,
	}
	for _, d := range ddl {
		if err := exec.ExecDDL(e, d); err != nil {
			t.Fatalf("ddl: %v", err)
		}
	}
	rows := make([]value.Row, 0, 20)
	for i := 1; i <= 20; i++ {
		rows = append(rows, value.Row{value.NewInt(int64(i)), value.NewString("init")})
	}
	tid, _ := e.TableID("kv")
	if err := e.Load(tid, rows); err != nil {
		t.Fatalf("load: %v", err)
	}
	opts.Engine = e
	return replica.NewNode(opts)
}

// TestRPCRoundTrip drives a master and a slave over real TCP connections:
// transactions, write-set replication with acks, versioned reads, and
// migration calls.
func TestRPCRoundTrip(t *testing.T) {
	master := newTPCNode(t, "m")
	slave := newTPCNode(t, "s")
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

	// Master replicates to the slave over TCP (it dials the slave itself).
	if err := mPeer.SetSubscribers(map[string]string{"s": ssrv.Addr()}); err != nil {
		t.Fatalf("set subscribers: %v", err)
	}

	// Update through the remote master.
	txID, err := mPeer.TxBegin(false, nil, 0, obs.TraceContext{})
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if _, err := mPeer.TxExec(txID, `UPDATE kv SET v = ? WHERE k = ?`,
		[]value.Value{value.NewString("hello"), value.NewInt(7)}); err != nil {
		t.Fatalf("exec: %v", err)
	}
	ver, err := mPeer.TxCommit(txID)
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if ver.Get(0) != 1 {
		t.Fatalf("version = %v", ver)
	}

	// Versioned read on the remote slave observes the replicated write.
	rID, err := sPeer.TxBegin(true, ver, 0, obs.TraceContext{})
	if err != nil {
		t.Fatalf("read begin: %v", err)
	}
	res, err := sPeer.TxExec(rID, `SELECT v FROM kv WHERE k = ?`, []value.Value{value.NewInt(7)})
	if err != nil {
		t.Fatalf("read exec: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "hello" {
		t.Fatalf("slave read = %v", res.Rows)
	}
	if _, err := sPeer.TxCommit(rID); err != nil {
		t.Fatalf("read commit: %v", err)
	}

	// Control plane: versions, page versions, page images.
	mv, err := sPeer.MaxVersions()
	if err != nil || mv.Get(0) != 1 {
		t.Fatalf("max versions = %v, %v", mv, err)
	}
	pv, err := sPeer.PageVersions()
	if err != nil || len(pv) == 0 {
		t.Fatalf("page versions = %v, %v", pv, err)
	}
	imgs, err := mPeer.PageImages(0, []page.ID{0})
	if err != nil || len(imgs) != 1 {
		t.Fatalf("page images = %d images, %v", len(imgs), err)
	}
}

// TestRPCErrorIdentity checks that sentinel errors survive the wire.
func TestRPCErrorIdentity(t *testing.T) {
	slave := newTPCNode(t, "s")
	srv, err := ServeNode(slave, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer srv.Close()
	peer, err := DialNode("s", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}

	// Update on a non-master must map to ErrNotMaster.
	if _, err := peer.TxBegin(false, nil, 0, obs.TraceContext{}); !errors.Is(err, replica.ErrNotMaster) {
		t.Fatalf("err = %v, want ErrNotMaster", err)
	}

	// Kill the node: calls map to ErrNodeDown (application-level).
	slave.Kill()
	if err := peer.Ping(); !errors.Is(err, replica.ErrNodeDown) {
		t.Fatalf("ping err = %v, want ErrNodeDown", err)
	}

	// Server gone entirely: transport failure also maps to ErrNodeDown.
	srv.Close()
	if err := peer.Ping(); !errors.Is(err, replica.ErrNodeDown) {
		t.Fatalf("ping after close err = %v, want ErrNodeDown", err)
	}
}

// TestRPCVersionConflict checks that the version-inconsistency abort keeps
// its identity across the wire so remote schedulers retry correctly.
func TestRPCVersionConflict(t *testing.T) {
	master := newTPCNode(t, "m")
	slave := newTPCNode(t, "s")
	if err := master.Promote([]int{0}); err != nil {
		t.Fatalf("promote: %v", err)
	}
	master.SetSubscribers([]replica.Peer{slave})

	srv, err := ServeNode(slave, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer srv.Close()
	peer, err := DialNode("s", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}

	commit := func(val string) []value.Value {
		txID, err := master.TxBegin(false, nil, 0, obs.TraceContext{})
		if err != nil {
			t.Fatalf("begin: %v", err)
		}
		if _, err := master.TxExec(txID, `UPDATE kv SET v = ? WHERE k = 1`,
			[]value.Value{value.NewString(val)}); err != nil {
			t.Fatalf("exec: %v", err)
		}
		if _, err := master.TxCommit(txID); err != nil {
			t.Fatalf("commit: %v", err)
		}
		return nil
	}
	commit("v1")
	v1, _ := master.MaxVersions()
	commit("v2")
	v2, _ := master.MaxVersions()

	// Materialize v2 on the slave, then ask for v1: version conflict.
	r2, err := peer.TxBegin(true, v2, 0, obs.TraceContext{})
	if err != nil {
		t.Fatalf("begin v2: %v", err)
	}
	if _, err := peer.TxExec(r2, `SELECT v FROM kv WHERE k = 1`, nil); err != nil {
		t.Fatalf("read v2: %v", err)
	}
	r1, err := peer.TxBegin(true, v1, 0, obs.TraceContext{})
	if err != nil {
		t.Fatalf("begin v1: %v", err)
	}
	_, err = peer.TxExec(r1, `SELECT v FROM kv WHERE k = 1`, nil)
	if !errors.Is(err, page.ErrVersionConflict) {
		t.Fatalf("err = %v, want ErrVersionConflict across the wire", err)
	}
}

// TestRPCReconnectAfterRestart kills the server and brings it back on the
// same address: the client's lazy reconnect must resume service (a rebooted
// node is reachable again without rebuilding the peer).
func TestRPCReconnectAfterRestart(t *testing.T) {
	node := newTPCNode(t, "n")
	srv, err := ServeNode(node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	peer, err := DialNode("n", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := peer.Ping(); err != nil {
		t.Fatalf("initial ping: %v", err)
	}

	srv.Close()
	if err := peer.Ping(); !errors.Is(err, replica.ErrNodeDown) {
		t.Fatalf("ping with server down = %v, want ErrNodeDown", err)
	}

	// "Reboot": a fresh node serves on the same address.
	node2 := newTPCNode(t, "n")
	srv2, err := ServeNode(node2, addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer srv2.Close()

	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := peer.Ping(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never reconnected")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Full functionality after reconnect.
	if _, err := peer.MaxVersions(); err != nil {
		t.Fatalf("call after reconnect: %v", err)
	}
}
