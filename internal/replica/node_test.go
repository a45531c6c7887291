package replica

import (
	"errors"
	"testing"
	"time"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/page"
	"dmv/internal/simdisk"
	"dmv/internal/value"
)

func newNodeWithData(t *testing.T, id string, disk *simdisk.Disk) *Node {
	t.Helper()
	opts := heap.Options{PageCap: 4}
	if disk != nil {
		opts.Observer = disk
	}
	e := heap.NewEngine(opts)
	for _, ddl := range []string{
		`CREATE TABLE kv (k INT PRIMARY KEY, v INT)`,
	} {
		if err := exec.ExecDDL(e, ddl); err != nil {
			t.Fatalf("ddl: %v", err)
		}
	}
	tid, _ := e.TableID("kv")
	rows := make([]value.Row, 0, 32)
	for i := 1; i <= 32; i++ {
		rows = append(rows, value.Row{value.NewInt(int64(i)), value.NewInt(0)})
	}
	if err := e.Load(tid, rows); err != nil {
		t.Fatalf("load: %v", err)
	}
	return NewNode(Options{ID: id, Engine: e, Disk: disk})
}

func commitKV(t *testing.T, n *Node, k, v int64) {
	t.Helper()
	id, err := n.TxBegin(false, nil, 0, obs.TraceContext{})
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if _, err := n.TxExec(id, `UPDATE kv SET v = ? WHERE k = ?`,
		[]value.Value{value.NewInt(v), value.NewInt(k)}); err != nil {
		t.Fatalf("exec: %v", err)
	}
	if _, err := n.TxCommit(id); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

func TestUpdateRequiresMasterRole(t *testing.T) {
	n := newNodeWithData(t, "n", nil)
	if _, err := n.TxBegin(false, nil, 0, obs.TraceContext{}); !errors.Is(err, ErrNotMaster) {
		t.Fatalf("err = %v, want ErrNotMaster", err)
	}
	if err := n.Promote(nil); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if _, err := n.TxBegin(false, nil, 0, obs.TraceContext{}); err != nil {
		t.Fatalf("after promote: %v", err)
	}
	role, _ := n.Role()
	if role != RoleMaster {
		t.Fatalf("role = %v", role)
	}
}

func TestKillFailsEverything(t *testing.T) {
	n := newNodeWithData(t, "n", nil)
	n.Kill()
	if err := n.Ping(); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("ping = %v", err)
	}
	if _, err := n.TxBegin(true, nil, 0, obs.TraceContext{}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("begin = %v", err)
	}
	if err := n.ReceiveWriteSet(&heap.WriteSet{}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("receive = %v", err)
	}
}

func TestJoinBuffering(t *testing.T) {
	master := newNodeWithData(t, "m", nil)
	joiner := newNodeWithData(t, "j", nil)
	support := newNodeWithData(t, "s", nil)
	if err := master.Promote(nil); err != nil {
		t.Fatalf("promote: %v", err)
	}
	master.SetSubscribers([]Peer{support})

	commitKV(t, master, 1, 100)

	// Joiner starts buffering; subsequent commits reach it but are not
	// applied ("stores these modifications into its local queues").
	if err := joiner.StartJoin(); err != nil {
		t.Fatalf("start join: %v", err)
	}
	master.SetSubscribers([]Peer{support, joiner})
	commitKV(t, master, 2, 200)
	if got := joiner.Engine().PendingMods(); got != 0 {
		t.Fatalf("joiner applied while joining: %d pending mods", got)
	}

	// Migration: fetch the changed pages from the support slave, install,
	// drain.
	have, err := joiner.PageVersions()
	if err != nil {
		t.Fatal(err)
	}
	donor, err := support.PageVersions()
	if err != nil {
		t.Fatal(err)
	}
	var delta []page.Image
	for _, s := range heap.ChangedPages(have, donor) {
		imgs, err := support.PageImages(s.Table, s.Pages)
		if err != nil {
			t.Fatal(err)
		}
		delta = append(delta, imgs...)
	}
	if err := joiner.InstallDelta(delta); err != nil {
		t.Fatal(err)
	}
	if err := joiner.FinishJoin(); err != nil {
		t.Fatal(err)
	}
	role, _ := joiner.Role()
	if role != RoleSlave {
		t.Fatalf("role after join = %v", role)
	}

	// The joiner serves a consistent read at the master's latest vector.
	mv, _ := master.MaxVersions()
	id, err := joiner.TxBegin(true, mv, 0, obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := joiner.TxExec(id, `SELECT v FROM kv WHERE k = ?`, []value.Value{value.NewInt(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 200 {
		t.Fatalf("joined read = %v", res.Rows)
	}
}

func TestCheckpointerThread(t *testing.T) {
	n := newNodeWithData(t, "n", nil)
	if n.LastCheckpoint() != nil {
		t.Fatal("unexpected initial checkpoint")
	}
	cp := n.StartCheckpointer(5 * time.Millisecond)
	deadline := time.Now().Add(time.Second)
	for n.LastCheckpoint() == nil && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	cp.Stop()
	blob := n.LastCheckpoint()
	if blob == nil {
		t.Fatal("no checkpoint written")
	}
	// The checkpoint restores into a fresh engine.
	decoded, err := heap.DecodeCheckpoint(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	fresh := newNodeWithData(t, "f", nil)
	if err := fresh.Engine().RestoreCheckpoint(decoded); err != nil {
		t.Fatalf("restore: %v", err)
	}
	// Checkpoint survives Kill (it models local stable storage).
	n.Kill()
	if n.LastCheckpoint() == nil {
		t.Fatal("checkpoint lost on kill")
	}
}

func TestWarmPagesAndResidentPages(t *testing.T) {
	disk := simdisk.New(simdisk.InMemory(0), 64)
	n := newNodeWithData(t, "n", disk)
	spareDisk := simdisk.New(simdisk.InMemory(0), 64)
	spare := newNodeWithData(t, "sp", spareDisk)

	// Touch some pages via reads.
	id, _ := n.TxBegin(true, nil, 0, obs.TraceContext{})
	if _, err := n.TxExec(id, `SELECT COUNT(*) FROM kv`, nil); err != nil {
		t.Fatal(err)
	}
	keys, err := n.ResidentPages(0)
	if err != nil || len(keys) == 0 {
		t.Fatalf("resident = %d, %v", len(keys), err)
	}
	if err := spare.WarmPages(keys); err != nil {
		t.Fatal(err)
	}
	if spareDisk.ResidentCount() != len(keys) {
		t.Fatalf("spare resident = %d, want %d", spareDisk.ResidentCount(), len(keys))
	}
}

func TestSessionLifecycle(t *testing.T) {
	n := newNodeWithData(t, "n", nil)
	if err := n.Promote(nil); err != nil {
		t.Fatal(err)
	}
	id, err := n.TxBegin(false, nil, 0, obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.TxRollback(id); err != nil {
		t.Fatal(err)
	}
	// Session is gone after rollback.
	if _, err := n.TxExec(id, `SELECT 1`, nil); !errors.Is(err, ErrNoSession) {
		t.Fatalf("err = %v, want ErrNoSession", err)
	}
	if _, err := n.TxCommit(9999); !errors.Is(err, ErrNoSession) {
		t.Fatalf("err = %v, want ErrNoSession", err)
	}
}

func TestSubscriberManagement(t *testing.T) {
	n := newNodeWithData(t, "n", nil)
	a := newNodeWithData(t, "a", nil)
	b := newNodeWithData(t, "b", nil)
	set := []Peer{a, b}
	n.SetSubscribers(set)
	set[0] = nil // the node keeps its own copy
	if subs := n.Subscribers(); len(subs) != 2 || subs[0].ID() != "a" || subs[1].ID() != "b" {
		t.Fatalf("subs = %v", subs)
	}
	n.SetSubscribers([]Peer{b})
	subs := n.Subscribers()
	if len(subs) != 1 || subs[0].ID() != "b" {
		t.Fatalf("subs = %v", subs)
	}
}

func TestBroadcastReportsDeadPeer(t *testing.T) {
	var failed string
	master := newNodeWithData(t, "m", nil)
	master.onPeerFailure = func(id string) { failed = id }
	if err := master.Promote(nil); err != nil {
		t.Fatal(err)
	}
	dead := newNodeWithData(t, "dead", nil)
	dead.Kill()
	live := newNodeWithData(t, "live", nil)
	master.SetSubscribers([]Peer{dead, live})

	commitKV(t, master, 3, 30) // must succeed despite the dead subscriber
	if failed != "dead" {
		t.Fatalf("failure hook got %q, want dead", failed)
	}
	// The live subscriber received the write-set.
	mv, _ := master.MaxVersions()
	id, _ := live.TxBegin(true, mv, 0, obs.TraceContext{})
	res, err := live.TxExec(id, `SELECT v FROM kv WHERE k = 3`, nil)
	if err != nil || res.Rows[0][0].AsInt() != 30 {
		t.Fatalf("live read = %v, %v", res, err)
	}
}

func TestCheckpointToDiskSurvivesNodeObject(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Node {
		e := heap.NewEngine(heap.Options{PageCap: 4})
		if err := exec.ExecDDL(e, `CREATE TABLE kv (k INT PRIMARY KEY, v INT)`); err != nil {
			t.Fatal(err)
		}
		tid, _ := e.TableID("kv")
		rows := make([]value.Row, 0, 8)
		for i := 1; i <= 8; i++ {
			rows = append(rows, value.Row{value.NewInt(int64(i)), value.NewInt(0)})
		}
		if err := e.Load(tid, rows); err != nil {
			t.Fatal(err)
		}
		return NewNode(Options{ID: "n", Engine: e, CheckpointDir: dir})
	}
	n := mk()
	if err := n.Promote(nil); err != nil {
		t.Fatal(err)
	}
	commitKV(t, n, 3, 33)
	if err := n.RunCheckpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	n.Kill()

	// A brand-new node object (the "rebooted machine") finds the file.
	reborn := mk()
	blob := reborn.LastCheckpoint()
	if blob == nil {
		t.Fatal("no checkpoint found on disk")
	}
	cp, err := heap.DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	fresh := heap.NewEngine(heap.Options{PageCap: 4})
	if err := exec.ExecDDL(fresh, `CREATE TABLE kv (k INT PRIMARY KEY, v INT)`); err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	tx := fresh.BeginRead(nil)
	res, err := exec.Run(tx, `SELECT v FROM kv WHERE k = 3`)
	if err != nil || res.Rows[0][0].AsInt() != 33 {
		t.Fatalf("restored read = %v, %v", res, err)
	}
}
