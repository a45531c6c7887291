package transport

import (
	"errors"
	"testing"
	"time"

	"dmv/internal/obs"
	"dmv/internal/page"
	"dmv/internal/replica"
	"dmv/internal/scheduler"
	"dmv/internal/value"
)

// serveDial serves n on loopback and dials it with opts.
func serveDial(t *testing.T, n *replica.Node, opts ClientOptions) (*Server, *RemoteNode) {
	t.Helper()
	srv, err := ServeNode(n, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve %s: %v", n.ID(), err)
	}
	t.Cleanup(srv.Close)
	p, err := DialNodeOpts(n.ID(), srv.Addr(), opts)
	if err != nil {
		t.Fatalf("dial %s: %v", n.ID(), err)
	}
	t.Cleanup(p.Close)
	return srv, p
}

// openSessions counts the client's session records: one per open read
// session, none for an update.
func openSessions(p *RemoteNode) int {
	p.sessMu.Lock()
	defer p.sessMu.Unlock()
	return len(p.sessions)
}

// TestReadTxnRoundTrips is the count gate of the carried begin: a read
// transaction of s statements makes s+1 calls (its statements and its
// commit, the first statement carrying the begin), and a read that runs no
// statement makes none.
func TestReadTxnRoundTrips(t *testing.T) {
	reg := obs.New()
	_, p := serveDial(t, newTPCNode(t, "s"), ClientOptions{Obs: reg})
	calls := func() int64 { return reg.Snapshot().Histograms[obs.TransportRPCUS].Count }
	const k = 5
	for _, s := range []int{0, 1, 3} {
		before := calls()
		for i := 0; i < k; i++ {
			id, err := p.TxBegin(true, nil, 0, obs.TraceContext{})
			if err != nil {
				t.Fatalf("begin: %v", err)
			}
			for j := 0; j < s; j++ {
				res, err := p.TxExec(id, `SELECT v FROM kv WHERE k = ?`, []value.Value{value.NewInt(int64(j + 1))})
				if err != nil {
					t.Fatalf("exec %d: %v", j, err)
				}
				if len(res.Rows) != 1 {
					t.Fatalf("exec %d returned %d rows, want 1", j, len(res.Rows))
				}
			}
			if _, err := p.TxCommit(id); err != nil {
				t.Fatalf("commit: %v", err)
			}
		}
		want := int64(0)
		if s > 0 {
			want = int64(k * (s + 1))
		}
		if got := calls() - before; got != want {
			t.Errorf("%d reads of %d statements made %d calls, want %d", k, s, got, want)
		}
	}
	if n := openSessions(p); n != 0 {
		t.Fatalf("%d session records left after every read finished", n)
	}
}

// TestReadBeginOnDeadSlave: with no TxBegin call, a read routed to a dead
// slave learns it from its first statement. The scheduler reports the
// slave, releases the read's admission slot and its outstanding count, and
// the retry succeeds on the other slave.
func TestReadBeginOnDeadSlave(t *testing.T) {
	deadSrv, dead := serveDial(t, newTPCNode(t, "dead"), ClientOptions{})
	_, live := serveDial(t, newTPCNode(t, "live"), ClientOptions{})
	deadSrv.Close()

	ref := newTPCNode(t, "ref").Engine()
	var sched *scheduler.Scheduler
	sched, err := scheduler.New(scheduler.Options{
		Seed:          1,
		MaxRetries:    2,
		OnPeerFailure: func(string) { sched.SetReplicas([]replica.Peer{live}, nil, nil) },
		// One slot: a read that leaked its slot would starve the next one
		// into its deadline.
		Admission: scheduler.AdmissionOptions{Slots: 1},
	}, ref.NumTables(), ref.TableID)
	if err != nil {
		t.Fatalf("scheduler: %v", err)
	}
	sched.AddSlave(dead)
	sched.AddSlave(live)

	nodeDown := 0
	for i := 0; i < 4; i++ {
		spec := scheduler.TxnSpec{ReadOnly: true, Tables: []string{"kv"}, Deadline: time.Now().Add(2 * time.Second)}
		var ran string
		err := sched.Run(spec, func(tx *scheduler.Txn) error {
			_, err := tx.Exec(`SELECT v FROM kv WHERE k = 1`)
			if errors.Is(err, replica.ErrNodeDown) {
				if tx.Replica() != "dead" {
					t.Errorf("ErrNodeDown from %s, want only from the dead slave", tx.Replica())
				}
				nodeDown++
			}
			ran = tx.Replica()
			return err
		})
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if ran != "live" {
			t.Fatalf("read %d committed on %s, want live", i, ran)
		}
	}
	if nodeDown != 1 {
		t.Fatalf("first statements saw ErrNodeDown %d times, want 1 (then the dead slave is removed)", nodeDown)
	}
	if got := sched.Slaves(); len(got) != 1 || got[0] != "live" {
		t.Fatalf("slaves = %v, want [live]", got)
	}
	if out := sched.AvgOutstanding(); out != 0 {
		t.Fatalf("outstanding reads = %v after every read finished, want 0", out)
	}
	if n := openSessions(dead) + openSessions(live); n != 0 {
		t.Fatalf("%d session records left", n)
	}
}

// TestReadBeginConflictClosesSession: a first statement that fails (here on
// a version conflict) still returns the session its begin opened, so the
// rollback closes it on the server, and the slave's replica-read span ends
// as an abort.
func TestReadBeginConflictClosesSession(t *testing.T) {
	master := newTPCNode(t, "m")
	slave, regS := newTracedNode(t, "s")
	if err := master.Promote([]int{0}); err != nil {
		t.Fatalf("promote: %v", err)
	}
	master.SetSubscribers([]replica.Peer{slave})
	_, p := serveDial(t, slave, ClientOptions{})

	commit := func(val string) {
		id, err := master.TxBegin(false, nil, 0, obs.TraceContext{})
		if err != nil {
			t.Fatalf("begin: %v", err)
		}
		if _, err := master.TxExec(id, `UPDATE kv SET v = ? WHERE k = 1`, []value.Value{value.NewString(val)}); err != nil {
			t.Fatalf("exec: %v", err)
		}
		if _, err := master.TxCommit(id); err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
	commit("v1")
	v1, _ := master.MaxVersions()
	commit("v2")
	v2, _ := master.MaxVersions()
	// Materialize v2 on the slave, so a read at v1 conflicts.
	r2, err := slave.TxBegin(true, v2, 0, obs.TraceContext{})
	if err != nil {
		t.Fatalf("begin v2: %v", err)
	}
	if _, err := slave.TxExec(r2, `SELECT v FROM kv WHERE k = 1`, nil); err != nil {
		t.Fatalf("read v2: %v", err)
	}
	if _, err := slave.TxCommit(r2); err != nil {
		t.Fatalf("commit v2: %v", err)
	}

	sp := obs.New().Tracer().Begin("read")
	h, err := p.TxBegin(true, v1, 0, sp.Context())
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if _, err := p.TxExec(h, `SELECT v FROM kv WHERE k = 1`, nil); !errors.Is(err, page.ErrVersionConflict) {
		t.Fatalf("first statement: err = %v, want ErrVersionConflict", err)
	}
	p.sessMu.Lock()
	sid := p.sessions[h].id
	p.sessMu.Unlock()
	if sid == 0 {
		t.Fatal("the failed first statement did not return its session id")
	}
	if err := p.TxRollback(h); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if err := slave.TxRollback(sid); !errors.Is(err, replica.ErrNoSession) {
		t.Fatalf("server session %d after rollback: %v, want ErrNoSession", sid, err)
	}
	var read *obs.Span
	for _, s := range regS.Tracer().Dump() {
		if s.Kind == "replica-read" && s.TraceID == sp.TraceID {
			read = &s
		}
	}
	if read == nil || read.Outcome != "abort" {
		t.Fatalf("slave replica-read span = %+v, want one finished with abort", read)
	}
}

// TestExpiredCommitReleasesSession: a commit the node refuses because the
// caller's deadline passed rolls the session back there. The caller counts
// the transaction finished and sends no rollback, so otherwise the master
// kept the session and its page latch, and the next update of the row
// waited out the lock timeout.
func TestExpiredCommitReleasesSession(t *testing.T) {
	master := newTPCNode(t, "m")
	if err := master.Promote([]int{0}); err != nil {
		t.Fatalf("promote: %v", err)
	}
	_, p := serveDial(t, master, ClientOptions{})
	update := []value.Value{value.NewString("x"), value.NewInt(7)}

	id, err := p.TxBegin(false, nil, 20*time.Millisecond, obs.TraceContext{})
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if _, err := p.TxExec(id, `UPDATE kv SET v = ? WHERE k = ?`, update); err != nil {
		t.Fatalf("exec: %v", err)
	}
	time.Sleep(30 * time.Millisecond)
	if _, err := p.TxCommit(id); !errors.Is(err, replica.ErrDeadlineExpired) {
		t.Fatalf("late commit: err = %v, want ErrDeadlineExpired", err)
	}
	if n := openSessions(p); n != 0 {
		t.Fatalf("%d session records left after the expired commit", n)
	}

	id, err = p.TxBegin(false, nil, 0, obs.TraceContext{})
	if err != nil {
		t.Fatalf("second begin: %v", err)
	}
	start := time.Now()
	if _, err := p.TxExec(id, `UPDATE kv SET v = ? WHERE k = ?`, update); err != nil {
		t.Fatalf("second update of the row after %v: %v", time.Since(start), err)
	}
	if _, err := p.TxCommit(id); err != nil {
		t.Fatalf("second commit: %v", err)
	}
	if n, err := p.AbortActiveSessions(); err != nil || n != 0 {
		t.Fatalf("AbortActiveSessions = %d, %v; want no open update session", n, err)
	}
}

// TestReadCommitAfterDeadlineMatchesInProcess: a read whose deadline passes
// after its last statement commits, on a RemoteNode as on the node it
// serves. Neither node refuses a read at commit, so neither may the
// transport: the read already returned its rows.
func TestReadCommitAfterDeadlineMatchesInProcess(t *testing.T) {
	n := newTPCNode(t, "s")
	_, p := serveDial(t, n, ClientOptions{})
	for _, peer := range []replica.Peer{n, p} {
		id, err := peer.TxBegin(true, nil, 30*time.Millisecond, obs.TraceContext{})
		if err != nil {
			t.Fatalf("%T begin: %v", peer, err)
		}
		if _, err := peer.TxExec(id, `SELECT v FROM kv WHERE k = 1`, nil); err != nil {
			t.Fatalf("%T exec: %v", peer, err)
		}
		time.Sleep(50 * time.Millisecond)
		if _, err := peer.TxCommit(id); err != nil {
			t.Fatalf("%T commit after the deadline: %v, want nil", peer, err)
		}
	}
	if n := openSessions(p); n != 0 {
		t.Fatalf("%d session records left", n)
	}
}

// TestReadBeginCarriesRemainingBudget: a read's begin rides its first
// statement, so it must carry the budget left when that statement is sent,
// not the budget the read began with. The node then refuses a statement
// sent after the caller's deadline, with no check on the client.
func TestReadBeginCarriesRemainingBudget(t *testing.T) {
	_, p := serveDial(t, newTPCNode(t, "s"), ClientOptions{})
	start := time.Now()
	h, err := p.TxBegin(true, nil, 100*time.Millisecond, obs.TraceContext{})
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	time.Sleep(time.Until(start.Add(60 * time.Millisecond)))
	if _, err := p.TxExec(h, `SELECT v FROM kv WHERE k = 1`, nil); err != nil {
		t.Fatalf("first statement at 60ms of a 100ms budget: %v", err)
	}
	time.Sleep(time.Until(start.Add(120 * time.Millisecond)))
	if _, err := p.TxExec(h, `SELECT v FROM kv WHERE k = 2`, nil); !errors.Is(err, replica.ErrDeadlineExpired) {
		t.Fatalf("second statement at 120ms of a 100ms budget: err = %v, want ErrDeadlineExpired", err)
	}
	if err := p.TxRollback(h); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if n := openSessions(p); n != 0 {
		t.Fatalf("%d session records left", n)
	}
}
