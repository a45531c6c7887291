package transport

import (
	"errors"
	"testing"
	"time"

	"dmv/internal/cluster"
	"dmv/internal/faultnet"
	"dmv/internal/obs"
	"dmv/internal/replica"
	"dmv/internal/scheduler"
)

// TestCommitReplyLostIsUncertain: an update commit whose request reached
// the master, but whose reply was lost when the connection failed, may have
// landed. The scheduler reports it as uncertain instead of running the
// transaction again, so the increment is applied once.
func TestCommitReplyLostIsUncertain(t *testing.T) {
	const seed = 3
	nw := faultnet.New(seed)
	n := newAcctNode(t, "master0", 0)
	lis, err := nw.Listen("master0", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv, err := ServeNodeListener(n, lis, nil)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(srv.Close)
	// A call deadline far beyond the test: the reply is lost to the reset,
	// never to a timeout.
	m, err := DialNodeOpts("master0", srv.Addr(), ClientOptions{Dial: nw.Dialer("sched"), CallTimeout: time.Minute, Seed: seed})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	plane, err := cluster.Assemble(remoteTierConfig(cluster.Config{}, seed), cluster.Members{Masters: []replica.Peer{m}}, Rewire, nil)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	t.Cleanup(plane.Close)

	tid, _ := n.Engine().TableID("acct")
	before := n.Engine().MaxVersions().Get(tid)
	attempts := 0
	done := make(chan error, 1)
	go func() {
		done <- plane.Run(scheduler.TxnSpec{Tables: []string{"acct"}}, func(tx *scheduler.Txn) error {
			attempts++
			if _, err := tx.Exec(`UPDATE acct SET bal = bal + 1 WHERE id = 1`); err != nil {
				return err
			}
			if attempts == 1 {
				nw.PartitionOneWay("master0", "sched") // hold the commit's reply
			}
			return nil
		})
	}()
	// The master's version moves once the commit has landed; its reply is
	// held in the cut until the connection is reset under it.
	if !eventually(10*time.Second, func() bool { return n.Engine().MaxVersions().Get(tid) > before }) {
		t.Fatal("the commit never reached the master")
	}
	nw.ResetLink("master0", "sched")
	nw.HealAll()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after the reset")
	}
	if !errors.Is(err, scheduler.ErrCommitUncertain) {
		t.Errorf("Run = %v after %d attempts, want ErrCommitUncertain", err, attempts)
	}

	id, err := n.TxBegin(true, nil, 0, obs.TraceContext{})
	if err != nil {
		t.Fatalf("audit begin: %v", err)
	}
	res, err := n.TxExec(id, `SELECT bal FROM acct WHERE id = 1`, nil)
	if err != nil {
		t.Fatalf("audit read: %v", err)
	}
	if _, err := n.TxCommit(id); err != nil {
		t.Fatalf("audit commit: %v", err)
	}
	if bal := res.Rows[0][0].AsInt(); bal != 1 {
		t.Errorf("bal = %d after one increment, want 1", bal)
	}
}
