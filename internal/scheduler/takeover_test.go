package scheduler

import (
	"testing"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/replica"
	"dmv/internal/value"
	"dmv/internal/vclock"
)

func newMasterNode(t *testing.T) *replica.Node {
	t.Helper()
	e := heap.NewEngine(heap.Options{})
	if err := exec.ExecDDL(e, `CREATE TABLE a (id INT PRIMARY KEY, v INT)`); err != nil {
		t.Fatal(err)
	}
	tid, _ := e.TableID("a")
	if err := e.Load(tid, []value.Row{
		{value.NewInt(1), value.NewInt(0)},
		{value.NewInt(2), value.NewInt(0)},
	}); err != nil {
		t.Fatal(err)
	}
	n := replica.NewNode(replica.Options{ID: "m", Engine: e})
	if err := n.Promote([]int{0}); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSchedulerTakeOver exercises the Section 4.1 protocol: a peer scheduler
// with an empty version state takes over — the master aborts transactions
// left open by the failed scheduler (releasing their locks) and reports the
// highest committed version, which the peer adopts.
func TestSchedulerTakeOver(t *testing.T) {
	master := newMasterNode(t)

	// The "failed" primary scheduler committed two transactions and left a
	// third one open (holding page locks).
	primary := newSched(t, Options{Classes: []ConflictClass{{Name: "all", Tables: []string{"a"}}}})
	primary.SetMaster(0, master)
	for i := 0; i < 2; i++ {
		err := primary.Run(TxnSpec{Tables: []string{"a"}}, func(tx *Txn) error {
			_, err := tx.Exec(`UPDATE a SET v = v + 1 WHERE id = 1`)
			return err
		})
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	openID, err := master.TxBegin(false, nil, 0, obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := master.TxExec(openID, `UPDATE a SET v = 99 WHERE id = 2`, nil); err != nil {
		t.Fatal(err)
	}
	// (The primary scheduler now "fails" without committing the open txn.)

	// A peer scheduler with no version state takes over.
	peer := newSched(t, Options{Classes: []ConflictClass{{Name: "all", Tables: []string{"a"}}}})
	peer.SetMaster(0, master)
	if peer.Latest().Get(0) != 0 {
		t.Fatal("peer should start empty")
	}
	if err := peer.TakeOver(); err != nil {
		t.Fatalf("take over: %v", err)
	}
	// The peer adopted the masters' highest committed version.
	if got := peer.Latest().Get(0); got != 2 {
		t.Fatalf("peer version = %d, want 2", got)
	}

	// The orphaned transaction was aborted: its locks are free, its effects
	// discarded, and the tier keeps serving updates through the peer.
	slaveView := master.Engine().BeginRead(nil)
	res, err := exec.Run(slaveView, `SELECT v FROM a WHERE id = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 0 {
		t.Fatalf("orphaned txn effects visible: %v", res.Rows)
	}
	err = peer.Run(TxnSpec{Tables: []string{"a"}}, func(tx *Txn) error {
		_, err := tx.Exec(`UPDATE a SET v = 7 WHERE id = 2`) // would deadlock if locks leaked
		return err
	})
	if err != nil {
		t.Fatalf("update through peer: %v", err)
	}
	if got := peer.Latest().Get(0); got != 3 {
		t.Fatalf("version after peer commit = %d, want 3", got)
	}
}

// TestLowWaterTracksOutstandingReaders verifies the GC low-water mark stays
// at the version of in-flight readers, not the merged head.
func TestLowWaterTracksOutstandingReaders(t *testing.T) {
	s := newSched(t, Options{VersionAffinity: true})
	slave := &fakePeer{id: "s0"}
	s.AddSlave(slave)
	s.ReportVersion(vclock.Vector{5, 0, 0, 0})

	// Open a read session pinned at version 5.
	tx, err := s.begin(TxnSpec{ReadOnly: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The head moves on.
	s.ReportVersion(vclock.Vector{9, 0, 0, 0})
	if lw := s.LowWater(); lw.Get(0) != 5 {
		t.Fatalf("low water = %d, want 5 (reader in flight)", lw.Get(0))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if lw := s.LowWater(); lw.Get(0) != 9 {
		t.Fatalf("low water after drain = %d, want 9", lw.Get(0))
	}
}
