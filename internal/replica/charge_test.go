package replica

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dmv/internal/obs"
	"dmv/internal/simdisk"
	"dmv/internal/value"
)

// TestStatementChargePlacement pins where the node charges its CPU model:
// a read statement pays Stmt once before it runs, unless its session has
// expired or been aborted; an update transaction of k statements pays
// k×UpdateStmt in one piece after a successful commit, and nothing on
// rollback, on a commit refused at entry or on an abort. A node without a
// simdisk charges nothing.
func TestStatementChargePlacement(t *testing.T) {
	const stmt, upd = 3 * time.Millisecond, time.Millisecond
	var charges []time.Duration
	disk := simdisk.New(simdisk.CostModel{Stmt: stmt, UpdateStmt: upd}, 0,
		simdisk.WithSleeper(func(d time.Duration) { charges = append(charges, d) }))
	n := newNodeWithData(t, "n", disk)
	if err := n.Promote(nil); err != nil {
		t.Fatal(err)
	}
	sel := `SELECT v FROM kv WHERE k = ?`
	upsert := `UPDATE kv SET v = ? WHERE k = ?`
	one := []value.Value{value.NewInt(1)}
	set := []value.Value{value.NewInt(7), value.NewInt(1)}
	expect := func(what string, want ...time.Duration) {
		t.Helper()
		if fmt.Sprint(charges) != fmt.Sprint(want) {
			t.Fatalf("%s: charges %v, want %v", what, charges, want)
		}
		charges = nil
	}
	begin := func(readOnly bool, deadline time.Duration) uint64 {
		t.Helper()
		id, err := n.TxBegin(readOnly, nil, deadline, obs.TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}

	id := begin(true, 0)
	if _, err := n.TxExec(id, sel, one); err != nil {
		t.Fatal(err)
	}
	expect("read statement", stmt)
	if _, err := n.TxCommit(id); err != nil {
		t.Fatal(err)
	}
	expect("read commit")

	id = begin(true, time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	if _, err := n.TxExec(id, sel, one); !errors.Is(err, ErrDeadlineExpired) {
		t.Fatalf("expired read: err = %v", err)
	}
	expect("expired read")

	id = begin(true, 0)
	if _, err := n.AbortActiveSessions(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.TxExec(id, sel, one); err == nil {
		t.Fatal("aborted read executed")
	}
	expect("aborted read")

	id = begin(false, 0)
	for i := 0; i < 3; i++ {
		if _, err := n.TxExec(id, upsert, set); err != nil {
			t.Fatal(err)
		}
	}
	expect("update statements")
	if _, err := n.TxCommit(id); err != nil {
		t.Fatal(err)
	}
	expect("3-statement update commit", 3*upd)

	id = begin(false, 0)
	if _, err := n.TxExec(id, upsert, set); err != nil {
		t.Fatal(err)
	}
	if err := n.TxRollback(id); err != nil {
		t.Fatal(err)
	}
	expect("rolled-back update")

	id = begin(false, 50*time.Millisecond)
	if _, err := n.TxExec(id, upsert, set); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	if _, err := n.TxCommit(id); !errors.Is(err, ErrDeadlineExpired) {
		t.Fatalf("commit after deadline: err = %v", err)
	}
	expect("update refused at commit entry")

	id = begin(false, 0)
	if _, err := n.TxExec(id, upsert, set); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AbortActiveSessions(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.TxCommit(id); err == nil {
		t.Fatal("aborted update committed")
	}
	expect("aborted update")

	bare := newNodeWithData(t, "bare", nil)
	if err := bare.Promote(nil); err != nil {
		t.Fatal(err)
	}
	commitKV(t, bare, 1, 1)
	id, err := bare.TxBegin(true, nil, 0, obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bare.TxExec(id, sel, one); err != nil {
		t.Fatal(err)
	}
	expect("node without a simdisk")
}
