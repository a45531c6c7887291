package cluster

import (
	"sync"
	"testing"
	"time"

	"dmv/internal/obs"
	"dmv/internal/scheduler"
	"dmv/internal/simdisk"
)

func TestSlaveFailoverWithoutSpare(t *testing.T) {
	c := newTestCluster(t, Config{Slaves: 2, MaxRetries: 20})
	if err := deposit(t, c, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill("slave0"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		return len(c.Scheduler().Slaves()) == 1
	}, "slave removal")
	// The tier degrades gracefully to one slave.
	for i := 0; i < 10; i++ {
		if bal := readBalance(t, c, 1); bal != 1001 {
			t.Fatalf("balance = %d", bal)
		}
	}
}

func TestSpareFailureJustRemoves(t *testing.T) {
	c := newTestCluster(t, Config{Slaves: 1, Spares: 1, MaxRetries: 20})
	if err := c.Kill("spare0"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		return len(c.Scheduler().Spares()) == 0
	}, "spare removal")
	// Normal operation continues.
	if err := deposit(t, c, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if bal := readBalance(t, c, 1); bal != 1001 {
		t.Fatalf("balance = %d", bal)
	}
}

func TestDoubleFailureMasterThenSlave(t *testing.T) {
	c := newTestCluster(t, Config{Slaves: 3, Spares: 1, MaxRetries: 40})
	for i := 1; i <= 5; i++ {
		if err := deposit(t, c, 1, 1, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	oldMaster := c.MasterID(0)
	if err := c.Kill(oldMaster); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		m := c.MasterID(0)
		return m != "" && m != oldMaster
	}, "first election")

	// Kill the NEW master too: a second election must follow.
	second := c.MasterID(0)
	if err := c.Kill(second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		m := c.MasterID(0)
		return m != "" && m != second && m != oldMaster
	}, "second election")

	waitFor(t, 2*time.Second, func() bool {
		return deposit(t, c, 1, 1, 6) == nil
	}, "update after double failure")
	if bal := readBalance(t, c, 1); bal != 1006 {
		t.Fatalf("balance = %d, want 1006", bal)
	}
}

func TestIndexGCLoopRuns(t *testing.T) {
	c := newTestCluster(t, Config{
		Slaves:        2,
		MaxRetries:    20,
		IndexGCPeriod: 10 * time.Millisecond,
	})
	// Generate dead index history: repeated updates of the same rows.
	for i := 1; i <= 40; i++ {
		if err := deposit(t, c, int64(i%4+1), 1, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Drain readers, then let GC land; afterwards reads still work and the
	// tier stays consistent.
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < 10; i++ {
		if bal := readBalance(t, c, 1); bal != 1010 {
			t.Fatalf("balance after GC = %d, want 1010", bal)
		}
	}
	var cnt int64
	err := c.Run(scheduler.TxnSpec{ReadOnly: true, Tables: []string{"audit"}}, func(tx *scheduler.Txn) error {
		v, err := tx.QueryInt(`SELECT COUNT(*) FROM audit`)
		cnt = v
		return err
	})
	if err != nil || cnt != 40 {
		t.Fatalf("audit count = %d (%v), want 40", cnt, err)
	}
}

func TestPageIDWarmupLoopShipsPages(t *testing.T) {
	c := newTestCluster(t, Config{
		Slaves:         1,
		Spares:         1,
		MaxRetries:     20,
		PageIDTransfer: 10 * time.Millisecond,
		CachePages:     256,
	})
	// Generate read traffic so the active slave has resident pages.
	for i := 0; i < 20; i++ {
		_ = readBalance(t, c, int64(i%50+1))
	}
	spare, _ := c.Node("spare0")
	waitFor(t, 2*time.Second, func() bool {
		return spare.Disk() != nil && spare.Disk().ResidentCount() > 0
	}, "page ids shipped to spare")
}

func TestRestartUnknownNode(t *testing.T) {
	c := newTestCluster(t, Config{Slaves: 1})
	if err := c.Restart("nope"); err == nil {
		t.Fatal("restart of unknown node must fail")
	}
	if err := c.Restart("slave0"); err == nil {
		t.Fatal("restart of a live node must fail")
	}
}

func TestEventsAreOrderedAndTimestamped(t *testing.T) {
	c := newTestCluster(t, Config{Slaves: 2, MaxRetries: 20})
	if err := c.Kill("slave0"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(c.Events()) >= 2 }, "events")
	evs := c.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Time.Before(evs[i-1].Time) {
			t.Fatalf("events out of order: %v", evs)
		}
	}
	if evs[0].Kind != EventNodeFailed {
		t.Fatalf("first event = %v", evs[0].Kind)
	}
}

func TestSchedulerFailoverToPeer(t *testing.T) {
	c := newTestCluster(t, Config{Slaves: 2, PeerSchedulers: 1, MaxRetries: 20})
	for i := 1; i <= 10; i++ {
		if err := deposit(t, c, 1, 1, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	primaryBefore := c.Scheduler()

	// Leave an orphaned update transaction open on the master (the failed
	// scheduler's in-flight work), holding page locks.
	master, _ := c.Node(c.MasterID(0))
	orphan, err := master.TxBegin(false, nil, 0, obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := master.TxExec(orphan, `UPDATE account SET a_balance = 0 WHERE a_id = 2`, nil); err != nil {
		t.Fatal(err)
	}

	// Fail the primary scheduler; the peer takes over.
	idx, err := c.KillScheduler()
	if err != nil {
		t.Fatalf("kill scheduler: %v", err)
	}
	if idx != 1 || c.Scheduler() == primaryBefore {
		t.Fatalf("primary not switched: idx=%d", idx)
	}
	// The peer adopted the masters' version state.
	if got := c.Scheduler().Latest(); got.Get(0) == 0 {
		t.Fatalf("peer version state empty: %v", got)
	}
	// The orphaned transaction was aborted: its write is gone and its locks
	// are free (this update would otherwise deadlock).
	if err := deposit(t, c, 2, 5, 11); err != nil {
		t.Fatalf("update after take-over: %v", err)
	}
	if bal := readBalance(t, c, 2); bal != 1005 {
		t.Fatalf("balance = %d, want 1005 (orphan discarded, new deposit applied)", bal)
	}
	// Read-your-writes still holds through the peer.
	if err := deposit(t, c, 1, 1, 12); err != nil {
		t.Fatal(err)
	}
	if bal := readBalance(t, c, 1); bal != 1011 {
		t.Fatalf("balance = %d, want 1011", bal)
	}
	// Node fail-over still works under the peer scheduler.
	if err := c.Kill("slave0"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		return len(c.Scheduler().Slaves()) == 1
	}, "slave removal via peer scheduler")
}

func TestKillSchedulerWithoutPeerFails(t *testing.T) {
	c := newTestCluster(t, Config{Slaves: 1})
	if _, err := c.KillScheduler(); err == nil {
		t.Fatal("kill without peer must fail")
	}
}

func TestOverloadActivatesSpare(t *testing.T) {
	c := newTestCluster(t, Config{
		Slaves:         1,
		Spares:         1,
		MaxRetries:     20,
		Admission:      scheduler.AdmissionOptions{Slots: 1},
		OverloadWindow: 50 * time.Millisecond,
		// Slow statements so reads queue for the single admission slot.
		Costs: simdisk.CostModel{Stmt: 5 * time.Millisecond, UpdateStmt: 5 * time.Millisecond, CPUs: 1},
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = c.Run(scheduler.TxnSpec{ReadOnly: true, Tables: []string{"account"}}, func(tx *scheduler.Txn) error {
					_, err := tx.Exec(`SELECT COUNT(*) FROM account`)
					return err
				})
			}
		}()
	}
	waitFor(t, 5*time.Second, func() bool {
		for _, id := range c.Scheduler().Slaves() {
			if id == "spare0" {
				return true
			}
		}
		return false
	}, "overload spare activation")
	close(stop)
	wg.Wait()
	// The overload event was recorded.
	found := false
	for _, ev := range c.Events() {
		if ev.Kind == EventOverload {
			found = true
		}
	}
	if !found {
		t.Fatalf("no overload event: %v", c.Events())
	}
}
