package cluster

import (
	"testing"
	"time"

	"dmv/internal/obs"
	"dmv/internal/scheduler"
)

// scanAll full-scans both test tables in one read transaction, touching
// every page so the slave serving the read applies all its buffered mods.
func scanAll(t *testing.T, c *Cluster) error {
	t.Helper()
	return c.Run(scheduler.TxnSpec{ReadOnly: true, Tables: []string{"account", "audit"}}, func(tx *scheduler.Txn) error {
		if _, err := tx.Exec(`SELECT a_id FROM account`); err != nil {
			return err
		}
		_, err := tx.Exec(`SELECT x_id FROM audit`)
		return err
	})
}

// aliveLagTotal sums the version lag and apply backlog over every alive
// node in the snapshot.
func aliveLagTotal(cs obs.ClusterSnapshot) (lag uint64, pending int) {
	for _, n := range cs.Nodes {
		if n.Role == "down" {
			continue
		}
		for _, l := range n.Lag {
			lag += l
		}
		pending += n.PendingMods
	}
	return lag, pending
}

// TestStitchedTraceAcrossCluster is the tentpole acceptance test: one
// update flows scheduler -> master -> slaves, a read then forces lazy
// application, and the stitched trace holds the whole causal path — the
// scheduler's tagged root, the master commit, a ship/ack per slave, the
// per-slave receipt, and the lazy apply — under a single TraceID.
func TestStitchedTraceAcrossCluster(t *testing.T) {
	reg := obs.New()
	c := newTestCluster(t, Config{Slaves: 2, MaxRetries: 30, Obs: reg})

	if err := deposit(t, c, 4, 1, 1); err != nil {
		t.Fatalf("deposit: %v", err)
	}
	traceID := reg.Tracer().LatestTraceID()
	if traceID == 0 {
		t.Fatal("no trace recorded for the update")
	}

	// Reads rotate over the slaves; keep scanning until every buffered mod
	// of the update has been pulled through a lazy apply.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := scanAll(t, c); err != nil {
			t.Fatalf("scan: %v", err)
		}
		if _, pending := aliveLagTotal(c.ClusterSnapshot()); pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("buffered mods never fully applied")
		}
	}

	stitched := obs.Stitch(reg.Tracer().Dump(), traceID)
	if len(stitched) == 0 {
		t.Fatal("empty stitched trace")
	}
	root := stitched[0]
	if root.Kind != "update" || root.ParentID != 0 {
		t.Fatalf("stitched trace must start at the scheduler's tagged root, got %+v", root)
	}
	counts := map[string]int{}
	shipped := map[string]bool{}
	for _, sp := range stitched {
		if sp.TraceID != traceID {
			t.Fatalf("span %q carries trace %d, want %d", sp.Kind, sp.TraceID, traceID)
		}
		counts[sp.Kind]++
		if sp.Kind == "ws-ship" {
			shipped[sp.Node] = true
			acked := false
			for _, st := range sp.Stages {
				if st.Name == "ack" {
					acked = true
				}
			}
			if !acked {
				t.Errorf("ws-ship to %s missing ack: %+v", sp.Node, sp.Stages)
			}
		}
	}
	if counts["master-commit"] != 1 {
		t.Errorf("master-commit spans = %d, want 1 (kinds: %v)", counts["master-commit"], counts)
	}
	if counts["ws-ship"] != 2 || counts["ws-recv"] != 2 {
		t.Errorf("ship/recv spans = %d/%d, want one pair per slave (kinds: %v)",
			counts["ws-ship"], counts["ws-recv"], counts)
	}
	if !shipped["slave0"] || !shipped["slave1"] {
		t.Errorf("ship targets = %v, want both slaves", shipped)
	}
	if counts["lazy-apply"] == 0 {
		t.Errorf("no lazy-apply span in the trace (kinds: %v)", counts)
	}
}

// TestClusterLagGauges drives updates with no reads so mods stay buffered
// on the slaves, asserts the /cluster snapshot reports the staleness, then
// scans until lazy application drains it all.
func TestClusterLagGauges(t *testing.T) {
	reg := obs.New()
	c := newTestCluster(t, Config{Slaves: 2, MaxRetries: 30, Obs: reg})

	for i := 1; i <= 5; i++ {
		if err := deposit(t, c, 4, 1, int64(i)); err != nil {
			t.Fatalf("deposit %d: %v", i, err)
		}
	}
	cs := c.ClusterSnapshot()
	lag, pending := aliveLagTotal(cs)
	if lag == 0 || pending == 0 {
		t.Fatalf("lag = %d pending = %d, want both nonzero while mods are buffered", lag, pending)
	}
	if len(cs.Frontier) == 0 || cs.Frontier[0] == 0 {
		t.Fatalf("frontier = %v, want the committed versions", cs.Frontier)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := scanAll(t, c); err != nil {
			t.Fatalf("scan: %v", err)
		}
		if lag, pending := aliveLagTotal(c.ClusterSnapshot()); lag == 0 && pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			lag, pending := aliveLagTotal(c.ClusterSnapshot())
			t.Fatalf("lag = %d pending = %d, want zero after reads forced application", lag, pending)
		}
	}
}

// TestLagConvergesAfterFailover kills the master mid-stream, lets the
// fail-over pipeline elect and migrate, then asserts the survivors'
// version lag converges back to zero once reads drain the buffers.
func TestLagConvergesAfterFailover(t *testing.T) {
	reg := obs.New()
	c := newTestCluster(t, Config{Slaves: 2, MaxRetries: 30, Obs: reg})

	for i := 1; i <= 5; i++ {
		if err := deposit(t, c, 4, 1, int64(i)); err != nil {
			t.Fatalf("deposit %d: %v", i, err)
		}
	}
	oldMaster := c.MasterID(0)
	if err := c.Kill(oldMaster); err != nil {
		t.Fatalf("kill master: %v", err)
	}
	waitFor(t, 2*time.Second, func() bool {
		id := c.MasterID(0)
		return id != "" && id != oldMaster
	}, "master election")
	waitFor(t, 2*time.Second, func() bool {
		return deposit(t, c, 4, 1, 100) == nil
	}, "update after election")

	deadline := time.Now().Add(3 * time.Second)
	for {
		if err := scanAll(t, c); err != nil && time.Now().After(deadline) {
			t.Fatalf("scan: %v", err)
		}
		cs := c.ClusterSnapshot()
		lag, pending := aliveLagTotal(cs)
		if lag == 0 && pending == 0 {
			// The dead node stays visible, marked down.
			down := false
			for _, n := range cs.Nodes {
				if n.Node == oldMaster && n.Role == "down" {
					down = true
				}
			}
			if !down {
				t.Fatalf("failed node %s not reported down: %+v", oldMaster, cs.Nodes)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("lag = %d pending = %d never converged after fail-over", lag, pending)
		}
	}
}

// TestClusterSnapshotCopiesSharedRegistryOnce: the five members of an
// in-process tier and its plane share one registry, and a cluster view
// copies it once, not once per member and once more for the plane. The
// view must allocate less than two copies of the registry (a snapshot and
// a trace dump each) would.
func TestClusterSnapshotCopiesSharedRegistryOnce(t *testing.T) {
	reg := obs.New()
	// No detector traffic while allocations are counted.
	c := newTestCluster(t, Config{Slaves: 4, MaxRetries: 30, Obs: reg, HeartbeatInterval: time.Hour})
	for i := 1; i <= 5; i++ {
		if err := deposit(t, c, 4, 1, int64(i)); err != nil {
			t.Fatalf("deposit %d: %v", i, err)
		}
	}
	if err := scanAll(t, c); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if n := len(c.ClusterSnapshot().Nodes); n != 5 {
		t.Fatalf("view lists %d nodes, want 5", n)
	}
	one := testing.AllocsPerRun(20, func() {
		_ = reg.Snapshot()
		_ = reg.Tracer().Dump()
	})
	view := testing.AllocsPerRun(20, func() { _ = c.ClusterSnapshot() })
	t.Logf("one registry copy: %.0f allocs; cluster view: %.0f allocs", one, view)
	if view >= 2*one {
		t.Fatalf("cluster view allocates %.0f times, want under two registry copies (%.0f)", view, 2*one)
	}
}
