package transport

import (
	"reflect"
	"testing"
	"time"

	"dmv/internal/cluster"
	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/replica"
	"dmv/internal/scheduler"
	"dmv/internal/value"
)

// viewShape renders a cluster view's node rows as node/role/health.
func viewShape(cs obs.ClusterSnapshot) []string {
	var out []string
	for _, n := range cs.Nodes {
		out = append(out, n.Node+"/"+n.Role+"/"+n.Health)
	}
	return out
}

// nodeReadTxns sums the node read counter over the given registries.
func nodeReadTxns(regs ...*obs.Registry) int64 {
	var sum int64
	for _, r := range regs {
		sum += r.Counter(obs.NodeReadTxns).Load()
	}
	return sum
}

// TestClusterViewMatchesInProcess builds the cluster view of a remote tier,
// whose nodes each serve their own registry and whose plane has another,
// and of an in-process tier of the same shape, whose nodes and plane share
// one. After reads and updates under admission control and a slave's
// death, both views list the same nodes, roles and health, with the dead
// slave down, and each counts every registry once: the scheduler's read
// counter is the plane registry's own, and over TCP the node read counter
// is the sum over the nodes that answered.
func TestClusterViewMatchesInProcess(t *testing.T) {
	const seed = 7
	cfg := planeTestConfig
	cfg.Admission = scheduler.AdmissionOptions{Slots: 4}
	want := []string{"master0/master/healthy", "slave0/slave/healthy", "slave1/down/dead"}

	regs := make(map[string]*obs.Registry, 3)
	servers := make(map[string]*Server, 3)
	var peers []replica.Peer
	for _, id := range []string{"master0", "slave0", "slave1"} {
		regs[id] = obs.New()
		srv, err := ServeNodeObs(newAcctNodeWith(t, replica.Options{ID: id, Obs: regs[id]}), "127.0.0.1:0", regs[id])
		if err != nil {
			t.Fatalf("serve %s: %v", id, err)
		}
		t.Cleanup(srv.Close)
		servers[id] = srv
		p, err := DialNodeOpts(id, srv.Addr(), ClientOptions{
			CallTimeout: 300 * time.Millisecond,
			PingTimeout: cfg.PingTimeout,
			Seed:        seed,
		})
		if err != nil {
			t.Fatalf("dial %s: %v", id, err)
		}
		peers = append(peers, p)
	}
	remoteCfg := remoteTierConfig(cfg, seed)
	remoteCfg.Obs = obs.New()
	plane, err := cluster.Assemble(remoteCfg, cluster.Members{Masters: peers[:1], Slaves: peers[1:]}, Rewire, nil)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	plane.Start()
	t.Cleanup(plane.Close)

	localCfg := cfg
	localCfg.Slaves = 2
	localCfg.SchemaDDL = acctDDL
	localCfg.Load = func(e *heap.Engine) error {
		tid, _ := e.TableID("acct")
		return e.Load(tid, []value.Row{{value.NewInt(1), value.NewInt(0)}})
	}
	localCfg.Obs = obs.New()
	c, err := cluster.New(localCfg)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(c.Close)

	for side, run := range map[string]func(scheduler.TxnSpec, func(*scheduler.Txn) error) error{"remote": plane.Run, "in-process": c.Run} {
		for i := 0; i < 5; i++ {
			if err := increment(run); err != nil {
				t.Fatalf("%s commit %d: %v", side, i, err)
			}
		}
		for i := 0; i < 20; i++ {
			if err := readAcct(run); err != nil {
				t.Fatalf("%s read %d: %v", side, i, err)
			}
		}
	}

	// With every node up, the remote view sums the three node registries.
	cs := plane.ClusterSnapshot()
	if got, want := cs.Merged.Counters[obs.NodeReadTxns], nodeReadTxns(regs["master0"], regs["slave0"], regs["slave1"]); got != want || got == 0 {
		t.Errorf("remote %s = %d, want %d, the sum over the node registries", obs.NodeReadTxns, got, want)
	}

	servers["slave1"].Close()
	if err := c.Kill("slave1"); err != nil {
		t.Fatalf("kill: %v", err)
	}
	var remote, local obs.ClusterSnapshot
	if !eventually(5*time.Second, func() bool {
		remote, local = plane.ClusterSnapshot(), c.ClusterSnapshot()
		return reflect.DeepEqual(viewShape(remote), want) && reflect.DeepEqual(viewShape(local), want)
	}) {
		t.Fatalf("views after slave1 died: remote %v, in-process %v, want both %v", viewShape(remote), viewShape(local), want)
	}

	for side, v := range map[string]struct {
		cs  obs.ClusterSnapshot
		reg *obs.Registry
	}{"remote": {remote, remoteCfg.Obs}, "in-process": {local, localCfg.Obs}} {
		got, own := v.cs.Merged.Counters[obs.SchedReadTxns], v.reg.Counter(obs.SchedReadTxns).Load()
		if got != own || got == 0 {
			t.Errorf("%s %s = %d, want the plane registry's own %d, counted once", side, obs.SchedReadTxns, got, own)
		}
	}
	if got, want := remote.Merged.Counters[obs.NodeReadTxns], nodeReadTxns(regs["master0"], regs["slave0"]); got != want {
		t.Errorf("remote %s = %d after slave1 died, want %d, the sum over the nodes that answered", obs.NodeReadTxns, got, want)
	}
	if _, ok := remote.Merged.Counters[obs.SchedAdmitAdmitted]; !ok {
		t.Errorf("remote view has no %s: the plane's registry is missing", obs.SchedAdmitAdmitted)
	}
}
