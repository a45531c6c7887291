package transport

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"dmv/internal/cluster"
	"dmv/internal/faultnet"
	"dmv/internal/heap"
	"dmv/internal/replica"
	"dmv/internal/scheduler"
	"dmv/internal/value"
)

// Detector settings shared by the remote tier and its in-process twin.
var planeTestConfig = cluster.Config{
	HeartbeatInterval: 25 * time.Millisecond,
	PingTimeout:       80 * time.Millisecond,
}

// remoteTier is the deployed shape in one process: three nodes served over
// faultnet-policed loopback TCP and the shared control plane driving them
// through RemoteNodes, wired exactly as cmd/dmv-scheduler wires it. The
// node ids are those cluster.New gives a one-master two-slave tier.
type remoteTier struct {
	nw    *faultnet.Network
	nodes map[string]*replica.Node // server side
	sched *scheduler.Scheduler
	plane *cluster.Plane
}

// subCallTimeout bounds a master's write-set ship to one subscriber; the
// nodes run without an ack timeout, so it is what a commit waits for a
// black-holed subscriber.
const subCallTimeout = time.Second

func newRemoteTier(t *testing.T, seed int64) *remoteTier {
	t.Helper()
	tr := &remoteTier{nw: faultnet.New(seed), nodes: make(map[string]*replica.Node, 3)}
	cOpts := ClientOptions{
		Dial:        tr.nw.Dialer("sched"),
		DialTimeout: 200 * time.Millisecond,
		CallTimeout: 300 * time.Millisecond,
		PingTimeout: planeTestConfig.PingTimeout,
		Seed:        seed,
	}
	var peers []*RemoteNode
	for _, id := range []string{"master0", "slave0", "slave1"} {
		n := newAcctNode(t, id, 0)
		tr.nodes[id] = n
		lis, err := tr.nw.Listen(id, "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen %s: %v", id, err)
		}
		srv, err := ServeNodeListener(n, lis, nil)
		if err != nil {
			t.Fatalf("serve %s: %v", id, err)
		}
		t.Cleanup(srv.Close)
		srv.DialSubscribersWith(ClientOptions{
			Dial:        tr.nw.Dialer(id),
			DialTimeout: 200 * time.Millisecond,
			CallTimeout: subCallTimeout,
			Seed:        seed,
		})
		p, err := DialNodeOpts(id, srv.Addr(), cOpts)
		if err != nil {
			t.Fatalf("dial %s: %v", id, err)
		}
		peers = append(peers, p)
	}

	ref := tr.nodes["master0"].Engine()
	var err error
	tr.sched, err = scheduler.New(scheduler.Options{Seed: seed, MaxRetries: 2}, ref.NumTables(), ref.TableID)
	if err != nil {
		t.Fatalf("scheduler: %v", err)
	}
	tr.plane = cluster.NewPlane(planeTestConfig, []*scheduler.Scheduler{tr.sched}, Rewire, nil)
	if err := tr.plane.AddMaster(0, peers[0]); err != nil {
		t.Fatalf("promote: %v", err)
	}
	tr.plane.AddSlave(peers[1])
	tr.plane.AddSlave(peers[2])
	tr.plane.Start()
	t.Cleanup(tr.plane.Close)
	return tr
}

func increment(run func(scheduler.TxnSpec, func(*scheduler.Txn) error) error) error {
	return run(scheduler.TxnSpec{Tables: []string{"acct"}}, func(tx *scheduler.Txn) error {
		_, err := tx.Exec(`UPDATE acct SET bal = bal + 1 WHERE id = 1`)
		return err
	})
}

// subscriberIDs lists the node's replication subscribers, sorted.
func subscriberIDs(n *replica.Node) []string {
	var ids []string
	for _, p := range n.Subscribers() {
		ids = append(ids, p.ID())
	}
	sort.Strings(ids)
	return ids
}

// TestRemotePlaneDropsDeadSlave is the regression test for the deployed
// control plane never rewiring a master after a slave death: the dead
// slave stayed in the server-side subscriber set for ever, so every later
// commit re-dialed it or, when it was black-holed, waited out the call
// timeout. With the shared plane the slave is removed from the master's
// set the moment it is declared dead.
func TestRemotePlaneDropsDeadSlave(t *testing.T) {
	tr := newRemoteTier(t, 7)
	master := tr.nodes["master0"]
	for i := 0; i < 5; i++ {
		if err := increment(tr.sched.Run); err != nil {
			t.Fatalf("warm-up commit %d: %v", i, err)
		}
	}
	if got := subscriberIDs(master); len(got) != 2 {
		t.Fatalf("master subscribers before the fault = %v, want both slaves", got)
	}

	// Black-hole the slave on every link: the plane's probes and the
	// master's established replication connection alike.
	tr.nw.Isolate("slave1")
	awaitEvent(t, tr.plane, cluster.EventNodeFailed, "slave1")
	awaitEvent(t, tr.plane, cluster.EventRecoveryDone, "slave1") // closes after the rewire

	if got := subscriberIDs(master); !reflect.DeepEqual(got, []string{"slave0"}) {
		t.Fatalf("master subscribers after slave1 died = %v, want [slave0]", got)
	}
	if got := tr.sched.Slaves(); !reflect.DeepEqual(got, []string{"slave0"}) {
		t.Fatalf("scheduler slaves = %v, want [slave0]", got)
	}
	start := time.Now()
	if err := increment(tr.sched.Run); err != nil {
		t.Fatalf("commit after slave death: %v", err)
	}
	if took := time.Since(start); took > subCallTimeout/4 {
		t.Fatalf("commit after slave death took %v: the master still ships to the dead slave (call timeout %v)", took, subCallTimeout)
	}
}

// TestRemotePlaneTimelineMatchesInProcess partitions the master of the
// remote tier and stalls the master of an in-process cluster of the same
// shape: one control plane, so the same detector and election timeline.
func TestRemotePlaneTimelineMatchesInProcess(t *testing.T) {
	want := []string{"suspect:master0", "failed:master0", "elected:slave0"}

	tr := newRemoteTier(t, 7)
	for i := 0; i < 5; i++ {
		if err := increment(tr.sched.Run); err != nil {
			t.Fatalf("remote commit %d: %v", i, err)
		}
	}
	tr.nw.Isolate("master0")
	awaitNewMaster(t, tr.plane)
	remote := masterTimeline(tr.plane, "master0")
	if err := increment(tr.sched.Run); err != nil {
		t.Fatalf("remote commit after fail-over: %v", err)
	}

	cfg := planeTestConfig
	cfg.Slaves = 2
	cfg.SchemaDDL = []string{`CREATE TABLE acct (id INT PRIMARY KEY, bal INT)`}
	cfg.Load = func(e *heap.Engine) error {
		tid, _ := e.TableID("acct")
		return e.Load(tid, []value.Row{{value.NewInt(1), value.NewInt(0)}})
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		if err := increment(c.Run); err != nil {
			t.Fatalf("in-process commit %d: %v", i, err)
		}
	}
	m, _ := c.Node("master0")
	m.SetStalled(true) // alive but unresponsive: the in-process partition
	defer m.SetStalled(false)
	awaitNewMaster(t, c.Plane)
	local := masterTimeline(c.Plane, "master0")

	if !reflect.DeepEqual(remote, want) {
		t.Fatalf("remote timeline = %v, want %v", remote, want)
	}
	if !reflect.DeepEqual(local, remote) {
		t.Fatalf("in-process timeline = %v, remote = %v", local, remote)
	}
}

// insertAcct commits one new account row through the scheduler.
func insertAcct(t *testing.T, tr *remoteTier, id int64) {
	t.Helper()
	err := tr.sched.Run(scheduler.TxnSpec{Tables: []string{"acct"}}, func(tx *scheduler.Txn) error {
		_, err := tx.Exec(`INSERT INTO acct (id, bal) VALUES (?, ?)`, value.NewInt(id), value.NewInt(id))
		return err
	})
	if err != nil {
		t.Fatalf("insert %d: %v", id, err)
	}
}

// TestRemotePlaneClearedSuspectMigrates runs reintegration's page shipping
// over TCP: a slave cut off from the master's write-sets and from the
// detector's probes for fewer than DeadAfter probe periods misses the
// commits of the cut, is suspected, and on heal is cleared and migrated
// through RemoteNodes (page-version maps, the donor's PageImages, the
// install). Commits after the heal buffer on the slave above the ones it
// lost. Once the quarantine lifts, the slave matches the master at the
// master's frontier.
func TestRemotePlaneClearedSuspectMigrates(t *testing.T) {
	tr := newRemoteTier(t, 7)
	for i := 0; i < 3; i++ {
		if err := increment(tr.sched.Run); err != nil {
			t.Fatalf("warm-up commit %d: %v", i, err)
		}
	}

	tr.nw.Partition("master0", "slave1")
	tr.nw.ResetLink("master0", "slave1") // the next ship fails fast instead of stalling a commit
	tr.nw.Partition("sched", "slave1")
	id := int64(1)
	for ; id < 4; id++ {
		insertAcct(t, tr, id+1)
	}
	awaitEvent(t, tr.plane, cluster.EventNodeSuspect, "slave1")
	tr.nw.HealAll()
	for ; id < 6; id++ {
		insertAcct(t, tr, id+1)
	}
	awaitEvent(t, tr.plane, cluster.EventNodeCleared, "slave1")
	deadline := time.Now().Add(10 * time.Second)
	for len(tr.sched.Quarantined()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("quarantine %v not lifted after clear", tr.sched.Quarantined())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, ev := range tr.plane.Events() {
		if ev.Kind == cluster.EventNodeFailed {
			t.Fatalf("the cut escalated to a failure: %+v", ev)
		}
	}

	master, slave := tr.nodes["master0"].Engine(), tr.nodes["slave1"].Engine()
	tid, _ := master.TableID("acct")
	v := master.MaxVersions().Get(tid)
	want, err := master.TableDigestAt(tid, v, false)
	if err != nil {
		t.Fatalf("master digest: %v", err)
	}
	got, err := slave.TableDigestAt(tid, v, false)
	if err != nil {
		t.Fatalf("slave digest: %v", err)
	}
	if got.Root != want.Root {
		t.Fatalf("slave1 diverges from the master at version %d after migration", v)
	}
}

// scrubLines renders the plane's scrub events without durations.
func scrubLines(p *cluster.Plane) []string {
	var out []string
	for _, ev := range p.Events() {
		if ev.Kind == cluster.EventScrubDiverged || ev.Kind == cluster.EventScrubRepaired {
			out = append(out, ev.Kind+" "+ev.Node+" "+ev.Detail)
		}
	}
	return out
}

// corruptAcct flips a bit in the node's one acct row.
func corruptAcct(t *testing.T, n *replica.Node) {
	t.Helper()
	tid, _ := n.Engine().TableID("acct")
	if _, err := n.Engine().CorruptPage(tid, 0, 12345); err != nil {
		t.Fatalf("corrupt %s: %v", n.ID(), err)
	}
}

// TestRemotePlaneScrubRepairs runs the deployed sweep over RemoteNodes: a
// slave whose page silently diverged is quarantined, repaired through the
// master's page images, verified and released, and the scrub events match
// an in-process tier's for the same damage.
func TestRemotePlaneScrubRepairs(t *testing.T) {
	tr := newRemoteTier(t, 7)
	for i := 0; i < 3; i++ {
		if err := increment(tr.sched.Run); err != nil {
			t.Fatalf("warm-up commit %d: %v", i, err)
		}
	}
	var atDivergence []string
	tr.plane.OnEvent(func(ev cluster.Event) {
		if ev.Kind == cluster.EventScrubDiverged {
			atDivergence = tr.sched.Quarantined()
		}
	})
	corruptAcct(t, tr.nodes["slave0"])

	rep := tr.plane.Sweep()
	if !reflect.DeepEqual(atDivergence, []string{"slave0"}) {
		t.Fatalf("quarantined at divergence = %v, want [slave0]", atDivergence)
	}
	if !reflect.DeepEqual(rep.Repaired, []string{"slave0"}) || len(rep.Failed) != 0 {
		t.Fatalf("sweep = %+v, want slave0 repaired and verified", rep)
	}
	if q := tr.sched.Quarantined(); len(q) != 0 {
		t.Fatalf("quarantine %v not lifted after the verified repair", q)
	}
	master, slave := tr.nodes["master0"].Engine(), tr.nodes["slave0"].Engine()
	tid, _ := master.TableID("acct")
	v := master.MaxVersions().Get(tid)
	want, err := master.TableDigestAt(tid, v, false)
	if err != nil {
		t.Fatalf("master digest: %v", err)
	}
	if got, err := slave.TableDigestAt(tid, v, false); err != nil || got.Root != want.Root {
		t.Fatalf("slave0 still diverges at version %d after repair (err %v)", v, err)
	}
	remote := scrubLines(tr.plane)

	cfg := planeTestConfig
	cfg.Slaves = 2
	cfg.SchemaDDL = []string{`CREATE TABLE acct (id INT PRIMARY KEY, bal INT)`}
	cfg.Load = func(e *heap.Engine) error {
		tid, _ := e.TableID("acct")
		return e.Load(tid, []value.Row{{value.NewInt(1), value.NewInt(0)}})
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if err := increment(c.Run); err != nil {
			t.Fatalf("in-process commit %d: %v", i, err)
		}
	}
	n, _ := c.Node("slave0")
	corruptAcct(t, n)
	c.Sweep()
	if local := scrubLines(c.Plane); !reflect.DeepEqual(local, remote) {
		t.Fatalf("in-process scrub events = %v, remote = %v", local, remote)
	}
}
