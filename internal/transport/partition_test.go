package transport

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmv/internal/cluster"
	"dmv/internal/exec"
	"dmv/internal/faultnet"
	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/replica"
	"dmv/internal/scheduler"
	"dmv/internal/value"
)

// newAcctNode builds a node with one account row at balance zero — the
// committed-increment counter the partition test audits for loss.
func newAcctNode(t *testing.T, id string, ackTimeout time.Duration) *replica.Node {
	return newAcctNodeWith(t, replica.Options{ID: id, AckTimeout: ackTimeout})
}

// newAcctNodeWith builds the account node from opts; its engine observes
// opts.Disk when one is set.
func newAcctNodeWith(t *testing.T, opts replica.Options) *replica.Node {
	t.Helper()
	hopts := heap.Options{PageCap: 8}
	if opts.Disk != nil {
		hopts.Observer = opts.Disk
	}
	e := heap.NewEngine(hopts)
	if err := exec.ExecDDL(e, `CREATE TABLE acct (id INT PRIMARY KEY, bal INT)`); err != nil {
		t.Fatalf("ddl: %v", err)
	}
	tid, _ := e.TableID("acct")
	if err := e.Load(tid, []value.Row{{value.NewInt(1), value.NewInt(0)}}); err != nil {
		t.Fatalf("load: %v", err)
	}
	opts.Engine = e
	return replica.NewNode(opts)
}

// runPartitionScenario is one full seeded run of the acceptance scenario:
// a master and two slaves on real TCP links policed by faultnet, a
// scheduler committing increments through the master, a symmetric
// partition isolating the master mid-workload (the node keeps running —
// this is a partition, not a crash), and the shared control plane
// (cluster.Plane, exactly what dmv-scheduler runs) walking the master
// through suspect to dead and into the commit-fenced fail-over rollback.
// It returns the (kind:node) event timeline, the number of commits
// acknowledged to the client, and the balance the new master serves.
func runPartitionScenario(t *testing.T, seed int64) (timeline []string, acked int64, final int64) {
	t.Helper()
	nw := faultnet.New(seed)

	mk := func(id string) (*replica.Node, string) {
		n := newAcctNode(t, id, 100*time.Millisecond)
		lis, err := nw.Listen(id, "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen %s: %v", id, err)
		}
		srv, err := ServeNodeListener(n, lis, nil)
		if err != nil {
			t.Fatalf("serve %s: %v", id, err)
		}
		t.Cleanup(srv.Close)
		// The master's eager write-set broadcast crosses the fault net too:
		// the partition lands mid-broadcast, not just on the client plane.
		srv.DialSubscribersWith(ClientOptions{
			Dial:        nw.Dialer(id),
			DialTimeout: 200 * time.Millisecond,
			CallTimeout: 300 * time.Millisecond,
			Seed:        seed,
		})
		return n, srv.Addr()
	}
	_, mAddr := mk("m")
	_, s1Addr := mk("s1")
	_, s2Addr := mk("s2")

	// Scheduler plane: every peer call carries a deadline.
	cOpts := ClientOptions{
		Dial:        nw.Dialer("sched"),
		DialTimeout: 200 * time.Millisecond,
		CallTimeout: 300 * time.Millisecond,
		PingTimeout: 80 * time.Millisecond,
		Seed:        seed,
	}
	rm, err := DialNodeOpts("m", mAddr, cOpts)
	if err != nil {
		t.Fatalf("dial m: %v", err)
	}
	rs1, err := DialNodeOpts("s1", s1Addr, cOpts)
	if err != nil {
		t.Fatalf("dial s1: %v", err)
	}
	rs2, err := DialNodeOpts("s2", s2Addr, cOpts)
	if err != nil {
		t.Fatalf("dial s2: %v", err)
	}
	plane, err := cluster.Assemble(remoteTierConfig(cluster.Config{
		HeartbeatInterval: 25 * time.Millisecond,
		PingTimeout:       80 * time.Millisecond,
	}, seed), cluster.Members{Masters: []replica.Peer{rm}, Slaves: []replica.Peer{rs1, rs2}}, Rewire, nil)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	sched := plane.Scheduler()
	plane.Start()
	defer plane.Close()

	increment := func() error {
		return sched.Run(scheduler.TxnSpec{Tables: []string{"acct"}}, func(tx *scheduler.Txn) error {
			_, err := tx.Exec(`UPDATE acct SET bal = bal + 1 WHERE id = 1`)
			return err
		})
	}

	var ackedN atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := increment(); err == nil {
				ackedN.Add(1)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Let a batch of commits be acknowledged, then cut every link to the
	// master in both directions. The master process keeps running.
	waitDeadline := time.Now().Add(5 * time.Second)
	for ackedN.Load() < 10 {
		if time.Now().After(waitDeadline) {
			t.Fatal("workload never reached 10 acked commits")
		}
		time.Sleep(2 * time.Millisecond)
	}
	nw.Isolate("m")

	// The plane's detector walks the master down the suspicion ladder on
	// consecutive probe deadline misses, then its commit-fenced fail-over
	// elects a slave.
	newMaster := awaitNewMaster(t, plane)
	timeline = masterTimeline(plane, "m")

	close(stop)
	wg.Wait()

	// The workload must keep committing against the elected master.
	for i := 0; i < 5; i++ {
		if err := increment(); err != nil {
			t.Fatalf("post-fail-over commit %d: %v", i, err)
		}
		ackedN.Add(1)
	}
	acked = ackedN.Load()

	// Audit the surviving state on the new master.
	txID, err := newMaster.TxBegin(true, nil, 0, obs.TraceContext{})
	if err != nil {
		t.Fatalf("audit begin: %v", err)
	}
	res, err := newMaster.TxExec(txID, `SELECT bal FROM acct WHERE id = 1`, nil)
	if err != nil {
		t.Fatalf("audit read: %v", err)
	}
	if _, err := newMaster.TxCommit(txID); err != nil {
		t.Fatalf("audit commit: %v", err)
	}
	final = res.Rows[0][0].AsInt()
	return timeline, acked, final
}

// TestPartitionedMasterFailover is the headline acceptance test: a seeded
// faultnet partition (not a kill) of the active master completes
// fail-over with zero acknowledged-commit loss, and the same seed
// reproduces the identical event timeline twice.
func TestPartitionedMasterFailover(t *testing.T) {
	const seed = 42
	tl1, acked1, final1 := runPartitionScenario(t, seed)
	if final1 != acked1 {
		t.Fatalf("acked-commit loss: %d acknowledged, %d applied on the new master (%s)",
			acked1, final1, diffSign(acked1, final1))
	}
	want := []string{"suspect:m", "failed:m", "elected:s1"}
	if !reflect.DeepEqual(tl1, want) {
		t.Fatalf("timeline = %v, want %v", tl1, want)
	}

	tl2, acked2, final2 := runPartitionScenario(t, seed)
	if final2 != acked2 {
		t.Fatalf("acked-commit loss on rerun: %d acknowledged, %d applied", acked2, final2)
	}
	if !reflect.DeepEqual(tl1, tl2) {
		t.Fatalf("same seed, different timelines:\n run 1: %v\n run 2: %v", tl1, tl2)
	}
}

// awaitNewMaster waits for the control plane to finish a master fail-over
// (the master-elected event closes it) and returns the elected peer.
func awaitNewMaster(t *testing.T, plane *cluster.Plane) replica.Peer {
	t.Helper()
	awaitEvent(t, plane, cluster.EventMasterElected, "")
	return plane.Scheduler().Master(0)
}

// awaitEvent waits for a plane event of the given kind about the given
// node ("" = any node).
func awaitEvent(t *testing.T, plane *cluster.Plane, kind, node string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, ev := range plane.Events() {
			if ev.Kind == kind && (node == "" || ev.Node == node) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %s event for %q; events: %+v", kind, node, plane.Events())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// masterTimeline renders the plane's detector and election events about
// the failed master as kind:node strings. Events about other nodes are left
// out: a loaded CI host may falsely suspect (and clear) a healthy slave,
// which is the detector working, not part of the scenario's timeline.
func masterTimeline(plane *cluster.Plane, failed string) []string {
	short := map[string]string{
		cluster.EventNodeSuspect:   "suspect",
		cluster.EventNodeFailed:    "failed",
		cluster.EventMasterElected: "elected",
	}
	var out []string
	for _, ev := range plane.Events() {
		if k, ok := short[ev.Kind]; ok && (ev.Node == failed || ev.Kind == cluster.EventMasterElected) {
			out = append(out, k+":"+ev.Node)
		}
	}
	return out
}

func diffSign(acked, applied int64) string {
	if applied < acked {
		return "lost commits"
	}
	return fmt.Sprintf("%d phantom commits", applied-acked)
}
