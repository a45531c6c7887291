package transport

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmv/internal/cluster"
	"dmv/internal/exec"
	"dmv/internal/faultnet"
	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/obs/flight"
	"dmv/internal/replica"
	"dmv/internal/scheduler"
	"dmv/internal/value"
)

// flightDumpDir resolves where a run writes its dumps: DMV_FLIGHT_DIR (the
// check.sh flight leg inspects the artifacts afterwards) or a test temp
// dir. Each run gets its own subdirectory so reruns never collide.
func flightDumpDir(t *testing.T, run string) string {
	base := os.Getenv("DMV_FLIGHT_DIR")
	if base == "" {
		base = t.TempDir()
	}
	return filepath.Join(base, run)
}

// runFlightScenario is the partition acceptance scenario of
// partition_test.go with the flight recorder wired end to end: every node
// keeps its own ring served over the FlightDump RPC, the scheduler's
// recorder coordinates anomaly dumps, and the shared control plane's
// suspicion ladder and commit-fenced fail-over fire the triggers. Returns
// the causal chain the dump must reproduce (health transitions + admitted
// suspicion/fail-over triggers, in ring order), the acked/applied audit,
// and the fail-over dump path.
func runFlightScenario(t *testing.T, seed int64, dir string) (chain []string, acked, final int64, dumpPath string) {
	t.Helper()
	nw := faultnet.New(seed)

	mk := func(id string) (*replica.Node, string) {
		e := heap.NewEngine(heap.Options{PageCap: 8})
		if err := exec.ExecDDL(e, `CREATE TABLE acct (id INT PRIMARY KEY, bal INT)`); err != nil {
			t.Fatalf("ddl: %v", err)
		}
		tid, _ := e.TableID("acct")
		if err := e.Load(tid, []value.Row{{value.NewInt(1), value.NewInt(0)}}); err != nil {
			t.Fatalf("load: %v", err)
		}
		nreg := obs.New()
		nrec := flight.New(flight.Options{Node: id, Reg: nreg})
		t.Cleanup(nrec.Close)
		n := replica.NewNode(replica.Options{ID: id, Engine: e, AckTimeout: 100 * time.Millisecond, Obs: nreg, Flight: nrec})
		lis, err := nw.Listen(id, "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen %s: %v", id, err)
		}
		srv, err := ServeNodeListener(n, lis, nreg)
		if err != nil {
			t.Fatalf("serve %s: %v", id, err)
		}
		t.Cleanup(srv.Close)
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
	// The scheduler's recorder is the dump coordinator: at trigger time it
	// gathers every peer's ring (the isolated master's gather must fail and
	// be recorded, not wedge the dump).
	reg := obs.New()
	rec := flight.New(flight.Options{Node: "sched", Reg: reg, Dir: dir})
	rec.SetPeers([]flight.Peer{rm, rs1, rs2})
	defer rec.Close()

	plane, err := cluster.Assemble(remoteTierConfig(cluster.Config{
		HeartbeatInterval: 25 * time.Millisecond,
		PingTimeout:       80 * time.Millisecond,
		Obs:               reg,
		Flight:            rec,
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

	waitDeadline := time.Now().Add(5 * time.Second)
	for ackedN.Load() < 10 {
		if time.Now().After(waitDeadline) {
			t.Fatal("workload never reached 10 acked commits")
		}
		time.Sleep(2 * time.Millisecond)
	}
	nw.Isolate("m")

	newMaster := awaitNewMaster(t, plane)

	close(stop)
	wg.Wait()

	for i := 0; i < 5; i++ {
		if err := increment(); err != nil {
			t.Fatalf("post-fail-over commit %d: %v", i, err)
		}
		ackedN.Add(1)
	}
	acked = ackedN.Load()

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

	// Close drains the trigger queue: every admitted dump is on disk now.
	rec.Close()

	matches, err := filepath.Glob(filepath.Join(dir, "flight-*-"+flight.CauseFailover+".json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("fail-over dump files = %v, err = %v", matches, err)
	}
	dumpPath = matches[0]
	chain = causalChain(t, dumpPath)
	return chain, acked, final, dumpPath
}

// causalChain extracts the deterministic causal skeleton from the
// scheduler's ring in a dump: health transitions plus the suspicion and
// fail-over triggers, in ring (sequence) order. Timing-dependent entries —
// spans, metric deltas, commit-uncertain triggers from the workload racing
// the partition — are excluded; they vary run to run, the chain must not.
func causalChain(t *testing.T, path string) []string {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read dump: %v", err)
	}
	d, err := flight.Parse(blob)
	if err != nil {
		t.Fatalf("parse dump: %v", err)
	}
	var sched *flight.NodeDump
	for i := range d.Nodes {
		if d.Nodes[i].Node == "sched" {
			sched = &d.Nodes[i]
		}
	}
	if sched == nil {
		t.Fatalf("dump has no scheduler ring; nodes = %d", len(d.Nodes))
	}
	var chain []string
	for _, e := range sched.Entries {
		switch e.Kind {
		case flight.KindHealth:
			chain = append(chain, "health:"+e.Health.Node+":"+e.Health.From+"->"+e.Health.To)
		case flight.KindTrigger:
			if e.Cause == flight.CauseSuspicion || e.Cause == flight.CauseFailover {
				chain = append(chain, "trigger:"+e.Cause+":"+e.Node)
			}
		}
	}
	return chain
}

// TestFlightDumpOnPartitionedFailover is the flight-recorder acceptance
// test: under the seeded partitioned-master scenario the cluster loses no
// acknowledged commit, the fail-over trigger produces one cluster-wide
// dump whose rings cover the scheduler and both survivors (the isolated
// master shows up as a recorded peer error, not a missing dump), and the
// causal chain in the dump — partition, suspicion escalation, fail-over —
// is identical across two runs of one seed.
func TestFlightDumpOnPartitionedFailover(t *testing.T) {
	const seed = 42
	chain1, acked1, final1, path1 := runFlightScenario(t, seed, flightDumpDir(t, "run1"))
	if final1 != acked1 {
		t.Fatalf("acked-commit loss: %d acknowledged, %d applied", acked1, final1)
	}
	want := []string{
		"health:m:healthy->suspect",
		"trigger:" + flight.CauseSuspicion + ":m",
		"health:m:suspect->dead",
		"trigger:" + flight.CauseFailover + ":",
	}
	if !reflect.DeepEqual(chain1, want) {
		t.Fatalf("causal chain = %v, want %v", chain1, want)
	}

	blob, err := os.ReadFile(path1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := flight.Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []string
	for _, nd := range d.Nodes {
		nodes = append(nodes, nd.Node)
	}
	if !reflect.DeepEqual(nodes, []string{"s1", "s2", "sched"}) {
		t.Fatalf("dump nodes = %v, want [s1 s2 sched]", nodes)
	}
	foundM := false
	for _, pe := range d.Meta.PeerErrors {
		if strings.HasPrefix(pe, "m:") {
			foundM = true
		}
	}
	if !foundM {
		t.Fatalf("isolated master not recorded in peer errors: %v", d.Meta.PeerErrors)
	}

	chain2, acked2, final2, _ := runFlightScenario(t, seed, flightDumpDir(t, "run2"))
	if final2 != acked2 {
		t.Fatalf("acked-commit loss on rerun: %d acknowledged, %d applied", acked2, final2)
	}
	if !reflect.DeepEqual(chain1, chain2) {
		t.Fatalf("same seed, different causal chains:\n run 1: %v\n run 2: %v", chain1, chain2)
	}
}
