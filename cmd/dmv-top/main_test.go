package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"dmv/internal/cluster"
	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/scheduler"
	"dmv/internal/value"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// clusterAt builds a three-node cluster view at unix second at: the
// admission, scrub, runtime and flight series render reads by name, and a
// few family counters and histograms its generic listings pick up.
func clusterAt(at int64, admitted, shed int64) obs.ClusterSnapshot {
	r := obs.New()
	r.Counter(obs.SchedAdmitAdmitted).Add(admitted)
	r.Counter(obs.SchedAdmitShed).Add(shed)
	r.Gauge(obs.SchedAdmitQueueDepth).Set(3)
	r.Gauge(obs.SchedAdmitShedding).Set(1)
	for _, us := range []int64{40, 90, 700} {
		r.Histogram(obs.SchedAdmitSojournUS).Observe(us)
	}
	r.Counter(obs.ScrubSweeps).Add(4)
	r.Counter(obs.ScrubDivergences).Add(2)
	r.Counter(obs.ScrubRepairs).Add(1)
	r.Counter(obs.ScrubRepairFailures).Add(1)
	r.Counter(obs.ScrubSkipped).Add(5)
	r.Histogram(obs.ScrubSweepUS).Observe(1500)
	for i, node := range []string{"master0", "slave0"} {
		r.Gauge(obs.Labeled(obs.RuntimeGoroutines, "node", node)).Set(int64(20 + i))
		r.Gauge(obs.Labeled(obs.RuntimeHeapBytes, "node", node)).Set(int64(3+i) << 20)
		r.Gauge(obs.Labeled(obs.RuntimeGCPauseLastUS, "node", node)).Set(int64(100 * (i + 1)))
	}
	r.Counter(obs.Labeled(obs.FlightDumps, "node", "slave0")).Add(2)
	r.Counter(obs.SchedReadTxns).Add(120)
	r.Counter(obs.NodeUpdateTxns).Add(30)
	r.Counter(obs.HeapCommits).Add(30) // no watched prefix: stays on /metrics
	r.Histogram(obs.SchedTxnUS).Observe(250)
	return obs.ClusterSnapshot{
		TakenUnix: at,
		Frontier:  []uint64{12, 7},
		Nodes: []obs.NodeLag{
			{Node: "master0", Role: "master", Lag: []uint64{0, 0}},
			{Node: "slave0", Role: "slave", Lag: []uint64{2, 1}, PendingMods: 9, Health: "suspect"},
			{Node: "spare0", Role: "spare", Lag: []uint64{12, 7}},
		},
		Merged: r.Snapshot(),
	}
}

// TestRenderGolden renders two consecutive frames (the second shows
// admission rates against the first) and compares them with the
// checked-in output. Regenerate it with -update.
func TestRenderGolden(t *testing.T) {
	local := time.Local
	time.Local = time.UTC // the frame header prints the snapshot's wall time
	t.Cleanup(func() { time.Local = local })

	var prev *admitFrame
	got := render(clusterAt(1_700_000_000, 100, 4), &prev) +
		render(clusterAt(1_700_000_002, 160, 10), &prev)
	path := filepath.Join("testdata", "render.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("render differs from golden (rerun with -update if intended):\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRenderInProcessTier renders the view a running tier builds: with
// admission on, a sweep done and a slave killed, the frame shows the
// admission and scrub lines, the scheduler's counters and the dead node.
func TestRenderInProcessTier(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		Slaves:        2,
		SchemaDDL:     []string{`CREATE TABLE acct (id INT PRIMARY KEY, bal INT)`},
		Admission:     scheduler.AdmissionOptions{Slots: 4},
		ScrubInterval: time.Hour, // the test runs the one sweep itself
		Obs:           obs.New(),
		Load: func(e *heap.Engine) error {
			tid, _ := e.TableID("acct")
			return e.Load(tid, []value.Row{{value.NewInt(1), value.NewInt(0)}})
		},
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(c.Close)
	for i := 0; i < 3; i++ {
		if err := c.Run(scheduler.TxnSpec{Tables: []string{"acct"}}, func(tx *scheduler.Txn) error {
			_, err := tx.Exec(`UPDATE acct SET bal = bal + 1 WHERE id = 1`)
			return err
		}); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if err := c.Run(scheduler.TxnSpec{ReadOnly: true}, func(tx *scheduler.Txn) error {
			_, err := tx.QueryInt(`SELECT bal FROM acct WHERE id = 1`)
			return err
		}); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	c.Sweep()
	if err := c.Kill("slave1"); err != nil {
		t.Fatalf("kill: %v", err)
	}

	var prev *admitFrame
	frame := render(c.ClusterSnapshot(), &prev)
	for _, want := range []string{
		`(?m)^admission  ADMIT `,
		`(?m)^scrub      SWEEPS 1 `,
		`(?m)^  ` + obs.SchedPrefix + `\S+ +[1-9]`,
		`(?m)^slave1 +down `,
	} {
		if !regexp.MustCompile(want).MatchString(frame) {
			t.Errorf("frame does not match %s:\n%s", want, frame)
		}
	}
}
