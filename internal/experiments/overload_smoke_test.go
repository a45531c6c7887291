package experiments

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"dmv/internal/cluster"
	"dmv/internal/harness"
	"dmv/internal/obs"
	"dmv/internal/obs/flight"
	"dmv/internal/scheduler"
)

// overloadDumpDir resolves where the smoke run writes its flight dumps:
// DMV_FLIGHT_DIR (the check.sh overload leg hands the artifact to
// dmv-doctor afterwards) or a test temp dir.
func overloadDumpDir(t *testing.T) string {
	base := os.Getenv("DMV_FLIGHT_DIR")
	if base == "" {
		base = t.TempDir()
	}
	return filepath.Join(base, "overload")
}

// TestOverloadSmoke is the fixed-seed stampede smoke: an open-loop arrival
// process offered well past a tiny tier's capacity must be shed — not
// queued without bound — while the p95 of *admitted* work stays near the
// service time, far under the caller deadline. Engaging shed mode is an
// anomaly by definition, so the run must also leave a sustained-overload
// flight dump behind for dmv-doctor to attribute.
func TestOverloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	const seed = 7
	dir := overloadDumpDir(t)
	reg := obs.New()
	rec := flight.New(flight.Options{Node: "cluster", Reg: reg, Dir: dir})
	defer rec.Close()

	c, err := cluster.New(cluster.Config{
		Slaves:     1,
		SchemaDDL:  overloadDDL(),
		Load:       overloadLoad,
		Seed:       seed,
		MaxRetries: 4,
		Costs:      nodeCPU,
		Admission: scheduler.AdmissionOptions{
			Slots: 4, QueueCap: 4,
			TargetSojourn: 2 * time.Millisecond, Interval: 20 * time.Millisecond,
		},
		Obs:    reg,
		Flight: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// ~4 slots x ~3ms modelled reads put capacity near 1300/s; offer ~3x
	// that with burst episodes on top so shed mode must engage.
	const deadline = 400 * time.Millisecond
	res := harness.RunOpenLoop(harness.OpenLoopConfig{
		Do:          overloadDo(c, deadline),
		Rate:        4000,
		Duration:    1200 * time.Millisecond,
		Seed:        seed,
		BurstEvery:  500 * time.Millisecond,
		BurstLen:    120 * time.Millisecond,
		BurstFactor: 3,
	})
	if res.Done == 0 {
		t.Fatalf("no admitted work completed: %+v", res)
	}
	if res.Shed == 0 {
		t.Fatalf("3x overload shed nothing: %+v", res)
	}
	// The bound the admission queue exists to hold: admitted p95 stays
	// well under the caller deadline even while the excess is being shed.
	if res.P95Latency >= deadline/2 {
		t.Fatalf("admitted p95 %v not bounded while shedding (deadline %v): %+v", res.P95Latency, deadline, res)
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.SchedAdmitShed] == 0 {
		t.Fatal("shed counter never moved")
	}

	// Close drains the trigger queue; the shed-mode transition must have
	// left exactly one sustained-overload dump (per-cause cooldown folds
	// repeated transitions into the first).
	rec.Close()
	matches, err := filepath.Glob(filepath.Join(dir, "flight-*-"+flight.CauseOverload+".json"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no sustained-overload flight dump: matches=%v err=%v", matches, err)
	}
	blob, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	d, err := flight.Parse(blob)
	if err != nil {
		t.Fatalf("parse dump: %v", err)
	}
	if d.Trigger.Cause != flight.CauseOverload {
		t.Fatalf("dump cause = %q, want %q", d.Trigger.Cause, flight.CauseOverload)
	}
}
