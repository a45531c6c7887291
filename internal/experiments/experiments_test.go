package experiments

import (
	"testing"
	"time"

	"dmv/internal/tpcw"
)

// The shape tests assert each figure's shape — who wins, where scaling
// flattens, which fail-over stage dominates — on one fixed seed at
// shapeDurations. Every margin is looser than the worst case measured over
// seeds 1-3 at this envelope (EXPERIMENTS.md quotes the measured ranges);
// absolute numbers are a sleep model's and are not asserted.

// shapeSeed seeds every client's random stream.
const shapeSeed = 1

// shapeDurations is the envelope the margins were sized on.
func shapeDurations() Durations {
	return Durations{
		Warmup:  100 * time.Millisecond,
		Measure: 800 * time.Millisecond,
		Window:  50 * time.Millisecond,
		Clients: 8,
		Seed:    shapeSeed,
	}
}

// failoverDurations extends shapeDurations for the fail-over figures. The
// fault lands 600 ms in, so a stale spare has missed enough updates for
// its catch-up to show and a warm spare has served enough reads to have
// warmed; the run then outlasts the InnoDB spare's log replay, which its
// tier times in the background.
func failoverDurations() Durations {
	d := shapeDurations()
	d.Measure = 1200 * time.Millisecond
	d.FaultAt = 600 * time.Millisecond
	return d
}

func tinyScale() tpcw.Scale { return tpcw.Scale{Items: 100, Customers: 50} }

func skipShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment shape test")
	}
}

// checkRan fails the test unless the fail-over run served load before the
// fault and logged every event kind in want.
func checkRan(t *testing.T, r *FailoverResult, want ...string) {
	t.Helper()
	if r.Baseline <= 0 {
		t.Fatalf("%s: baseline %.1f WIPS", r.Name, r.Baseline)
	}
	kinds := map[string]bool{}
	for _, ev := range r.Events {
		kinds[string(ev.Kind)] = true
	}
	for _, k := range want {
		if !kinds[k] {
			t.Fatalf("%s: missing event %s in %v", r.Name, k, kinds)
		}
	}
}

// TestFigure3Shape: the DMV tier outruns stand-alone InnoDB at every size,
// browsing scales with the tier, and ordering saturates the master.
func TestFigure3Shape(t *testing.T) {
	skipShort(t)
	rows, err := Figure3(Fig3Opts{
		Scale:       tinyScale(),
		Dur:         shapeDurations(),
		SlaveCounts: []int{1, 2, 4},
		Mixes:       []tpcw.Mix{tpcw.BrowsingMix, tpcw.OrderingMix},
	})
	if err != nil {
		t.Fatal(err)
	}
	wips := map[string]float64{}
	for _, r := range rows {
		t.Logf("%-9s %-7s %7.1f WIPS %5.2fx aborts %5.2f%%", r.Mix, r.Config, r.WIPS, r.Speedup, r.AbortPct)
		wips[r.Mix+"/"+r.Config] = r.WIPS
		if r.WIPS <= 0 {
			t.Fatalf("%s %s: zero throughput", r.Mix, r.Config)
		}
		if r.Config != "innodb" && r.Speedup < 1.5 {
			t.Errorf("%s %s: %.2fx stand-alone InnoDB, want >= 1.5x", r.Mix, r.Config, r.Speedup)
		}
	}
	for _, pair := range [][2]string{{"dmv-1", "dmv-2"}, {"dmv-2", "dmv-4"}} {
		small, big := wips["browsing/"+pair[0]], wips["browsing/"+pair[1]]
		if big < 1.4*small {
			t.Errorf("browsing %s -> %s: %.1f -> %.1f WIPS (%.2fx), want >= 1.4x per tier doubling",
				pair[0], pair[1], small, big, big/small)
		}
	}
	if two, four := wips["ordering/dmv-2"], wips["ordering/dmv-4"]; four > 1.3*two {
		t.Errorf("ordering dmv-2 -> dmv-4: %.1f -> %.1f WIPS (%.2fx), want <= 1.3x (master saturation)",
			two, four, four/two)
	}
}

// TestFigure4Shape: the master fails, a slave is elected, and the failed
// node reboots and rejoins.
func TestFigure4Shape(t *testing.T) {
	skipShort(t)
	r, err := Figure4(tinyScale(), failoverDurations(), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	checkRan(t, r, "node-failed", "master-elected", "node-restarted")
}

// TestFigure5Shape (Figs. 5 and 6): catching a stale DMV spare up by page
// shipping is far shorter than the InnoDB spare's log replay.
func TestFigure5Shape(t *testing.T) {
	skipShort(t)
	_, dmv, inno, err := Figure6(tinyScale(), failoverDurations())
	if err != nil {
		t.Fatal(err)
	}
	checkRan(t, dmv, "spare-activated")
	checkRan(t, inno)
	ship, ok := dmv.Stages["DB Update"]
	if !ok {
		t.Fatalf("DMV run has no DB Update stage: %v", dmv.Stages)
	}
	replay, ok := inno.Stages["DB Update (log replay)"]
	if !ok {
		t.Fatalf("InnoDB run has no log-replay stage: %v", inno.Stages)
	}
	t.Logf("DB Update: DMV page shipping %v, InnoDB log replay %v", ship, replay)
	if ship > replay/10 {
		t.Errorf("DMV DB Update %v > 1/10 of InnoDB log replay %v", ship, replay)
	}
}

// TestFigures789Shape: the up-to-date spare takes over with a cold buffer
// cache (Fig. 7) unless a warm-up scheme filled it (Figs. 8 and 9).
func TestFigures789Shape(t *testing.T) {
	skipShort(t)
	for _, tc := range []struct {
		fig  func(tpcw.Scale, Durations) (*FailoverResult, error)
		warm bool
	}{{Figure7, false}, {Figure8, true}, {Figure9, true}} {
		r, err := tc.fig(tinyScale(), failoverDurations())
		if err != nil {
			t.Fatal(err)
		}
		checkRan(t, r, "spare-activated")
		t.Logf("%s: %d pages resident in the spare at the fault", r.Name, r.SpareResident)
		if tc.warm && r.SpareResident == 0 {
			t.Errorf("%s: warm spare took over with an empty cache", r.Name)
		}
		if !tc.warm && r.SpareResident != 0 {
			t.Errorf("%s: cold spare had %d resident pages, want 0", r.Name, r.SpareResident)
		}
	}
}

// TestConflictClassesShape: two conflict-class masters over disjoint
// tables outrun a single master.
func TestConflictClassesShape(t *testing.T) {
	skipShort(t)
	single, multi, err := AblationConflictClasses(shapeDurations())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("single master %.1f txn/s, two classes %.1f txn/s (%.2fx)", single, multi, multi/single)
	if multi < 1.5*single {
		t.Errorf("two classes %.1f txn/s < 1.5x single master %.1f", multi, single)
	}
}

// TestOverloadShape: at twice the closed-loop plateau, admission control
// sheds the excess, keeps admitted latency low and keeps goodput above the
// unprotected tier's.
func TestOverloadShape(t *testing.T) {
	skipShort(t)
	r, err := OverloadSweep(shapeDurations())
	if err != nil {
		t.Fatal(err)
	}
	admit, noadmit := r.Admit, r.NoAdmit
	t.Logf("plateau %.1f/s; admit: p95 %v goodput %.1f shed %d; noadmit: p95 %v goodput %.1f",
		r.PlateauGoodput, admit.P95Latency, admit.Goodput, admit.Shed, noadmit.P95Latency, noadmit.Goodput)
	if admit.Shed == 0 {
		t.Error("admission shed nothing at 2x the plateau")
	}
	if admit.P95Latency > noadmit.P95Latency/4 {
		t.Errorf("admitted p95 %v > 1/4 of the no-admission p95 %v", admit.P95Latency, noadmit.P95Latency)
	}
	if admit.Goodput <= noadmit.Goodput {
		t.Errorf("goodput with admission %.1f <= without %.1f", admit.Goodput, noadmit.Goodput)
	}
}
