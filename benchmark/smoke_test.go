package main

import (
	"strings"
	"testing"

	"dmv/internal/tpcw"
)

// TestSmokeAllWirings drives every workload's wiring, timed and traced, at a
// size that takes a couple of seconds, with the oracle on. It also shows the
// bypass half of each layer's workload pair: transport.* is zero unless the
// peers are remote, persist.* and wal.* unless a tier acks the commit.
func TestSmokeAllWirings(t *testing.T) {
	cfg := config{seed: 7, n: 50, reps: 1, scratch: t.TempDir()}
	for _, w := range workloads {
		timed, err := runRep(w, cfg, false)
		if err != nil {
			t.Fatalf("%s timed: %v", w.name, err)
		}
		traced, err := runRep(w, cfg, true)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		for _, r := range []*repResult{timed, traced} {
			if r.Failed != 0 || r.Attempted != clients*cfg.n {
				t.Errorf("%s: attempted %d failed %d (%s)", w.name, r.Attempted, r.Failed, r.FirstErr)
			}
			if len(r.ReadUS)+len(r.UpdateUS) != r.Attempted || r.wips() <= 0 || r.LiveMB <= 0 || r.SetupS <= 0 {
				t.Errorf("%s: implausible repetition %+v", w.name, r)
			}
		}
		for _, d := range perLayer {
			v, ok := traced.layers[d.name]
			if !ok {
				if !strings.HasPrefix(d.name, "bench.") { // bench.* is filled in per run, not per repetition
					t.Errorf("%s: traced repetition did not produce %s", w.name, d.name)
				}
				continue
			}
			layer := d.name[:strings.Index(d.name, ".")]
			exercised := map[string]bool{"transport": w.tcp, "persist": w.durable, "wal": w.durable}
			on, paired := exercised[layer]
			if !paired || d.name == "transport.wire_us_per_interaction" || d.name == "persist.apply_lag_max" {
				continue
			}
			if on && v <= 0 {
				t.Errorf("%s: %s = %v, want > 0 on the workload that exercises %s", w.name, d.name, v, layer)
			}
			if !on && v != 0 {
				t.Errorf("%s: %s = %v, want 0 on a workload that bypasses %s", w.name, d.name, v, layer)
			}
		}
		if got := traced.layers["scheduler.attempts_per_txn"]; got < 1 {
			t.Errorf("%s: attempts per txn %v < 1", w.name, got)
		}
		if traced.residualPct < 0 || traced.residualPct > 10 {
			t.Errorf("%s: %.1f%% of interaction latency lies outside scheduler.Run", w.name, traced.residualPct)
		}
	}
}

// The oracle must reject a write that was acknowledged but is not there.
func TestOracleCatchesLostWrite(t *testing.T) {
	w, _ := workloadByName("ordering-inproc")
	top, err := build(w, 7, nil, t.TempDir(), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer top.close()
	wl := tpcw.NewWorkload(top.store, scale)
	s := wl.NewSession(1)
	for _, it := range []tpcw.Interaction{tpcw.BuyConfirm, tpcw.CustomerRegistration, tpcw.AdminConfirm, tpcw.Home} {
		if err := wl.Do(s, it); err != nil {
			t.Fatal(err)
		}
	}
	if err := verify(top, w, 0); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}
	top.acks.add(ack{kind: tpcw.BuyConfirm, id: 999999})
	if err := verify(top, w, 0); err == nil || !strings.Contains(err.Error(), "not visible") {
		t.Errorf("lost order accepted: %v", err)
	}
}
