package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"

	"dmv/internal/tpcw"
)

// updateKinds are the interactions for which Interaction.IsUpdate holds.
var updateKinds = []tpcw.Interaction{tpcw.CustomerRegistration, tpcw.BuyConfirm, tpcw.AdminConfirm}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the tier would see, as BENCHMARK.json
// gates them. failed_pct is printed beside them but is not gated there: it
// is zero on every accepted run, and the driver reads failures from the
// result line's attempted/failed counts instead.
var endToEnd = []metricDef{
	{"wips", "1/s"},
	{"read_p50_us", "us"},
	{"read_p99_us", "us"},
	{"update_p50_us", "us"},
	{"update_p99_us", "us"},
	{"cpu_us_per_interaction", "us"},
	{"allocs_per_interaction", "count"},
	{"alloc_kb_per_interaction", "KiB"},
	{"live_heap_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the traced repetition's metrics, layer = module name.
var perLayer = []metricDef{
	{"scheduler.txn_us", "us"},
	{"scheduler.self_us", "us"},
	{"scheduler.attempts_per_txn", "count"},
	{"scheduler.abort_version_pct", "%"},
	{"scheduler.abort_lock_pct", "%"},
	{"scheduler.read_skew", "ratio"},
	{"replica.begin_us", "us"},
	{"replica.exec_read_us", "us"},
	{"replica.exec_update_us", "us"},
	{"replica.commit_read_us", "us"},
	{"replica.commit_update_us", "us"},
	{"replica.ack_wait_us", "us"},
	{"replica.commit_self_us", "us"},
	{"replica.ws_recv_us", "us"},
	{"replica.ws_pages_per_commit", "count"},
	{"replica.ws_mods_per_commit", "count"},
	{"replica.ws_bytes_per_commit", "B"},
	{"transport.rtt_floor_us", "us"},
	{"transport.allocs_per_call", "count"},
	{"transport.calls_per_interaction", "count"},
	{"transport.bytes_per_interaction", "B"},
	{"transport.wire_us_per_interaction", "us"},
	{"sql.parse_us_per_stmt", "us"},
	{"sql.distinct_stmts", "count"},
	{"exec.prepare_us_per_stmt", "us"},
	{"exec.stmts_per_interaction", "count"},
	{"exec.self_us_per_read_stmt", "us"},
	{"exec.self_us_per_update_stmt", "us"},
	{"exec.allocs_per_read_stmt", "count"},
	{"exec.alloc_kb_per_read_stmt", "KiB"},
	{"heap.read_us_per_read_stmt", "us"},
	{"heap.calls_per_read_stmt", "count"},
	{"heap.rows_fetched_per_row_returned", "ratio"},
	{"heap.write_us_per_update_stmt", "us"},
	{"heap.ws_buffer_us_per_ws", "us"},
	{"heap.lazy_apply_us_per_mod", "us"},
	{"heap.lazy_mods_per_read", "count"},
	{"heap.lock_wait_us_per_update", "us"},
	{"persist.on_commit_us", "us"},
	{"persist.self_us", "us"},
	{"wal.fsync_us", "us"},
	{"wal.fsyncs_per_commit", "count"},
	{"wal.bytes_per_commit", "B"},
	{"persist.apply_lag_max", "count"},
	{"persist.drain_s", "s"},
	{"runtime.gc_cpu_pct", "%"},
	{"runtime.gc_cycles_per_kilo_interaction", "count"},
	{"bench.calib_ms", "ms"},
	{"bench.noisy_reps", "count"},
	{"bench.trace_overhead_pct", "%"},
}

type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// workloadResult is one workload's share of a result set.
type workloadResult struct {
	Measured    int                    `json:"measured_per_client"` // per repetition
	WarmUp      int                    `json:"warmup_per_client"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	FailedPct   float64                `json:"failed_pct"`
	FirstError  string                 `json:"first_error,omitempty"`
	CalibMS     float64                `json:"calib_ms"`
	NoisyReps   int                    `json:"noisy_reps"`
	ResidualPct float64                `json:"residual_pct"` // traced: interaction latency not inside scheduler.Run
	RepWips     []float64              `json:"rep_wips"`     // each timed repetition's throughput, in run order
	Breakdown   []breakdown            `json:"breakdown,omitempty"`
	EndToEnd    map[string]metricValue `json:"end_to_end"`
	PerLayer    map[string]metricValue `json:"per_layer"`
}

type resultSet struct {
	Meta      meta                       `json:"meta"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// foldTimed turns the timed repetitions into the end-to-end metrics:
// per-repetition quantities as the median of the repetitions, latency
// percentiles over the repetitions' pooled samples, set-up time as the
// median of every set-up the run made.
func (r *workloadResult) foldTimed(reps []*repResult, setups []float64) {
	pick := func(f func(*repResult) float64) float64 {
		xs := make([]float64, len(reps))
		for i, rep := range reps {
			xs[i] = f(rep)
		}
		return median(xs)
	}
	var reads, updates []float64
	// The three update interactions cost 80, 100 and 400 us and the browsing
	// mix holds them 2:1:2, so the pooled median would sit in the gap
	// between the cheap two and BuyConfirm; update_p50_us is the median per
	// interaction, weighted by the interaction's share.
	updatesOf := make([][]float64, len(updateKinds))
	for _, rep := range reps {
		reads = append(reads, rep.ReadUS...)
		updates = append(updates, rep.UpdateUS...)
		for i, us := range rep.UpdateUS {
			k := slices.Index(updateKinds, rep.UpdateOf[i])
			updatesOf[k] = append(updatesOf[k], us)
		}
	}
	sort.Float64s(reads)
	sort.Float64s(updates)
	set := func(name string, v float64, samples int) {
		for _, d := range endToEnd {
			if d.name == name {
				r.EndToEnd[name] = metricValue{Value: v, Unit: d.unit, Samples: samples}
			}
		}
	}
	for _, rep := range reps {
		r.RepWips = append(r.RepWips, rep.wips())
	}
	set("wips", pick((*repResult).wips), len(reps))
	set("read_p50_us", percentile(reads, 0.50), len(reads))
	set("read_p99_us", percentile(reads, 0.99), len(reads))
	set("update_p50_us", stratifiedMedian(updatesOf), len(updates))
	set("update_p99_us", percentile(updates, 0.99), len(updates))
	set("cpu_us_per_interaction", pick(func(x *repResult) float64 { return x.CPUUS }), len(reps))
	set("allocs_per_interaction", pick(func(x *repResult) float64 { return x.Allocs }), len(reps))
	set("alloc_kb_per_interaction", pick(func(x *repResult) float64 { return x.AllocKB }), len(reps))
	set("live_heap_mb", pick(func(x *repResult) float64 { return x.LiveMB }), len(reps))
	set("setup_s", median(setups), len(setups))
	r.FailedPct = 100 * ratio(float64(r.Failed), float64(r.Attempted))
}

// print writes every metric with its name, unit and sample count.
func (s *resultSet) print(out io.Writer, order []workload) {
	m := s.Meta
	fmt.Fprintf(out, "# seed=%d clients=%d reps=%d scale=%d items/%d customers gomaxprocs=%d cpus=%d gogc=%s %s\n",
		m.Seed, m.Clients, m.Reps, m.Items, m.Customers, m.GoMaxProcs, m.NumCPU, m.GOGC, m.GoVersion)
	for _, w := range order {
		r := s.Workloads[w.name]
		fmt.Fprintf(out, "%s: oracle ok, %d measured after %d warm-up interactions per client and repetition, attempted %d, failed %d, calibration %.1f ms, noisy repetitions %d\n",
			w.name, r.Measured, r.WarmUp, r.Attempted, r.Failed, r.CalibMS, r.NoisyReps)
		if len(r.RepWips) > 0 {
			fmt.Fprintf(out, "%s: wips by timed repetition %.0f\n", w.name, r.RepWips)
		}
		if r.FirstError != "" {
			fmt.Fprintf(out, "%s: first error: %s\n", w.name, r.FirstError)
		}
		line := func(name string, v metricValue) {
			fmt.Fprintf(out, "%-18s %-40s %14.4f %-6s n=%d\n", w.name, name, v.Value, v.Unit, v.Samples)
		}
		if len(r.EndToEnd) > 0 {
			for _, d := range endToEnd {
				line(d.name, r.EndToEnd[d.name])
			}
			line("failed_pct", metricValue{Value: r.FailedPct, Unit: "%", Samples: r.Attempted})
		}
		if len(r.PerLayer) > 0 {
			for _, d := range perLayer {
				line(d.name, r.PerLayer[d.name])
			}
			line("bench.residual_pct", metricValue{Value: r.ResidualPct, Unit: "%", Samples: r.Attempted})
			for _, b := range r.Breakdown {
				fmt.Fprintf(out, "%s: one %s transaction, mean %.1f us over %d = scheduler %.1f + begin %.1f + exec %.1f (%.2f statements) + commit %.1f (ack wait %.1f of it) + rollback %.1f + on-commit %.1f (fsync %.1f of it)\n",
					w.name, b.Class, b.TotalUS, b.Txns, b.SchedulerUS, b.BeginUS, b.ExecUS, b.Stmts, b.CommitUS, b.AckWaitUS, b.RollbackUS, b.OnCommitUS, b.FsyncUS)
			}
		}
	}
}

// lastLine is the driver's result line. With one workload the metric names
// are bare; with several they carry the workload's name.
func (s *resultSet) lastLine(order []workload) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: true, Metrics: map[string]val{}}
	for _, w := range order {
		r := s.Workloads[w.name]
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		prefix := ""
		if len(order) > 1 {
			prefix = w.name + ":"
		}
		for _, group := range []map[string]metricValue{r.EndToEnd, r.PerLayer} {
			for name, v := range group {
				out.Metrics[prefix+name] = val{v.Value, v.Unit}
			}
		}
	}
	blob, err := json.Marshal(out)
	if err != nil {
		panic(err) // a struct of numbers and strings always encodes
	}
	return string(blob)
}

// spreadReport compares two result sets of one commit against the bounds
// in the benchmark's contract file: per metric and workload the relative
// difference and whether it sits inside the bound ("ok") or not
// ("unresolved": the run-to-run spread is wider than the bound, so a later
// change to that metric cannot be judged). It returns the unresolved count.
func spreadReport(out io.Writer, boundsPath, pathA, pathB string) (int, error) {
	var contract struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := readJSON(boundsPath, &contract); err != nil {
		return 0, err
	}
	var a, b resultSet
	if err := readJSON(pathA, &a); err != nil {
		return 0, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return 0, err
	}
	unresolved := 0
	for _, w := range workloads {
		ra, rb := a.Workloads[w.name], b.Workloads[w.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, c := range contract.EndToEnd {
			va, vb := ra.EndToEnd[c.Name], rb.EndToEnd[c.Name]
			rel := math.Abs(ratio(vb.Value-va.Value, va.Value))
			verdict := "ok"
			if rel > c.Bound {
				verdict = "unresolved"
				unresolved++
			}
			fmt.Fprintf(out, "%-18s %-26s %14.4f %14.4f %-6s %+7.2f%% bound %4.1f%% n=%d %s\n",
				w.name, c.Name, va.Value, vb.Value, c.Unit, 100*ratio(vb.Value-va.Value, va.Value), 100*c.Bound, va.Samples, verdict)
		}
		// Failures are judged on the absolute difference: 0.1 points.
		verdict := "ok"
		if math.Abs(rb.FailedPct-ra.FailedPct) > 0.1 {
			verdict = "unresolved"
			unresolved++
		}
		fmt.Fprintf(out, "%-18s %-26s %14.4f %14.4f %-6s %+7.2f   bound  0.1   n=%d %s\n",
			w.name, "failed_pct", ra.FailedPct, rb.FailedPct, "%", rb.FailedPct-ra.FailedPct, ra.Attempted, verdict)
	}
	return unresolved, nil
}

func readJSON(path string, into any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(blob, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
