// Command benchmark is the repository's cost-model-free TPC-W benchmark: it
// drives the real scheduler, replicas, transport and persistence tier — no
// service-time model, no simulated disk latency — under four fixed-work
// workloads, prints the end-to-end metrics, and in a separate traced
// repetition accounts for each layer from outside, by decorating the public
// seams from this package's own files. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workloadFlag = flag.String("workload", "all", "workload name, a comma-separated list, or all")
		seed         = flag.Int64("seed", 7, "seed of the interaction generators (their only input)")
		seconds      = flag.Int("seconds", 20, "time budget that sizes the fixed work: seconds * the workload's rate measured interactions per run")
		n            = flag.Int("n", 0, "measured interactions per client per repetition (overrides -seconds)")
		reps         = flag.Int("reps", 3, "timed repetitions per run, each on a freshly built topology")
		trace        = flag.String("trace", "both", "0: timed repetitions, end-to-end metrics; 1: traced repetition, per-layer metrics; both")
		traceOut     = flag.String("trace-out", "", "write the traced repetition's spans to this file (JSON, one line per workload)")
		jsonOut      = flag.String("json", "", "write the full result set to this file")
		scratch      = flag.String("scratch", ".bench_build/run", "directory for the durable workload's WAL")
		checkSpread  = flag.Bool("check-spread", false, "compare two result sets (-json files given as arguments) against the bounds")
		bounds       = flag.String("bounds", "BENCHMARK.json", "bounds file for -check-spread")
	)
	flag.Parse()
	if *checkSpread {
		if flag.NArg() != 2 {
			return fmt.Errorf("-check-spread needs two result files")
		}
		unresolved, err := spreadReport(os.Stdout, *bounds, flag.Arg(0), flag.Arg(1))
		if err == nil && unresolved > 0 {
			err = fmt.Errorf("%d metrics unresolved", unresolved)
		}
		return err
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		return fmt.Errorf("-trace must be 0, 1 or both")
	}
	if *reps < 1 || *seconds < 1 || *n < 0 {
		return fmt.Errorf("-reps and -seconds must be at least 1, -n at least 0")
	}
	var selected []workload
	if *workloadFlag == "all" {
		selected = workloads
	} else {
		for _, name := range strings.Split(*workloadFlag, ",") {
			w, ok := workloadByName(name)
			if !ok {
				return fmt.Errorf("unknown workload %q", name)
			}
			selected = append(selected, w)
		}
	}
	cfg := config{seed: *seed, reps: *reps}
	cfg.scratch = fmt.Sprintf("%s/%d", *scratch, os.Getpid())
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.scratch)

	set := &resultSet{Meta: newMeta(cfg), Workloads: map[string]*workloadResult{}}
	var traceFile *os.File
	if *traceOut != "" && *trace != "0" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close() // error paths; the success path checks Close below
		traceFile = f
	}
	for _, w := range selected {
		cfg.n = *n
		if cfg.n == 0 {
			cfg.n = measuredPerClient(w, *seconds, *reps)
		}
		res, err := runWorkload(w, cfg, *trace != "1", *trace != "0", traceFile)
		if err != nil {
			return err // a violated oracle or a broken run prints no metrics at all
		}
		set.Workloads[w.name] = res
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			return err
		}
	}
	set.print(os.Stdout, selected)
	if *jsonOut != "" {
		blob, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	fmt.Println(set.lastLine(selected))
	return nil
}

// calibRounds SHA-256 passes over a 64 KiB buffer take about 200 ms on the
// machine the reference results were taken on.
const calibRounds = 4800

// calibrate times a fixed amount of single-threaded work. The machine's
// speed drifts (the prototype saw back-to-back runs move throughput and CPU
// per interaction together by a fifth); the calibration makes that drift
// visible instead of letting it pass as a property of the code.
func calibrate() float64 {
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	t := time.Now()
	for i := 0; i < calibRounds; i++ {
		s := sha256.Sum256(buf)
		buf[0] = s[0]
	}
	return float64(time.Since(t)) / 1e6
}

// noiseBound is how far a repetition's calibration may sit from the set's
// median before the repetition is taken again.
const noiseBound = 0.10

// guarded runs the jobs in order, each between two calibrations, then
// re-runs once every job whose calibration is off the set's median by more
// than noiseBound. It returns the results, the median calibration and the
// number of re-runs.
func guarded(jobs []func() (*repResult, error)) ([]*repResult, float64, int, error) {
	out := make([]*repResult, len(jobs))
	calib := make([]float64, len(jobs))
	prev := calibrate()
	for i, job := range jobs {
		r, err := job()
		if err != nil {
			return nil, 0, 0, err
		}
		next := calibrate()
		out[i], calib[i] = r, (prev+next)/2
		prev = next
	}
	med := median(calib)
	noisy := 0
	for i, job := range jobs {
		if math.Abs(calib[i]-med) <= noiseBound*med {
			continue
		}
		noisy++
		r, err := job()
		if err != nil {
			return nil, 0, 0, err
		}
		out[i].release()
		out[i] = r
	}
	return out, med, noisy, nil
}

// extraSetups is how many topologies a timed run builds and tears down
// beyond the ones its repetitions use.
const extraSetups = 8

// runWorkload takes the timed repetitions, the traced one, or both, and
// folds them into the workload's result. With a trace file, the traced
// repetition's spans are written to it.
func runWorkload(w workload, cfg config, timed, traced bool, traceFile *os.File) (*workloadResult, error) {
	var jobs []func() (*repResult, error)
	nTimed := 1 // the traced repetition's overhead needs a timed one beside it
	if timed {
		nTimed = cfg.reps
	}
	for i := 0; i < nTimed; i++ {
		jobs = append(jobs, func() (*repResult, error) { return runRep(w, cfg, false) })
	}
	if traced {
		jobs = append(jobs, func() (*repResult, error) { return runRep(w, cfg, true) })
		if w.tcp {
			// The same fixed work over direct peers prices the wire.
			ref, _ := workloadByName("ordering-inproc")
			jobs = append(jobs, func() (*repResult, error) { return runRep(ref, cfg, true) })
		}
	}
	reps, calibMS, noisy, err := guarded(jobs)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, r := range reps {
			r.release()
		}
	}()
	res := &workloadResult{Measured: cfg.n, WarmUp: cfg.warm(), EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}}
	timedReps := reps[:nTimed]
	for _, r := range timedReps {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		if res.FirstError == "" {
			res.FirstError = r.FirstErr
		}
	}
	if timed {
		// Set-up is a twentieth of a second, so a run sets up a few more
		// times than it measures and reports the median of all of them.
		setups := make([]float64, 0, len(timedReps)+extraSetups)
		for _, r := range timedReps {
			setups = append(setups, r.SetupS)
		}
		for i := 0; i < extraSetups; i++ {
			s, err := setupOnly(w, cfg)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s)
		}
		res.foldTimed(timedReps, setups)
	}
	if traced {
		tracedRep := reps[nTimed]
		layers := tracedRep.layers
		if w.tcp {
			layers["transport.wire_us_per_interaction"] = wireUS(tracedRep, reps[nTimed+1])
		}
		timedWips := make([]float64, len(timedReps))
		for i, r := range timedReps {
			timedWips[i] = r.wips()
		}
		layers["bench.trace_overhead_pct"] = 100 * ratio(median(timedWips)-tracedRep.wips(), median(timedWips))
		layers["bench.calib_ms"] = calibMS
		layers["bench.noisy_reps"] = float64(noisy)
		for _, d := range perLayer {
			v, ok := layers[d.name]
			if !ok {
				return nil, fmt.Errorf("%s: per-layer metric %s was not produced", w.name, d.name)
			}
			res.PerLayer[d.name] = metricValue{Value: v, Unit: d.unit, Samples: tracedRep.Attempted}
		}
		res.ResidualPct, res.Breakdown = tracedRep.residualPct, tracedRep.breakdown
		if !timed {
			res.Attempted, res.Failed = tracedRep.Attempted, tracedRep.Failed
			if res.FirstError == "" {
				res.FirstError = tracedRep.FirstErr
			}
		}
		if traceFile != nil {
			if err := writeTrace(traceFile, w.name, tracedRep.tr.spans.items()); err != nil {
				return nil, err
			}
		}
	}
	res.CalibMS, res.NoisyReps = calibMS, noisy
	return res, nil
}

// wireUS prices the wire on an interaction's blocking path: for each kind of
// call the scheduler makes, the tcp mean minus the in-process mean of the
// same fixed work, times the calls. The master's TxCommit contains its
// broadcast, so the subscribers' share of the wire is inside the commit's.
func wireUS(tcp, inproc *repResult) float64 {
	total := 0.0
	for name, calls := range tcp.calls {
		total += (tcp.layers[name] - inproc.layers[name]) * calls
	}
	return total / float64(tcp.Attempted)
}

// meta records the conditions of a run; none of it is a metric.
type meta struct {
	Seed       int64  `json:"seed"`
	Clients    int    `json:"clients"`
	Reps       int    `json:"reps"`
	Items      int    `json:"items"`
	Customers  int    `json:"customers"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
}

func newMeta(cfg config) meta {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return meta{Seed: cfg.seed, Clients: clients, Reps: cfg.reps,
		Items: scale.Items, Customers: scale.Customers, GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), GOGC: gogc, GoVersion: runtime.Version()}
}
