package harness

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dmv/internal/tpcw"
)

// Point is one timeline bucket.
type Point struct {
	T          float64 // seconds since measurement start
	Throughput float64 // interactions per second (WIPS)
	AvgLatency float64 // milliseconds
	Errors     int64
}

// Timeline accumulates windowed throughput/latency, the measurement behind
// every fail-over figure (the paper averages over 20-second intervals; the
// compressed-time runs here use sub-second windows).
type Timeline struct {
	mu      sync.Mutex
	start   time.Time
	window  time.Duration
	buckets []bucket
}

type bucket struct {
	count   int64
	errs    int64
	latSumN int64 // latency sum in nanoseconds
}

// NewTimeline starts a timeline with the given bucket width.
func NewTimeline(window time.Duration) *Timeline {
	return &Timeline{start: time.Now(), window: window}
}

// Record adds one completed interaction.
func (tl *Timeline) Record(lat time.Duration, failed bool) {
	idx := int(time.Since(tl.start) / tl.window)
	tl.mu.Lock()
	defer tl.mu.Unlock()
	for idx >= len(tl.buckets) {
		tl.buckets = append(tl.buckets, bucket{})
	}
	b := &tl.buckets[idx]
	b.count++
	b.latSumN += int64(lat)
	if failed {
		b.errs++
	}
}

// Series renders the buckets.
func (tl *Timeline) Series() []Point {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	out := make([]Point, len(tl.buckets))
	sec := tl.window.Seconds()
	for i, b := range tl.buckets {
		p := Point{T: float64(i) * sec, Errors: b.errs}
		p.Throughput = float64(b.count) / sec
		if b.count > 0 {
			p.AvgLatency = float64(b.latSumN) / float64(b.count) / 1e6
		}
		out[i] = p
	}
	return out
}

// RunConfig drives one closed-loop TPC-W run.
type RunConfig struct {
	Workload *tpcw.Workload
	Mix      tpcw.Mix
	Clients  int
	// Duration is the measured period; Warmup before it is discarded.
	Duration time.Duration
	Warmup   time.Duration
	// Window is the timeline bucket width (default Duration/40, min 50ms).
	Window time.Duration
	Seed   int64
	// ThinkTime between interactions (0 = closed loop at full speed).
	ThinkTime time.Duration
	// OnTick, if non-nil, is invoked once per client iteration (fault
	// injection scripting hooks poll elapsed time from it).
	OnTick func(elapsed time.Duration)
	// Clock paces the warmup and measurement phases (nil = RealClock).
	// Injecting a test clock keeps harness pacing out of the chaos
	// schedule's entropy (see the detrand analyzer).
	Clock Clock
}

// InteractionStat aggregates one interaction type over a run.
type InteractionStat struct {
	Count      int64
	Errors     int64
	AvgLatency time.Duration
}

// RunResult summarizes one run.
type RunResult struct {
	WIPS       float64 // throughput over the measured period
	AvgLatency time.Duration
	P95Latency time.Duration
	Errors     int64
	Total      int64
	Timeline   *Timeline
	Elapsed    time.Duration
	// ByInteraction breaks the measured period down per TPC-W interaction.
	ByInteraction map[string]InteractionStat
}

// Run executes the closed-loop client emulation.
func Run(cfg RunConfig) *RunResult {
	if cfg.Window <= 0 {
		cfg.Window = cfg.Duration / 40
		if cfg.Window < 50*time.Millisecond {
			cfg.Window = 50 * time.Millisecond
		}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock{}
	}
	type iStat struct {
		count, errs, latSum int64
	}
	var (
		total, errs  atomic.Int64
		latSum       atomic.Int64
		samplesMu    sync.Mutex
		samples      []time.Duration
		perIx        = map[tpcw.Interaction]*iStat{}
		perIxMu      sync.Mutex
		stop         = make(chan struct{})
		tl           *Timeline
		measureStart time.Time
	)
	start := time.Now()
	var wg sync.WaitGroup
	measuring := atomic.Bool{}
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sess := cfg.Workload.NewSession(cfg.Seed + int64(c)*7919)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if cfg.OnTick != nil {
					cfg.OnTick(time.Since(start))
				}
				it := cfg.Mix.Pick(sess.R)
				t0 := time.Now()
				err := cfg.Workload.Do(sess, it)
				lat := time.Since(t0)
				if measuring.Load() {
					total.Add(1)
					latSum.Add(int64(lat))
					if err != nil {
						errs.Add(1)
					}
					if tl != nil {
						tl.Record(lat, err != nil)
					}
					perIxMu.Lock()
					st := perIx[it]
					if st == nil {
						st = &iStat{}
						perIx[it] = st
					}
					st.count++
					st.latSum += int64(lat)
					if err != nil {
						st.errs++
					}
					perIxMu.Unlock()
					samplesMu.Lock()
					if len(samples) < 100000 {
						samples = append(samples, lat)
					}
					samplesMu.Unlock()
				}
				if cfg.ThinkTime > 0 {
					select {
					case <-stop:
						return
					case <-time.After(cfg.ThinkTime):
					}
				}
			}
		}(c)
	}
	if cfg.Warmup > 0 {
		cfg.Clock.Sleep(cfg.Warmup)
	}
	tl = NewTimeline(cfg.Window)
	measureStart = time.Now()
	measuring.Store(true)
	cfg.Clock.Sleep(cfg.Duration)
	measuring.Store(false)
	close(stop)
	wg.Wait()
	elapsed := time.Since(measureStart)

	res := &RunResult{
		Total:         total.Load(),
		Errors:        errs.Load(),
		Timeline:      tl,
		Elapsed:       elapsed,
		ByInteraction: make(map[string]InteractionStat, len(perIx)),
	}
	for it, st := range perIx {
		out := InteractionStat{Count: st.count, Errors: st.errs}
		if st.count > 0 {
			out.AvgLatency = time.Duration(st.latSum / st.count)
		}
		res.ByInteraction[it.String()] = out
	}
	if res.Total > 0 {
		res.WIPS = float64(res.Total) / elapsed.Seconds()
		res.AvgLatency = time.Duration(latSum.Load() / res.Total)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	if len(samples) > 0 {
		res.P95Latency = samples[int(float64(len(samples))*0.95)]
	}
	return res
}

// --- reporting ----------------------------------------------------------------

// AsciiChart renders a throughput timeline as a fixed-width terminal chart
// (dmv-scheduler's workload report).
func AsciiChart(title string, series []Point, height int) string {
	if height <= 0 {
		height = 12
	}
	var maxV float64
	for _, p := range series {
		if p.Throughput > maxV {
			maxV = p.Throughput
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (peak %.1f WIPS)\n", title, maxV)
	cols := len(series)
	for row := height; row >= 1; row-- {
		threshold := maxV * float64(row) / float64(height)
		fmt.Fprintf(&b, "%8.1f |", threshold)
		for c := 0; c < cols; c++ {
			if series[c].Throughput >= threshold-1e-9 {
				b.WriteByte('#')
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString("         +")
	b.WriteString(strings.Repeat("-", cols))
	b.WriteByte('\n')
	if cols > 0 {
		b.WriteString(fmt.Sprintf("          0s%sto %.1fs\n", strings.Repeat(" ", max(0, cols-12)), series[cols-1].T))
	}
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RecoveryTime scans a timeline after a fault at tFault and returns how long
// throughput stayed below frac*baseline — the "time to restore operation at
// peak performance" metric of Section 6.3. Throughput is smoothed with a
// 4-bucket rolling mean so single-bucket noise neither hides a sustained
// degradation nor turns a seamless fail-over into a long recovery; the
// reported time is when the smoothed series last sat below the threshold.
func RecoveryTime(series []Point, window time.Duration, tFault time.Duration, baseline, frac float64) time.Duration {
	const smooth = 4
	threshold := baseline * frac
	faultIdx := int(tFault / window)
	if faultIdx >= len(series) {
		return 0
	}
	rolling := func(i int) float64 {
		sum, n := 0.0, 0
		for j := i; j < i+smooth && j < len(series); j++ {
			sum += series[j].Throughput
			n++
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	last := -1
	for i := faultIdx; i < len(series); i++ {
		if rolling(i) < threshold {
			last = i
		}
	}
	if last < 0 {
		return 0 // never degraded below the threshold
	}
	return time.Duration(last+1-faultIdx) * window
}

// Mean computes the mean throughput of a timeline slice [from, to).
func Mean(series []Point, window time.Duration, from, to time.Duration) float64 {
	i0, i1 := int(from/window), int(to/window)
	if i1 > len(series) {
		i1 = len(series)
	}
	if i0 >= i1 {
		return 0
	}
	sum := 0.0
	for i := i0; i < i1; i++ {
		sum += series[i].Throughput
	}
	return sum / float64(i1-i0)
}

// FmtDur renders a duration rounded for reports.
func FmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return d.String()
	}
}

// Speedup formats a ratio guarding against division by zero.
func Speedup(a, b float64) float64 {
	if b == 0 {
		return math.Inf(1)
	}
	return a / b
}
