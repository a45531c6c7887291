package flight

import (
	"math"
	"time"

	"runtime/metrics"

	"dmv/internal/obs"
)

// RuntimeSample is one point-in-time runtime-health reading, captured via
// runtime/metrics and embedded in every NodeDump so a post-mortem sees the
// process state (goroutine pileup, heap growth, GC stalls, scheduler
// starvation) around the anomaly.
type RuntimeSample struct {
	Goroutines    int64
	HeapBytes     int64 // live heap object bytes
	GCPauseLastUS int64 // most recent GC stop-the-world pause
	SchedLatP99US int64 // p99 goroutine scheduling latency
}

// runtime/metrics sample names read by the sampler.
const (
	rmGoroutines = "/sched/goroutines:goroutines"
	rmHeapBytes  = "/memory/classes/heap/objects:bytes"
	rmGCPauses   = "/gc/pauses:seconds"
	rmSchedLat   = "/sched/latencies:seconds"
)

// SampleRuntime takes one runtime-health reading: it updates the
// node-labeled dmv_runtime_* gauges, records a metric-delta ring entry
// for counters that moved since the previous sample, and retains the sample
// for the next NodeDump. Exported (rather than only looping inside
// StartSampler) so tests can step it deterministically.
//
// Must not be called while holding any recorder or subsystem lock: it
// snapshots the registry, which evaluates gauge callbacks.
func (r *Recorder) SampleRuntime() RuntimeSample {
	if r == nil {
		return RuntimeSample{}
	}
	samples := []metrics.Sample{
		{Name: rmGoroutines},
		{Name: rmHeapBytes},
		{Name: rmGCPauses},
		{Name: rmSchedLat},
	}
	metrics.Read(samples)

	var rt RuntimeSample
	if samples[0].Value.Kind() == metrics.KindUint64 {
		rt.Goroutines = int64(samples[0].Value.Uint64())
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		rt.HeapBytes = int64(samples[1].Value.Uint64())
	}
	if samples[2].Value.Kind() == metrics.KindFloat64Histogram {
		rt.GCPauseLastUS = r.newestPauseUS(samples[2].Value.Float64Histogram())
	}
	if samples[3].Value.Kind() == metrics.KindFloat64Histogram {
		rt.SchedLatP99US = histQuantileUS(samples[3].Value.Float64Histogram(), 0.99)
	}
	if rt.GCPauseLastUS == 0 {
		// No new pause this sample: keep exposing the last known pause.
		r.mu.Lock()
		rt.GCPauseLastUS = r.lastRT.GCPauseLastUS
		r.mu.Unlock()
	}

	// Counter deltas vs the previous sample become one ring entry, so a
	// dump shows which counters were moving in the window before the
	// anomaly. The snapshot is taken with no recorder lock held.
	var deltas map[string]int64
	var counters map[string]int64
	if r.reg != nil {
		counters = r.reg.Snapshot().Counters
	}

	if r.reg != nil {
		r.reg.Gauge(obs.Labeled(obs.RuntimeGoroutines, "node", r.node)).Set(rt.Goroutines)
		r.reg.Gauge(obs.Labeled(obs.RuntimeHeapBytes, "node", r.node)).Set(rt.HeapBytes)
		r.reg.Gauge(obs.Labeled(obs.RuntimeGCPauseLastUS, "node", r.node)).Set(rt.GCPauseLastUS)
	}

	r.mu.Lock()
	r.lastRT = rt
	if counters != nil {
		if r.prevCtr != nil {
			for name, v := range counters {
				if d := v - r.prevCtr[name]; d != 0 {
					if deltas == nil {
						deltas = make(map[string]int64, 8)
					}
					deltas[name] = d
				}
			}
		}
		r.prevCtr = counters
	}
	r.mu.Unlock()

	if deltas != nil {
		r.add(Entry{Kind: KindDelta, Node: r.node, Deltas: deltas})
	}
	return rt
}

// newestPauseUS returns the largest GC pause that appeared since the
// previous sample, in µs (0 when none). The runtime only exposes a
// histogram, so a pause is approximated by its bucket's upper bound.
func (r *Recorder) newestPauseUS(h *metrics.Float64Histogram) int64 {
	r.mu.Lock()
	prev := r.prevGC
	if len(prev) != len(h.Counts) {
		prev = nil // first sample or runtime changed bucketing: baseline only
	}
	r.prevGC = append([]uint64(nil), h.Counts...)
	r.mu.Unlock()
	if prev == nil {
		return 0
	}
	var last int64
	for i, c := range h.Counts {
		if c > prev[i] {
			last = max(last, bucketUpperUS(h.Buckets, i))
		}
	}
	return last
}

// histQuantileUS computes the q-quantile of a runtime/metrics histogram in
// microseconds, taking each bucket at its upper bound.
func histQuantileUS(h *metrics.Float64Histogram, q float64) int64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var acc uint64
	for i, c := range h.Counts {
		acc += c
		if acc >= target {
			return bucketUpperUS(h.Buckets, i)
		}
	}
	return bucketUpperUS(h.Buckets, len(h.Counts)-1)
}

// bucketUpperUS returns bucket i's upper bound in µs, falling back to the
// finite lower bound when the upper edge is +Inf.
func bucketUpperUS(buckets []float64, i int) int64 {
	// Bucket i spans [buckets[i], buckets[i+1]).
	up := math.Inf(1)
	if i+1 < len(buckets) {
		up = buckets[i+1]
	}
	if math.IsInf(up, 1) && i < len(buckets) && !math.IsInf(buckets[i], -1) {
		up = buckets[i]
	}
	if math.IsInf(up, 1) || math.IsInf(up, -1) || math.IsNaN(up) {
		return 0
	}
	return int64(up * 1e6)
}

// StartSampler launches the periodic runtime-health sampler; it stops when
// the recorder is closed.
func (r *Recorder) StartSampler(every time.Duration) {
	if r == nil {
		return
	}
	if every <= 0 {
		every = time.Second
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				r.SampleRuntime()
			case <-r.stop:
				return
			}
		}
	}()
}
