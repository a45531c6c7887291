// Package obs is the cluster-wide observability subsystem: a metrics
// registry (atomic counters, gauges, and fixed-bucket log-scale histograms
// with lock-free hot paths), per-transaction trace spans in a bounded ring
// buffer, and a structured event timeline for cluster lifecycle events
// (election, fail-over stages, reintegration, checkpoints, spare warm-up).
//
// Everything is nil-safe: a nil *Registry hands out nil handles, and every
// method on a nil handle is a no-op that allocates nothing, so
// instrumentation can stay unconditionally in hot paths and cost a single
// predictable branch when observability is disabled.
//
// Metric names are registered by constant only; every name lives in
// names.go (scripts/check.sh rejects dmv_-prefixed literals anywhere else).
//
// Lock discipline: obs locks sit at the innermost band of the declared
// hierarchy (level 70, below even the version clocks), so any layer may
// record a metric or event while holding its own locks. Timeline hooks are
// invoked after the timeline lock is released for the same reason.
package obs

import (
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultTraceCap is the span ring-buffer capacity used by New.
const DefaultTraceCap = 512

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil Counter no-ops. Its API mirrors atomic.Int64 (Add/Load) so
// registry-backed counters can replace raw atomics in existing stats
// structs without touching consumers.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 for a nil Counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Load returns the current value (0 for a nil Gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry owns every metric handle plus the tracer and timeline. Handle
// lookup takes the registry mutex; the handles themselves are lock-free, so
// callers resolve names once at construction and then record through
// atomics only.
type Registry struct {
	// id names the registry in cluster views, so a merge that receives one
	// registry through several members counts it once.
	id uint64

	mu       sync.Mutex
	counters map[string]*Counter         // guarded by mu
	gauges   map[string]*Gauge           // guarded by mu
	hists    map[string]*Histogram       // guarded by mu
	funcs    map[string][]func() float64 // guarded by mu

	tracer   *Tracer
	timeline *Timeline
}

// New returns an empty registry with a random id, a tracer of
// DefaultTraceCap spans and a fresh timeline. Ring evictions in both are
// counted under dmv_obs_ring_dropped_total, labeled by ring.
func New() *Registry {
	r := &Registry{
		id:       rand.Uint64(),
		counters: make(map[string]*Counter, 32),
		gauges:   make(map[string]*Gauge, 8),
		hists:    make(map[string]*Histogram, 16),
		funcs:    make(map[string][]func() float64, 8),
		tracer:   NewTracer(DefaultTraceCap),
		timeline: NewTimeline(),
	}
	r.tracer.setDrops(r.Counter(Labeled(ObsRingDropped, "ring", "trace")))
	r.timeline.setDrops(r.Counter(Labeled(ObsRingDropped, "ring", "timeline")))
	return r
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// GaugeFunc registers a callback evaluated at snapshot time. Multiple
// callbacks under one name are summed, so per-node sources (e.g. one buffer
// cache per replica) aggregate naturally.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = append(r.funcs[name], fn)
}

// ID returns the registry's random id (0 for a nil registry).
func (r *Registry) ID() uint64 {
	if r == nil {
		return 0
	}
	return r.id
}

// Tracer returns the registry's span tracer (nil on a nil registry).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// Timeline returns the registry's event timeline (nil on a nil registry).
func (r *Registry) Timeline() *Timeline {
	if r == nil {
		return nil
	}
	return r.timeline
}

// Snapshot is a point-in-time copy of every registered metric.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistSnapshot
}

// Counter returns the snapshotted counter value (0 if absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Summary returns the quantile summary of the snapshotted histogram under
// name (the zero HistSummary if absent).
func (s Snapshot) Summary(name string) HistSummary { return s.Histograms[name].Summary() }

// Snapshot captures every metric. The handle set is frozen under the
// registry mutex; atomic values are then loaded and gauge callbacks
// evaluated with no registry lock held, so callbacks may take their own
// locks freely.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	funcs := make(map[string][]func() float64, len(r.funcs))
	for n, fs := range r.funcs {
		funcs[n] = fs
	}
	r.mu.Unlock()

	for n, c := range counters {
		snap.Counters[n] = c.Load()
	}
	for n, g := range gauges {
		snap.Gauges[n] = float64(g.Load())
	}
	for n, h := range hists {
		snap.Histograms[n] = h.Snapshot()
	}
	for n, fs := range funcs {
		total := snap.Gauges[n]
		for _, fn := range fs {
			total += fn()
		}
		snap.Gauges[n] = total
	}
	return snap
}

// sortedKeys returns map keys in lexical order (stable exposition).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
