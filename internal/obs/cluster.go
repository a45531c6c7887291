package obs

import (
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"
)

// NodeSnapshot is one node's registry snapshot plus the identity and DMV
// version state needed to compute staleness against the cluster frontier.
// It is what the ObsSnapshot RPC ships from replica to scheduler.
type NodeSnapshot struct {
	Registry    uint64 // the ID of the registry Snap and Spans come from
	Node        string
	Role        string
	StartUnix   int64
	Applied     []uint64 // per-table versions fully materialized into pages
	MaxVer      []uint64 // per-table versions received (eager propagation frontier)
	PendingMods int      // buffered row mods not yet applied
	Snap        Snapshot
	Spans       []Span // the node's trace ring, for cluster-wide stitching
}

// NodeLag is one node's staleness entry inside a ClusterSnapshot.
type NodeLag struct {
	Node        string
	Role        string // "down" when the node did not answer
	StartUnix   int64
	Lag         []uint64 // per-table: frontier version minus applied version
	PendingMods int
	// Health is the failure detector's current verdict for the node
	// ("healthy", "suspect", or "dead"); empty when no detector runs.
	// Filled in by the control plane, not by MergeSnapshots: suspicion
	// state lives in the plane's detector, not on the node.
	Health string
}

// ClusterSnapshot is the merged view the scheduler serves at /cluster: the
// commit frontier, per-node staleness, and one summed metric snapshot.
type ClusterSnapshot struct {
	TakenUnix int64
	Frontier  []uint64 // elementwise max of every node's MaxVer (and the scheduler's own view)
	Nodes     []NodeLag
	Merged    Snapshot
	Spans     []Span // concatenated trace rings of every registry, for stitching
}

// MergeSnapshots folds snapshots into one cluster view. The frontier is the
// elementwise max over every node's MaxVer and the given floor (the
// scheduler's merged version vector); each node's lag is frontier minus its
// Applied vector, clamped at zero. A snapshot with no Node (a scheduler's
// own registry) adds its metrics and spans but no node row. Counters,
// gauges and histogram buckets sum over registries, and each registry
// counts once: members that share one (the in-process tier's nodes and
// plane) carry the same Registry id, and only the first of them adds its
// metrics and spans. Registry 0 names no registry and always adds.
//
// The first registry's snapshot becomes the merged one as it is, maps and
// spans shared with the input, and is copied only when a second registry
// adds to it: an in-process tier's view copies no metric. Neither the
// input nor the result is written once merged.
func MergeSnapshots(nodes []NodeSnapshot, floor []uint64) ClusterSnapshot {
	cs := ClusterSnapshot{
		TakenUnix: time.Now().Unix(),
		Frontier:  append([]uint64(nil), floor...),
		Nodes:     make([]NodeLag, 0, len(nodes)),
	}
	for _, ns := range nodes {
		for i, v := range ns.MaxVer {
			for len(cs.Frontier) <= i {
				cs.Frontier = append(cs.Frontier, 0)
			}
			if v > cs.Frontier[i] {
				cs.Frontier[i] = v
			}
		}
	}
	lags := make([]uint64, len(nodes)*len(cs.Frontier)) // every node row's Lag
	var seen []uint64                                   // the registries counted
	for _, ns := range nodes {
		if ns.Node != "" {
			lag := lags[:len(cs.Frontier):len(cs.Frontier)]
			lags = lags[len(cs.Frontier):]
			for i := range cs.Frontier {
				applied := uint64(0)
				if i < len(ns.Applied) {
					applied = ns.Applied[i]
				}
				if cs.Frontier[i] > applied {
					lag[i] = cs.Frontier[i] - applied
				}
			}
			cs.Nodes = append(cs.Nodes, NodeLag{
				Node:        ns.Node,
				Role:        ns.Role,
				StartUnix:   ns.StartUnix,
				Lag:         lag,
				PendingMods: ns.PendingMods,
			})
		}
		if ns.Registry != 0 && slices.Contains(seen, ns.Registry) {
			continue
		}
		seen = append(seen, ns.Registry)
		if len(seen) == 1 {
			cs.Merged, cs.Spans = ns.Snap, slices.Clip(ns.Spans)
			continue
		}
		if len(seen) == 2 {
			cs.Merged = cs.Merged.clone() // the first snapshot's maps stay unwritten
		}
		cs.Merged.add(ns.Snap)
		cs.Spans = append(cs.Spans, ns.Spans...)
	}
	if cs.Merged.Counters == nil || cs.Merged.Gauges == nil || cs.Merged.Histograms == nil {
		cs.Merged = cs.Merged.clone()
	}
	slices.SortFunc(cs.Nodes, func(a, b NodeLag) int { return strings.Compare(a.Node, b.Node) })
	return cs
}

// clone copies s into maps a merge may write (nil maps become empty ones).
func (s Snapshot) clone() Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Histograms: make(map[string]HistSnapshot, len(s.Histograms)),
	}
	maps.Copy(out.Counters, s.Counters)
	maps.Copy(out.Gauges, s.Gauges)
	maps.Copy(out.Histograms, s.Histograms)
	return out
}

// add sums o's counters, gauges and histogram buckets into s's maps.
func (s Snapshot) add(o Snapshot) {
	for n, v := range o.Counters {
		s.Counters[n] += v
	}
	for n, v := range o.Gauges {
		s.Gauges[n] += v
	}
	for n, h := range o.Histograms {
		s.Histograms[n] = s.Histograms[n].Merge(h)
	}
}

// Aggregator caches the latest cluster snapshot between scrape rounds so
// the /cluster endpoint never blocks on the network.
type Aggregator struct {
	mu  sync.Mutex
	cur ClusterSnapshot // guarded by mu
}

// Update replaces the cached snapshot.
func (a *Aggregator) Update(cs ClusterSnapshot) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cur = cs
}

// Current returns the most recently cached snapshot.
func (a *Aggregator) Current() ClusterSnapshot {
	if a == nil {
		return ClusterSnapshot{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cur
}

// Labeled renders a metric name with Prometheus-style labels from
// alternating key/value pairs: Labeled(n, "node", "a") -> `n{node="a"}`.
// Keeping the base name a names.go constant preserves the grep-lint.
func Labeled(name string, kv ...string) string {
	if len(kv) < 2 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(kv[i+1])
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// RegisterIdentity publishes the static self-labeling metrics every daemon
// exposes: a build-info gauge carrying the Go runtime version and a
// start-time gauge, both labeled with the node id.
func RegisterIdentity(r *Registry, node string, start time.Time) {
	if r == nil {
		return
	}
	r.Gauge(Labeled(BuildInfo, "go", runtime.Version(), "node", node)).Set(1)
	r.Gauge(Labeled(NodeStartTime, "node", node)).Set(start.Unix())
}

// HealthValue maps a failure-detector state to the dmv_cluster_node_health
// gauge encoding.
func HealthValue(state string) int64 {
	switch state {
	case "suspect":
		return 1
	case "dead":
		return 2
	default: // healthy
		return 0
	}
}

// RoleValue maps a role string to the dmv_node_role gauge encoding.
func RoleValue(role string) int64 {
	switch role {
	case "master":
		return 1
	case "joining":
		return 2
	case "spare":
		return 3
	default: // slave
		return 0
	}
}
