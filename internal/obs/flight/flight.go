// Package flight is the always-on flight recorder: every node (and the
// scheduler) keeps a bounded, clock-stamped ring of recent trace spans,
// timeline events, metric-snapshot deltas, and node-health transitions.
// When an anomaly trigger fires — fail-over start, suspicion escalation,
// backend quarantine, a WAL sticky-fatal, ErrCommitUncertain — the recorder
// freezes its ring, gathers peer rings over the (deadline-bounded)
// Peer.FlightDump RPC, and writes one cluster-wide dump durably via
// wal.WriteFileDurable with a versioned, byte-stable JSON schema that
// cmd/dmv-doctor renders post mortem.
//
// The recorder is nil-safe throughout: a nil *Recorder no-ops on every
// method, so subsystems can thread an optional recorder unconditionally.
// The clock is injectable so seeded chaos runs produce deterministic dumps.
//
// Lock discipline: Recorder.mu and Recorder.peersMu sit in the obs band
// (level 70, innermost), so Trigger/Record* may be called while holding any
// subsystem lock. Dump assembly — which calls obs.Registry.Snapshot (level
// 10, gauge callbacks may take cluster locks) and peer RPCs — runs only on
// the recorder's own worker goroutine with no recorder lock held.
package flight

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dmv/internal/obs"
	"dmv/internal/wal"
)

// Ring entry kinds.
const (
	KindSpan    = "span"    // a trace span published to the obs tracer
	KindEvent   = "event"   // a timeline lifecycle event
	KindDelta   = "delta"   // counter deltas observed by the runtime sampler
	KindHealth  = "health"  // a failure-detector health transition
	KindTrigger = "trigger" // an anomaly trigger (also enqueues a dump)
)

// Anomaly trigger causes. These are the tokens dmv-doctor keys its causal
// analysis on; dump filenames embed them, so keep them path-safe.
const (
	CauseFailover        = "failover-start"       // fail-over began (cluster monitor or scheduler)
	CauseSuspicion       = "suspicion-escalation" // failure detector moved a node healthy->suspect
	CauseQuarantine      = "backend-quarantine"   // persistence tier quarantined a diverging backend
	CauseWALFatal        = "wal-sticky-fatal"     // WAL entered its sticky-fatal state (fsync failure)
	CauseCommitUncertain = "commit-uncertain"     // TxCommit outcome unknown (peer timeout mid-commit)
	CauseOverload        = "sustained-overload"   // admission control entered CoDel shed mode
	CauseDivergence      = "replica-divergence"   // anti-entropy scrub found a replica whose digest differs from the master
)

// EventDumpFailed is the timeline event recorded when a dump could not be
// written; its detail names the path and the error.
const EventDumpFailed = "flight-dump-failed"

// Defaults.
const (
	DefaultRingCap  = 256             // retained ring entries per recorder
	DefaultCooldown = 5 * time.Second // minimum spacing between dumps of one cause
	triggerQueue    = 8               // pending-trigger buffer before suppression
)

// Peer is a remote node the recorder can gather a ring from at dump time.
// transport.RemoteNode implements it; FlightDump must be deadline-bounded
// (the transport client enforces its CallTimeout on every call).
type Peer interface {
	ID() string
	FlightDump() (NodeDump, error)
}

// Options configures a Recorder.
type Options struct {
	Node     string           // node id stamped on entries and dumps
	Reg      *obs.Registry    // metrics + span/event sources (nil: recorder still rings, no auto capture)
	Dir      string           // dump directory; "" = record-only, never writes
	FS       wal.FS           // filesystem for durable dump writes (nil: wal.OsFS)
	RingCap  int              // retained entries (0: DefaultRingCap)
	Cooldown time.Duration    // per-cause dump spacing (0: DefaultCooldown)
	Now      func() time.Time // injectable clock (nil: time.Now)
	// OnDump is invoked after each dump is assembled (and durably written
	// unless Dir is empty, in which case path is ""). Test hook.
	OnDump func(path string, d Dump)
}

// Recorder is one node's flight recorder. All exported methods are safe for
// concurrent use and no-op on a nil receiver.
type Recorder struct {
	node     string
	reg      *obs.Registry
	dir      string
	fs       wal.FS
	now      func() time.Time
	cooldown time.Duration
	onDump   func(string, Dump)

	// Pre-resolved metric handles (atomic; safe under any lock).
	triggers   *obs.Counter
	suppressed *obs.Counter
	dumps      *obs.Counter
	peerErrs   *obs.Counter
	drops      *obs.Counter

	mu       sync.Mutex
	ring     []Entry              // guarded by mu; grows to ringCap then wraps
	next     int                  // guarded by mu; overwrite cursor once at cap
	seq      uint64               // guarded by mu; entries ever recorded
	dropped  uint64               // guarded by mu; entries evicted by wrap
	ringCap  int                  // immutable after New
	dumpSeq  uint64               // guarded by mu; dump filename sequence
	lastDump map[string]time.Time // guarded by mu; per-cause last admit time
	lastRT   RuntimeSample        // guarded by mu; latest runtime sample
	prevCtr  map[string]int64     // guarded by mu; previous counter snapshot for deltas
	prevGC   []uint64             // guarded by mu; previous GC-pause bucket counts

	peersMu sync.Mutex
	peers   []Peer // guarded by peersMu

	trigCh    chan Trigger
	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New builds a recorder, subscribes it to the registry's tracer and
// timeline, and starts its dump worker. Call Close to flush pending
// triggers and stop the worker.
func New(o Options) *Recorder {
	r := &Recorder{
		node:     o.Node,
		reg:      o.Reg,
		dir:      o.Dir,
		fs:       o.FS,
		now:      o.Now,
		cooldown: o.Cooldown,
		onDump:   o.OnDump,
		ringCap:  o.RingCap,
		lastDump: make(map[string]time.Time, 4),
		trigCh:   make(chan Trigger, triggerQueue),
		stop:     make(chan struct{}),
	}
	if r.ringCap <= 0 {
		r.ringCap = DefaultRingCap
	}
	if r.cooldown <= 0 {
		r.cooldown = DefaultCooldown
	}
	if r.now == nil {
		r.now = time.Now
	}
	if r.fs == nil {
		r.fs = wal.OsFS{}
	}
	if o.Reg != nil {
		r.triggers = o.Reg.Counter(obs.FlightTriggers)
		r.suppressed = o.Reg.Counter(obs.FlightSuppressed)
		r.dumps = o.Reg.Counter(obs.Labeled(obs.FlightDumps, "node", r.node))
		r.peerErrs = o.Reg.Counter(obs.FlightPeerErrors)
		r.drops = o.Reg.Counter(obs.Labeled(obs.ObsRingDropped, "ring", "flight"))
		o.Reg.Tracer().OnSpan(r.RecordSpan)
		o.Reg.Timeline().OnEvent(r.RecordEvent)
	}
	r.wg.Add(1)
	go r.worker()
	return r
}

// SetPeers installs the peer set gathered into cluster-wide dumps.
func (r *Recorder) SetPeers(peers []Peer) {
	if r == nil {
		return
	}
	r.peersMu.Lock()
	defer r.peersMu.Unlock()
	r.peers = append([]Peer(nil), peers...)
}

// Close drains pending triggers (writing their dumps) and stops the worker
// and sampler goroutines. Idempotent.
func (r *Recorder) Close() {
	if r == nil {
		return
	}
	r.closeOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// add stamps and appends one entry to the ring, evicting (and counting) the
// oldest entry once the ring is full. Safe under any caller lock: only
// Recorder.mu (level 70) and atomic counters are touched.
func (r *Recorder) add(e Entry) {
	r.mu.Lock()
	e.Seq = r.seq
	r.seq++
	if e.TS == 0 {
		e.TS = r.now().UnixNano()
	}
	if len(r.ring) < r.ringCap {
		r.ring = append(r.ring, e)
	} else {
		r.dropped++
		r.drops.Inc()
		r.ring[r.next] = e
		r.next = (r.next + 1) % r.ringCap
	}
	r.mu.Unlock()
}

// RecordSpan shadows a finished trace span into the ring. Wired to
// obs.Tracer.OnSpan by New; exported so tests can script deterministic
// span streams directly.
func (r *Recorder) RecordSpan(sp obs.Span) {
	if r == nil {
		return
	}
	r.add(Entry{Kind: KindSpan, Node: sp.Node, Span: &sp})
}

// RecordEvent shadows a timeline event into the ring. Wired to
// obs.Timeline.OnEvent by New.
func (r *Recorder) RecordEvent(ev obs.Event) {
	if r == nil {
		return
	}
	r.add(Entry{Kind: KindEvent, Node: ev.Node, Event: &ev})
}

// RecordHealth records a failure-detector health transition for node.
func (r *Recorder) RecordHealth(node, from, to string) {
	if r == nil {
		return
	}
	r.add(Entry{Kind: KindHealth, Node: node, Health: &HealthTransition{Node: node, From: from, To: to}})
}

// Trigger reports an anomaly: the trigger is recorded in the ring and a
// cluster-wide dump is enqueued (asynchronously, so Trigger is safe to call
// from any lock context — it touches only the recorder's own innermost-band
// state). A full queue suppresses the dump, never blocks the caller.
func (r *Recorder) Trigger(cause, node, detail string) {
	if r == nil {
		return
	}
	t := Trigger{Cause: cause, Node: node, Detail: detail, TS: r.now().UnixNano()}
	r.add(Entry{Kind: KindTrigger, Node: node, Cause: cause, Detail: detail, TS: t.TS})
	select {
	case r.trigCh <- t:
		r.triggers.Inc()
	default:
		r.suppressed.Inc()
	}
}

// Entries returns a copy of the retained ring, oldest first.
func (r *Recorder) Entries() []Entry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retainedLocked()
}

func (r *Recorder) retainedLocked() []Entry {
	out := make([]Entry, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// Stats reports entries ever recorded and entries evicted by ring wrap.
func (r *Recorder) Stats() (total, dropped uint64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq, r.dropped
}

// NodeDump freezes this node's ring into a dump fragment: retained entries,
// a full metric snapshot, the latest runtime sample, and the eviction
// count. Called locally at dump time and remotely via the FlightDump RPC.
// Must not be called while holding the recorder's own locks (the registry
// snapshot evaluates gauge callbacks that may take subsystem locks).
func (r *Recorder) NodeDump() NodeDump {
	if r == nil {
		return NodeDump{}
	}
	r.mu.Lock()
	entries := r.retainedLocked()
	dropped := r.dropped
	rt := r.lastRT
	r.mu.Unlock()
	return NodeDump{
		Node:    r.node,
		Entries: entries,
		Metrics: r.reg.Snapshot(),
		Runtime: rt,
		Dropped: dropped,
	}
}

// worker serializes dump production: admit (per-cause cooldown), capture
// local state, gather peers, write durably. On Close it drains whatever is
// already queued so tests observe every admitted dump.
func (r *Recorder) worker() {
	defer r.wg.Done()
	for {
		select {
		case t := <-r.trigCh:
			r.handle(t)
		case <-r.stop:
			for {
				select {
				case t := <-r.trigCh:
					r.handle(t)
				default:
					return
				}
			}
		}
	}
}

// handle admits one trigger against the per-cause cooldown and produces its
// dump.
func (r *Recorder) handle(t Trigger) {
	now := r.now()
	r.mu.Lock()
	if last, ok := r.lastDump[t.Cause]; ok && now.Sub(last) < r.cooldown {
		r.mu.Unlock()
		r.suppressed.Inc()
		return
	}
	r.lastDump[t.Cause] = now
	r.dumpSeq++
	seq := r.dumpSeq
	r.mu.Unlock()

	start := r.now()
	local := r.NodeDump()

	r.peersMu.Lock()
	peers := append([]Peer(nil), r.peers...)
	r.peersMu.Unlock()

	nodes := []NodeDump{local}
	seen := map[string]bool{local.Node: true}
	var peerErrs []string
	for _, p := range peers {
		pd, err := p.FlightDump()
		if err != nil {
			r.peerErrs.Inc()
			peerErrs = append(peerErrs, fmt.Sprintf("%s: %v", p.ID(), err))
			continue
		}
		if pd.Node == "" || seen[pd.Node] {
			continue
		}
		seen[pd.Node] = true
		nodes = append(nodes, pd)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Node < nodes[j].Node })
	sort.Strings(peerErrs)

	d := Dump{
		Schema:  SchemaVersion,
		Trigger: t,
		Nodes:   nodes,
		Meta: Meta{
			WrittenUnixNano: r.now().UnixNano(),
			Origin:          r.node,
			GatherUS:        r.now().Sub(start).Microseconds(),
			PeerErrors:      peerErrs,
		},
	}

	path := ""
	if r.dir != "" {
		path = filepath.Join(r.dir, fmt.Sprintf("flight-%06d-%s.json", seq, t.Cause))
		if err := r.write(path, d); err != nil {
			r.reg.Timeline().Record(obs.Event{Kind: EventDumpFailed, Node: r.node, Detail: fmt.Sprintf("%s: %v", path, err)})
			path = ""
		} else {
			r.dumps.Inc()
		}
	}
	if r.onDump != nil {
		r.onDump(path, d)
	}
}

func (r *Recorder) write(path string, d Dump) error {
	blob, err := Marshal(d)
	if err != nil {
		return err
	}
	if err := r.fs.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return wal.WriteFileDurable(r.fs, path, blob)
}
