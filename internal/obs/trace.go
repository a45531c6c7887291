package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanStage is one lifecycle stage inside a span, as an offset from the
// span's start (version tagging, replica selection, execution, commit...).
type SpanStage struct {
	Name   string
	Offset time.Duration
}

// Span records one transaction attempt through the DMV lifecycle. A span
// is built by a single goroutine (the one running the transaction) and
// published to the tracer's ring buffer by Finish; until then it is not
// shared and its methods take no locks. All methods no-op on a nil span,
// so tracing can stay inline and cost one branch when disabled.
type Span struct {
	ID       uint64 // assigned by the tracer at Finish (ring sequence)
	TraceID  uint64 // cluster-unique trace identifier, shared by every span of one transaction
	SpanID   uint64 // cluster-unique identifier of this span
	ParentID uint64 // SpanID of the parent span (0 for a root)
	Kind     string // "read", "update", "replica-read", "master-commit", "ws-ship", "ws-recv", "lazy-apply", ...
	Node     string // node the span was recorded on (or targets, for ws-ship)
	Start    time.Time
	Replica  string        // executing replica, once selected
	Version  string        // version vector the transaction was tagged with
	Outcome  string        // "commit", "abort", or "error"
	Cause    string        // abort cause ("version-conflict", "lock-timeout", "node-down", ...)
	Total    time.Duration // set at Finish
	Stages   []SpanStage

	tracer *Tracer
}

// TraceContext is the portable identity of a span, small enough to ride in
// every RPC argument and write-set. The zero value means "no trace".
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context carries a real trace.
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 }

// Span IDs must be unique across every process in the cluster without
// coordination, so each process mixes a start-time salt with a local
// sequence through a splitmix64 finalizer.
var (
	idSalt = uint64(time.Now().UnixNano())
	idSeq  atomic.Uint64
)

func newSpanID() uint64 {
	x := idSalt + idSeq.Add(1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1 // 0 is reserved for "no trace"
	}
	return x
}

// Context returns the span's identity for propagation to child spans on
// this or another node. Zero on a nil span.
func (sp *Span) Context() TraceContext {
	if sp == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: sp.TraceID, SpanID: sp.SpanID}
}

// SetNode records the node the span executes on.
func (sp *Span) SetNode(id string) {
	if sp == nil {
		return
	}
	sp.Node = id
}

// Mark appends a named stage at the current offset.
func (sp *Span) Mark(stage string) {
	if sp == nil {
		return
	}
	sp.Stages = append(sp.Stages, SpanStage{Name: stage, Offset: time.Since(sp.Start)})
}

// SetReplica records the replica chosen to execute the transaction.
func (sp *Span) SetReplica(id string) {
	if sp == nil {
		return
	}
	sp.Replica = id
}

// SetVersion records the version vector the transaction was tagged with.
func (sp *Span) SetVersion(v string) {
	if sp == nil {
		return
	}
	sp.Version = v
}

// Finish stamps the outcome and publishes the span to the ring buffer.
func (sp *Span) Finish(outcome, cause string) {
	if sp == nil {
		return
	}
	sp.Outcome, sp.Cause = outcome, cause
	sp.Total = time.Since(sp.Start)
	sp.tracer.record(*sp)
}

// Tracer keeps the most recent spans in a bounded ring buffer.
type Tracer struct {
	mu    sync.Mutex
	ring  []Span       // guarded by mu
	next  int          // guarded by mu
	seq   uint64       // guarded by mu
	hooks []func(Span) // guarded by mu; invoked after unlock
	drops *Counter     // ring-wrap overwrites (nil-safe; wired by Registry)
}

// NewTracer returns a tracer retaining the last capacity spans.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{ring: make([]Span, capacity)}
}

// Begin starts a root span for one transaction attempt: a fresh TraceID
// with the root's SpanID equal to it. Returns nil (and allocates nothing)
// on a nil tracer.
func (t *Tracer) Begin(kind string) *Span {
	if t == nil {
		return nil
	}
	id := newSpanID()
	return &Span{Kind: kind, TraceID: id, SpanID: id, Start: time.Now(), tracer: t}
}

// BeginChild starts a span under the given trace context, as received from
// an RPC argument or a shipped write-set. An invalid context starts a fresh
// root trace instead, so locally-initiated work still traces.
func (t *Tracer) BeginChild(kind string, tc TraceContext) *Span {
	if t == nil {
		return nil
	}
	if !tc.Valid() {
		return t.Begin(kind)
	}
	return &Span{
		Kind:     kind,
		TraceID:  tc.TraceID,
		SpanID:   newSpanID(),
		ParentID: tc.SpanID,
		Start:    time.Now(),
		tracer:   t,
	}
}

func (t *Tracer) record(sp Span) {
	sp.tracer = nil
	t.mu.Lock()
	sp.ID = t.seq
	t.seq++
	if !t.ring[t.next].Start.IsZero() {
		// The slot already holds a span: this write evicts it. Count the
		// eviction so ring wrap is visible in /metrics instead of silent.
		t.drops.Inc()
	}
	t.ring[t.next] = sp
	t.next = (t.next + 1) % len(t.ring)
	hooks := t.hooks
	t.mu.Unlock()
	for _, fn := range hooks {
		fn(sp)
	}
}

// OnSpan registers a hook invoked (outside the tracer lock) for every span
// published to the ring. Used by the flight recorder to shadow recent spans.
func (t *Tracer) OnSpan(fn func(Span)) {
	if t == nil || fn == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hooks = append(t.hooks, fn)
}

// setDrops wires the ring-eviction counter; called once by the owning
// Registry before the tracer is shared.
func (t *Tracer) setDrops(c *Counter) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.drops = c
}

// Total returns the number of spans ever recorded (including evicted ones).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Dump copies the retained spans, oldest first.
func (t *Tracer) Dump() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.ring))
	for i := 0; i < len(t.ring); i++ {
		sp := t.ring[(t.next+i)%len(t.ring)]
		if sp.Start.IsZero() {
			continue // slot never filled
		}
		out = append(out, sp)
	}
	return out
}

// LatestTraceID returns the TraceID of the most recently recorded root
// span, falling back to the newest span of any kind (0 when the ring is
// empty). Used as the default trace for the /stitch endpoint.
func (t *Tracer) LatestTraceID() uint64 {
	spans := t.Dump()
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].ParentID == 0 && spans[i].TraceID != 0 {
			return spans[i].TraceID
		}
	}
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].TraceID != 0 {
			return spans[i].TraceID
		}
	}
	return 0
}

// Stitch reassembles the causal path of one trace from an unordered span
// set (typically the concatenation of several nodes' ring dumps): spans of
// the given trace, parents before children, siblings ordered by start
// time. Spans whose parent was evicted from its ring surface as roots so
// partial traces still render.
func Stitch(spans []Span, traceID uint64) []Span {
	if traceID == 0 {
		return nil
	}
	var in []Span
	for _, sp := range spans {
		if sp.TraceID == traceID {
			in = append(in, sp)
		}
	}
	sort.Slice(in, func(i, j int) bool { return in[i].Start.Before(in[j].Start) })
	present := make(map[uint64]bool, len(in))
	children := make(map[uint64][]Span, len(in))
	for _, sp := range in {
		present[sp.SpanID] = true
	}
	var roots []Span
	for _, sp := range in {
		if sp.ParentID != 0 && present[sp.ParentID] && sp.ParentID != sp.SpanID {
			children[sp.ParentID] = append(children[sp.ParentID], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	out := make([]Span, 0, len(in))
	visited := make(map[uint64]bool, len(in))
	var walk func(sp Span)
	walk = func(sp Span) {
		if visited[sp.SpanID] {
			return
		}
		visited[sp.SpanID] = true
		out = append(out, sp)
		for _, c := range children[sp.SpanID] {
			walk(c)
		}
	}
	for _, sp := range roots {
		walk(sp)
	}
	return out
}
