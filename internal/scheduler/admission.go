package scheduler

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dmv/internal/obs"
	"dmv/internal/obs/flight"
	"dmv/internal/replica"
)

// ErrOverloaded reports a transaction fast-rejected by admission control:
// either CoDel shed mode is active or the class's bounded queue is full.
// The concrete error is an *OverloadError carrying a seeded-jitter
// retry-after hint; match with errors.Is(err, ErrOverloaded).
var ErrOverloaded = errors.New("scheduler: overloaded, transaction rejected by admission control")

// OverloadError is the concrete fast-reject error. RetryAfter is a
// jittered backoff hint drawn from the scheduler's seeded RNG so a fleet
// of rejected clients does not retry in lockstep and re-create the burst
// that caused the shed.
type OverloadError struct {
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("scheduler: overloaded, retry after %s", e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// AdmissionOptions configure the bounded admission queue in front of
// transaction begin. The zero value disables admission control entirely
// (Slots <= 0), preserving the historical unbounded behavior.
type AdmissionOptions struct {
	// Slots is the number of concurrently admitted transactions per
	// admission class (one class per conflict class for updates, plus one
	// shared read-only class). <= 0 disables admission control.
	Slots int
	// QueueCap bounds the waiters queued per class beyond the slots;
	// arrivals past it are fast-rejected. Default 4x Slots.
	QueueCap int
	// TargetSojourn is the CoDel target: the queue is healthy while
	// admitted transactions waited less than this. Default 5ms.
	TargetSojourn time.Duration
	// Interval is how long sojourn must stay above target before shed mode
	// engages — CoDel sheds on sustained standing queues, never on an
	// instantaneous depth spike. Default 100ms.
	Interval time.Duration
}

func (o AdmissionOptions) withDefaults() AdmissionOptions {
	if o.QueueCap <= 0 {
		o.QueueCap = 4 * o.Slots
	}
	if o.TargetSojourn <= 0 {
		o.TargetSojourn = 5 * time.Millisecond
	}
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	return o
}

// codel is the Admitter's controlled-delay shed law as a pure state
// machine: feed it queue-sojourn observations with explicit timestamps and
// it decides when to enter and leave shed mode. It never reads the wall
// clock itself, so a test can drive it on any clock.
//
// Entry: sojourn stays at or above Target for a full Interval with no
// below-target observation in between. Exit (hysteresis): one observation
// below Target/2, or the queue draining empty. Not safe for concurrent use;
// the Admitter serializes access under its mutex.
type codel struct {
	Target   time.Duration
	Interval time.Duration

	firstAbove time.Time // start of the current above-target run (zero = none)
	shedding   bool
}

// Observe feeds one head-of-queue sojourn measured at now and returns
// whether shed mode is active after the observation.
func (c *codel) Observe(sojourn time.Duration, now time.Time) bool {
	if c.shedding {
		if sojourn < c.Target/2 {
			c.shedding = false
			c.firstAbove = time.Time{}
		}
		return c.shedding
	}
	if sojourn < c.Target {
		c.firstAbove = time.Time{}
		return false
	}
	if c.firstAbove.IsZero() {
		c.firstAbove = now
		return false
	}
	if now.Sub(c.firstAbove) >= c.Interval {
		c.shedding = true
	}
	return c.shedding
}

// OnEmpty reports that every queue drained: a standing queue cannot exist
// without members, so shed mode ends.
func (c *codel) OnEmpty() {
	c.shedding = false
	c.firstAbove = time.Time{}
}

// Shedding reports whether shed mode is active.
func (c *codel) Shedding() bool { return c.shedding }

// admitWaiter is one arrival parked in a class queue.
type admitWaiter struct {
	ready chan struct{} // closed by the releaser once a slot is assigned
	enq   time.Time

	granted bool // guarded by Admitter.mu; slot assigned before ready closed
}

// admitClass tracks one admission class's occupancy.
type admitClass struct {
	inflight int            // guarded by Admitter.mu; admitted, not yet released
	queue    []*admitWaiter // guarded by Admitter.mu; FIFO waiters
}

// Admitter is the bounded admission queue in front of transaction begin:
// per-class occupancy slots, a bounded FIFO of waiters per class, and one
// CoDel law deciding when to shed. All shared state lives under mu;
// the flight trigger and timeline event for shed transitions fire after
// unlock (they cross into other subsystems).
type Admitter struct {
	opts      AdmissionOptions
	tl        *obs.Timeline
	flight    *flight.Recorder
	admitted  *obs.Counter
	shed      *obs.Counter
	abandoned *obs.Counter
	depth     *obs.Gauge
	shedGauge *obs.Gauge
	sojournUS *obs.Histogram

	mu      sync.Mutex
	classes []admitClass // slice header immutable after construction; element fields carry their own guards
	codel   codel        // guarded by mu
	rng     *rand.Rand   // guarded by mu; retry-after jitter
}

// newAdmitter builds the admission queue for numClasses update classes plus
// one read-only class (class index numClasses).
func newAdmitter(opts AdmissionOptions, numClasses int, seed int64, reg *obs.Registry, tl *obs.Timeline, rec *flight.Recorder) *Admitter {
	opts = opts.withDefaults()
	return &Admitter{
		opts:      opts,
		tl:        tl,
		flight:    rec,
		admitted:  reg.Counter(obs.SchedAdmitAdmitted),
		shed:      reg.Counter(obs.SchedAdmitShed),
		abandoned: reg.Counter(obs.SchedDeadlineAbandoned),
		depth:     reg.Gauge(obs.SchedAdmitQueueDepth),
		shedGauge: reg.Gauge(obs.SchedAdmitShedding),
		sojournUS: reg.Histogram(obs.SchedAdmitSojournUS),
		classes:   make([]admitClass, numClasses+1),
		codel:     codel{Target: opts.TargetSojourn, Interval: opts.Interval},
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// readClass is the admission class shared by every read-only transaction.
func (a *Admitter) readClass() int { return len(a.classes) - 1 }

// retryAfterLocked draws the jittered backoff hint: uniform in
// [4x target, 8x target) so rejected clients spread out over a couple of
// queue-drain periods instead of synchronizing. Must hold a.mu.
func (a *Admitter) retryAfterLocked() time.Duration {
	base := 4 * a.opts.TargetSojourn
	return base + time.Duration(a.rng.Float64()*float64(base))
}

// queuedLocked is the total waiter count across classes. Must hold a.mu.
func (a *Admitter) queuedLocked() int {
	n := 0
	for i := range a.classes {
		n += len(a.classes[i].queue)
	}
	return n
}

// observeLocked feeds the CoDel law and reports a shed-state transition:
// +1 entered shedding, -1 left it, 0 no change. Must hold a.mu.
func (a *Admitter) observeLocked(sojourn time.Duration, now time.Time) int {
	before := a.codel.Shedding()
	after := a.codel.Observe(sojourn, now)
	switch {
	case !before && after:
		return 1
	case before && !after:
		return -1
	default:
		return 0
	}
}

// announce publishes a shed-state transition (from observeLocked) to the
// gauge, the timeline, and — on entry — the flight recorder. Must be called
// after a.mu is released: the recorder and timeline hooks cross subsystem
// boundaries.
func (a *Admitter) announce(transition int, detail string) {
	switch transition {
	case 1:
		a.shedGauge.Set(1)
		a.tl.Record(obs.Event{Kind: "admission-shed", Node: "scheduler", Detail: detail})
		a.flight.Trigger(flight.CauseOverload, "scheduler", detail)
	case -1:
		a.shedGauge.Set(0)
		a.tl.Record(obs.Event{Kind: "admission-recovered", Node: "scheduler", Detail: detail})
	}
}

// Admit gates one transaction of the given admission class. It returns a
// release closure the caller must invoke exactly once when the transaction
// finishes (commit, rollback, or begin failure). deadline, when non-zero,
// bounds the queue wait: a waiter still queued at its deadline is abandoned
// with replica.ErrDeadlineExpired. Overload rejects — shed mode or a full
// queue — return *OverloadError immediately, without queueing.
func (a *Admitter) Admit(class int, deadline time.Time) (func(), error) {
	if class < 0 || class >= len(a.classes) {
		class = 0
	}
	now := time.Now()
	a.mu.Lock()
	out := a.admitLocked(class, now)
	a.mu.Unlock()
	switch {
	case out.retryAfter > 0:
		a.shed.Inc()
		return nil, &OverloadError{RetryAfter: out.retryAfter}
	case out.w == nil:
		a.admitted.Inc()
		a.sojournUS.Observe(0)
		a.announce(out.transition, "fast-path admit")
		return a.releaseFn(class), nil
	}
	a.depth.Set(int64(out.depth))

	var timeout <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-out.w.ready:
		// The releaser assigned the slot, observed the sojourn, and
		// updated the depth gauge before closing the channel.
		a.admitted.Inc()
		return a.releaseFn(class), nil
	case <-timeout:
		a.mu.Lock()
		kept, depth := a.abandonLocked(class, out.w)
		a.mu.Unlock()
		if kept {
			// Lost the race: the slot arrived as the deadline fired. Keep
			// it — the caller's own deadline checks abandon downstream.
			a.admitted.Inc()
			return a.releaseFn(class), nil
		}
		a.depth.Set(int64(depth))
		a.abandoned.Inc()
		return nil, fmt.Errorf("%w: abandoned in admission queue", replica.ErrDeadlineExpired)
	}
}

// admitOutcome is the decision admitLocked reaches under a.mu: a reject
// with a retry-after hint, a fast-path admit (w nil, retryAfter 0), or an
// enqueued waiter.
type admitOutcome struct {
	retryAfter time.Duration // > 0: shed-mode or queue-full reject
	w          *admitWaiter  // non-nil: enqueued, wait on w.ready
	transition int           // fast path only: CoDel shed-state transition
	depth      int           // enqueue only: resulting total queue depth
}

// admitLocked applies the admission law for one arrival. Must hold a.mu.
func (a *Admitter) admitLocked(class int, now time.Time) (out admitOutcome) {
	if a.codel.Shedding() {
		out.retryAfter = a.retryAfterLocked()
		return out
	}
	c := &a.classes[class]
	if c.inflight < a.opts.Slots {
		c.inflight++
		out.transition = a.observeLocked(0, now)
		return out
	}
	if len(c.queue) >= a.opts.QueueCap {
		out.retryAfter = a.retryAfterLocked()
		return out
	}
	out.w = &admitWaiter{ready: make(chan struct{}), enq: now}
	c.queue = append(c.queue, out.w)
	out.depth = a.queuedLocked()
	return out
}

// abandonLocked resolves the grant-vs-deadline race for a timed-out waiter:
// if a releaser already granted the slot it is kept, otherwise the waiter
// is removed from its class queue. Must hold a.mu.
func (a *Admitter) abandonLocked(class int, w *admitWaiter) (kept bool, depth int) {
	if w.granted {
		return true, 0
	}
	c := &a.classes[class]
	for i, q := range c.queue {
		if q == w {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			break
		}
	}
	return false, a.queuedLocked()
}

// releaseFn returns the once-only release closure for one admitted
// transaction of the given class.
func (a *Admitter) releaseFn(class int) func() {
	var once sync.Once
	return func() { once.Do(func() { a.release(class) }) }
}

// release frees one slot and hands it to the class's oldest waiter, feeding
// the waiter's sojourn into the CoDel law. Head-of-queue sojourn is exactly
// CoDel's controlled signal: how long the oldest queued arrival stood.
func (a *Admitter) release(class int) {
	now := time.Now()
	a.mu.Lock()
	granted, sojourns, transition, depth := a.grantLocked(class, now)
	a.mu.Unlock()

	a.depth.Set(int64(depth))
	for i, w := range granted {
		a.sojournUS.Observe(sojourns[i].Microseconds())
		close(w.ready)
	}
	a.announce(transition, fmt.Sprintf("head sojourn fed codel, %d queued", depth))
}

// grantLocked frees one slot of class and hands freed capacity to the
// class's oldest waiters, feeding each waiter's sojourn into the CoDel law.
// Must hold a.mu; the caller closes the granted ready channels and observes
// the sojourns after unlocking.
func (a *Admitter) grantLocked(class int, now time.Time) (granted []*admitWaiter, sojourns []time.Duration, transition, depth int) {
	c := &a.classes[class]
	c.inflight--
	for c.inflight < a.opts.Slots && len(c.queue) > 0 {
		w := c.queue[0]
		c.queue = c.queue[1:]
		w.granted = true
		c.inflight++
		soj := now.Sub(w.enq)
		if tr := a.observeLocked(soj, now); tr != 0 {
			transition = tr
		}
		granted = append(granted, w)
		sojourns = append(sojourns, soj)
	}
	if a.queuedLocked() == 0 && a.codel.Shedding() {
		a.codel.OnEmpty()
		transition = -1
	}
	return granted, sojourns, transition, a.queuedLocked()
}

// Pressure reports admission occupancy in [0, 1]: the most loaded class's
// (inflight + queued) over its total capacity, saturating to 1 while shed
// mode is active. The control plane's overload job reads it to decide spare
// activation — a standing admission queue means the active replica set is
// undersized even if per-replica outstanding counts look tolerable.
func (a *Admitter) Pressure() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pressureLocked()
}

// pressureLocked computes the occupancy fraction. Must hold a.mu.
func (a *Admitter) pressureLocked() float64 {
	if a.codel.Shedding() {
		return 1
	}
	capacity := float64(a.opts.Slots + a.opts.QueueCap)
	max := 0.0
	for i := range a.classes {
		p := float64(a.classes[i].inflight+len(a.classes[i].queue)) / capacity
		if p > max {
			max = p
		}
	}
	return max
}
