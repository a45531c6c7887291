package cluster

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"dmv/internal/obs"
	"dmv/internal/obs/flight"
	"dmv/internal/replica"
)

// Node health states tracked by the suspicion detector. The zero value
// (healthy) is the empty string so fresh members need no initialization;
// healthName gives it its one external spelling, healthy.
const (
	healthSuspect = "suspect"
	healthDead    = "dead"
	healthy       = "healthy"
)

// healthName is the external spelling of a health state (flight records,
// cluster snapshots).
func healthName(state string) string {
	if state == "" {
		return healthy
	}
	return state
}

// healthAction is a detector state transition computed under the plane
// lock and applied outside it.
type healthAction int

// verdict is a transition decided for one incarnation of a member: it is
// applied to that peer object only, never to a node Restart has since
// built under the same id.
type verdict struct {
	peer replica.Peer
	act  healthAction
}

const (
	actNone healthAction = iota
	actSuspect
	actClear
	actDead
)

// rttAlpha and rttWarmup parameterize the RTT accrual band: an EWMA of
// mean and squared deviation, consulted only after enough samples.
const (
	rttAlpha      = 0.2
	rttWarmup     = 8
	rttFloorUS    = 1000 // 1ms: never suspect inside this absolute slack
	rttDeviations = 4.0
)

// nodeHealth is the per-node detector state: a pure state machine fed one
// probe outcome at a time.
//
//	healthy --suspectAfter misses--> suspect --deadAfter misses--> dead
//
// A miss is a probe that hit its deadline, or one whose RTT fell far
// outside the node's EWMA band (a gray slowdown). The state becomes dead
// only when the plane confirms an actDead verdict (confirmDead), which is
// also what records the true prior state.
type nodeHealth struct {
	state      string  // "" healthy, healthSuspect, healthDead
	misses     int     // consecutive missed or badly-late probes
	rttMean    float64 // EWMA of probe RTT, microseconds
	rttVar     float64 // EWMA of squared RTT deviation
	rttSamples int     // probes folded into the EWMA
}

// observe folds one probe outcome into the state and returns the
// transition it causes. A nil err is an answer after rtt; ErrPeerTimeout is
// a deadline miss; any other error means the node itself answered that it
// is down (fail-stop), which skips the ladder so crash detection keeps its
// two-interval latency.
func (h *nodeHealth) observe(rtt time.Duration, err error, suspectAfter, deadAfter int) healthAction {
	switch {
	case h.state == healthDead:
		return actNone
	case err == nil:
		return h.success(rtt, suspectAfter)
	case errors.Is(err, replica.ErrPeerTimeout):
		return h.miss(suspectAfter, deadAfter)
	default:
		return actDead
	}
}

// success folds an answered probe into the RTT accrual state. An RTT far
// outside the band counts as a soft miss (it can raise suspicion but never
// kills on its own); a normal RTT resets the ladder and clears a standing
// suspicion.
func (h *nodeHealth) success(rtt time.Duration, suspectAfter int) healthAction {
	x := float64(rtt.Microseconds())
	slow := h.rttSamples >= rttWarmup &&
		x > h.rttMean+rttDeviations*math.Sqrt(h.rttVar)+rttFloorUS
	d := x - h.rttMean
	h.rttMean += rttAlpha * d
	h.rttVar = (1 - rttAlpha) * (h.rttVar + rttAlpha*d*d)
	h.rttSamples++
	if slow {
		h.misses++
		if h.misses >= suspectAfter && h.state == "" {
			h.state = healthSuspect
			return actSuspect
		}
		return actNone
	}
	h.misses = 0
	if h.state == healthSuspect {
		h.state = ""
		return actClear
	}
	return actNone
}

// miss records one missed probe (deadline hit) and walks the ladder.
func (h *nodeHealth) miss(suspectAfter, deadAfter int) healthAction {
	h.misses++
	if h.misses >= deadAfter {
		return actDead
	}
	if h.misses >= suspectAfter && h.state == "" {
		h.state = healthSuspect
		return actSuspect
	}
	return actNone
}

// probeAll runs one round of the suspicion-based failure detector, once
// per heartbeat: probe every member not yet dead concurrently outside the
// plane lock (one black-holed node costs the round a single PingTimeout,
// not one per node), classify under the lock, act outside it again.
// Suspects are quarantined out of the version-aware read placement but
// stay in the replication topology; a recovered suspect is cleared (a
// false suspicion), caught up with an incremental page-delta migration
// rather than a full state transfer, and then drops the detector's
// quarantine.
func (p *Plane) probeAll() {
	type probe struct {
		n   replica.Peer
		rtt time.Duration
		err error
	}
	p.mu.Lock()
	var targets []*probe
	for _, id := range p.order {
		if m := p.members[id]; m.state != healthDead {
			targets = append(targets, &probe{n: m.peer})
		}
	}
	p.mu.Unlock()

	var wg sync.WaitGroup
	for _, t := range targets {
		wg.Add(1)
		go func(t *probe) {
			defer wg.Done()
			start := time.Now()
			t.err = p.pingBounded(t.n)
			t.rtt = time.Since(start)
		}(t)
	}
	wg.Wait()

	for _, t := range targets {
		p.applyHealth(t.n.ID(), p.note(t.n, t.rtt, t.err))
	}
}

// note feeds one probe outcome for peer n to its member's state machine and
// returns the verdict. An outcome for an incarnation Restart has since
// replaced under the same id is dropped: the old node's death must not
// kill the new one. A suspicion or a cleared suspicion is recorded here,
// under the plane lock, so the flight recorder and the health gauge see
// transitions in the order they are decided (confirmDead records a death
// the same way); a suspicion also quarantines the node here.
func (p *Plane) note(n replica.Peer, rtt time.Duration, err error) verdict {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.members[n.ID()]
	if m == nil || m.peer != n {
		return verdict{}
	}
	v := verdict{n, m.observe(rtt, err, p.cfg.SuspectAfter, p.cfg.DeadAfter)}
	switch v.act {
	case actSuspect:
		p.recordHealth(n.ID(), healthy, healthSuspect)
		p.cfg.Flight.Trigger(flight.CauseSuspicion, n.ID(), "probe misses reached SuspectAfter")
		m.suspected = true
		p.placeLocked()
	case actClear:
		p.recordHealth(n.ID(), healthSuspect, healthy)
	}
	return v
}

// pingBounded probes a peer with the PingTimeout deadline so a stalled
// (gray) node cannot wedge the caller. The probe goroutine blocks until the
// peer unstalls or dies — bounded by the number of outstanding probes and
// released on heal, the standard cost of bounding an uncancellable call.
func (p *Plane) pingBounded(n replica.Peer) error {
	done := make(chan error, 1)
	go func() { done <- n.Ping() }()
	t := time.NewTimer(p.cfg.PingTimeout)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		return fmt.Errorf("%w: ping %s after %v", replica.ErrPeerTimeout, n.ID(), p.cfg.PingTimeout)
	}
}

// ReportFailure is the entry point for failure reports from the scheduler
// and replica layers (a call to the node failed). The report is confirmed
// with a bounded probe: a healthy answer dismisses it, a hard error
// (fail-stop) kills the node immediately, and a probe deadline is gray
// evidence that feeds the suspicion ladder rather than triggering an
// instant fail-over.
func (p *Plane) ReportFailure(id string) {
	n, ok := p.Peer(id)
	if !ok || p.Health(id) == healthDead {
		return
	}
	// Confirm outside the lock (a scheduler may report a transient error;
	// the probe may block up to the deadline).
	if err := p.pingBounded(n); err != nil {
		p.applyHealth(id, p.note(n, 0, err))
	}
}

// ReportSuspect is the replica-layer evidence path: a master abandoned a
// subscriber's write-set ack at its deadline. That is one miss worth of
// suspicion, never an instant death from a single report.
func (p *Plane) ReportSuspect(id string) {
	if n, ok := p.Peer(id); ok {
		p.applyHealth(id, p.note(n, 0, replica.ErrPeerTimeout))
	}
}

// applyHealth runs the side effects of verdict v on member id, v's node,
// with no plane lock held. Timeline events fire here, outside the lock,
// because their hooks are caller code.
func (p *Plane) applyHealth(id string, v verdict) {
	switch v.act {
	case actSuspect:
		p.metSuspicions.Inc()
		p.emit(Event{Kind: EventNodeSuspect, Node: id})
	case actClear:
		p.metFalseSuspicions.Inc()
		p.emit(Event{Kind: EventNodeCleared, Node: id})
		// While suspect the node may have missed write-sets (a master
		// abandons acks at the deadline); close the gap with the
		// incremental page-delta path — no full state transfer — and only
		// then drop the detector's quarantine, whether or not it
		// succeeded, unless the node fell under suspicion again meanwhile.
		// A scrub quarantine on the node stands regardless.
		go func() {
			if p.holds(v.peer) {
				_, _ = p.migrate(v.peer)
			}
			p.changeMember(id, func(m *member) {
				if m.peer == v.peer && m.state == "" {
					m.suspected = false
				}
			})
		}()
	case actDead:
		p.confirmDead(v.peer)
	}
}

// holds reports whether n is still its member's incarnation and usable.
func (p *Plane) holds(n replica.Peer) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.members[n.ID()]
	return m != nil && m.peer == n && p.usable(m)
}

// recordHealth records a detector transition in the flight recorder and the
// health gauge. Callers hold p.mu; both take only obs-band locks.
func (p *Plane) recordHealth(id, from, to string) {
	p.cfg.Flight.RecordHealth(id, from, to)
	p.setHealthGauge(id, to)
}

// setHealthGauge exports the node's suspicion state as a labeled gauge.
func (p *Plane) setHealthGauge(id, state string) {
	if p.cfg.Obs == nil {
		return
	}
	p.cfg.Obs.Gauge(obs.Labeled(obs.ClusterNodeHealth, "node", id)).Set(obs.HealthValue(state))
}
