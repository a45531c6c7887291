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

// Node health states tracked by the suspicion detector. Healthy is the
// zero value, spelled healthy outside (healthName).
const (
	healthSuspect = "suspect"
	healthDead    = "dead"
	healthy       = "healthy"
)

// healthName is the external spelling of a health state.
func healthName(state string) string {
	if state == "" {
		return healthy
	}
	return state
}

// healthAction is a detector state transition.
type healthAction int

// verdict is a transition decided for one incarnation of a member, never
// applied to a node Restart has since built under the same id.
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
// The state becomes dead only when confirmDead acts on an actDead verdict.
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
// two-interval latency. An answer far outside the RTT band is a soft miss:
// it can raise suspicion but never kills on its own. A normal answer resets
// the ladder and clears a standing suspicion.
func (h *nodeHealth) observe(rtt time.Duration, err error, suspectAfter, deadAfter int) healthAction {
	switch {
	case h.state == healthDead:
		return actNone
	case err == nil && !h.slow(rtt):
		h.misses = 0
		if h.state == healthSuspect {
			h.state = ""
			return actClear
		}
		return actNone
	case err != nil && !errors.Is(err, replica.ErrPeerTimeout):
		return actDead
	}
	h.misses++
	if err != nil && h.misses >= deadAfter {
		return actDead
	}
	if h.misses >= suspectAfter && h.state == "" {
		h.state = healthSuspect
		return actSuspect
	}
	return actNone
}

// slow folds an answered probe's RTT into the accrual band and reports
// whether it fell far outside it.
func (h *nodeHealth) slow(rtt time.Duration) bool {
	x := float64(rtt.Microseconds())
	slow := h.rttSamples >= rttWarmup &&
		x > h.rttMean+rttDeviations*math.Sqrt(h.rttVar)+rttFloorUS
	d := x - h.rttMean
	h.rttMean += rttAlpha * d
	h.rttVar = (1 - rttAlpha) * (h.rttVar + rttAlpha*d*d)
	h.rttSamples++
	return slow
}

// probeAll runs one round of the failure detector, once per heartbeat: it
// probes every member not yet dead concurrently, outside the plane lock
// (one black-holed node costs the round one PingTimeout), then enqueues the
// round's outcomes for the worker to note and act on.
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

	p.enqueue(func() {
		for _, t := range targets {
			p.applyHealth(t.n.ID(), p.note(t.n, t.rtt, t.err))
		}
	})
}

// note feeds one probe outcome for peer n to its member's state machine and
// returns the verdict. An outcome for an incarnation Restart has since
// replaced is dropped. A suspicion (which also quarantines the node) or a
// clear is recorded here, under the plane lock, as confirmDead records a
// death, so the flight ring holds transitions in decision order.
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
// (gray) node cannot wedge the caller.
func (p *Plane) pingBounded(n replica.Peer) error {
	t := time.NewTimer(p.cfg.PingTimeout)
	defer t.Stop()
	select {
	case err := <-bounded(n.Ping):
		return err
	case <-t.C:
		return fmt.Errorf("%w: ping %s after %v", replica.ErrPeerTimeout, n.ID(), p.cfg.PingTimeout)
	}
}

// bounded starts fn, a call to a member that may be stalled, on a goroutine
// of its own and returns where its result lands: the plane's one way to
// call a member it waits on at most a deadline (pingBounded) or not at all
// (a fenced node's clean-up). A blocked call finishes when the peer
// unstalls or dies, the cost of bounding an uncancellable call.
func bounded(fn func() error) <-chan error {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	return done
}

// ReportFailure is the scheduler and replica layers' report that a call to
// member id failed. It only enqueues, so any lock may be held, and adds
// nothing while a report about id is pending. The worker confirms it with a
// bounded probe: an answer dismisses it, a hard error kills the node, and a
// deadline is one miss on the suspicion ladder.
func (p *Plane) ReportFailure(id string) {
	p.q.push(action{report: id, run: func() error {
		if n, ok := p.Peer(id); ok && p.Health(id) != healthDead {
			if err := p.pingBounded(n); err != nil {
				p.applyHealth(id, p.note(n, 0, err))
			}
		}
		return nil
	}})
}

// ReportSuspect is the replica layer's report that a master abandoned
// member id's write-set ack at its deadline: one miss on the ladder. It only
// enqueues, and each report counts.
func (p *Plane) ReportSuspect(id string) {
	p.enqueue(func() {
		if n, ok := p.Peer(id); ok {
			p.applyHealth(id, p.note(n, 0, replica.ErrPeerTimeout))
		}
	})
}

// applyHealth runs the side effects of verdict v on member id, on the
// worker right after note decided v, with no plane lock held (timeline
// hooks are caller code).
func (p *Plane) applyHealth(id string, v verdict) {
	switch v.act {
	case actSuspect:
		p.metSuspicions.Inc()
		p.emit(Event{Kind: EventNodeSuspect, Node: id})
	case actClear:
		p.metFalseSuspicions.Inc()
		p.emit(Event{Kind: EventNodeCleared, Node: id})
		// While suspect the node may have missed write-sets: close the
		// gap with a page delta, then drop the detector's quarantine
		// (whether or not that succeeded) unless the node is suspect again.
		if p.holds(v.peer) {
			_, _ = p.migrate(v.peer)
		}
		p.changeMember(id, func(m *member) {
			if m.peer == v.peer && m.state == "" {
				m.suspected = false
			}
		})
	case actDead:
		p.confirmDead(v.peer)
	}
}

// holds reports whether n is still its member's incarnation and usable.
func (p *Plane) holds(n replica.Peer) bool {
	return len(p.peers(func(m *member) bool { return m.peer == n && p.usable(m) })) > 0
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
