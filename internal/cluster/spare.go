package cluster

import (
	"time"

	"dmv/internal/replica"
)

// Spare upkeep (Section 4.5): the periodic jobs that keep spare backups
// ready to serve — page-id warm-up, refresh of stale spares, and activation
// of a spare when the admission queue stays saturated.

// startSpareUpkeep launches the spare jobs the configuration asks for. The
// overload job runs only with an admission queue to watch and a spare to
// activate.
func (p *Plane) startSpareUpkeep() {
	p.every(p.cfg.PageIDTransfer, p.shipPageIDs)
	if p.staleSpares() {
		// The paper's periodically-updated backup: every stale spare is
		// brought up to a support slave's pages without subscribing it.
		p.every(p.cfg.StaleRefresh, func() {
			for _, sp := range p.usableSpares() {
				_, _ = p.migrate(sp)
			}
		})
	}
	if p.cfg.Admission.Slots > 0 && len(p.usableSpares()) > 0 {
		p.every(p.overloadJob())
	}
}

// usableSpares lists the spare members that may be refreshed or activated.
func (p *Plane) usableSpares() []replica.Peer {
	return p.peers(func(m *member) bool { return m.spare && p.usable(m) })
}

// shipPageIDs is the paper's second warm-up scheme: an active slave's
// resident page ids go to every spare, which faults those pages into its
// buffer cache.
func (p *Plane) shipPageIDs() {
	slaves := p.peers(func(m *member) bool { _, placed := p.duty(m); return placed && !m.spare })
	spares := p.usableSpares()
	if len(slaves) == 0 || len(spares) == 0 {
		return
	}
	keys, err := slaves[0].ResidentPages(0)
	if err != nil || len(keys) == 0 {
		return
	}
	for _, sp := range spares {
		_ = sp.WarmPages(keys)
	}
}

// overloadJob returns the overload check and its period. The primary
// scheduler is hot while its admission queue is saturated; a spare is
// activated once per episode that stays hot for cfg.OverloadWindow.
func (p *Plane) overloadJob() (time.Duration, func()) {
	window := p.cfg.OverloadWindow
	tick := max(window/5, 10*time.Millisecond)
	var over time.Duration
	return tick, func() {
		if p.Scheduler().AdmissionPressure() < 1 {
			over = 0
			return
		}
		if over += tick; over < window {
			return
		}
		over = 0
		if len(p.usableSpares()) > 0 {
			p.overloaded()
		}
	}
}

// overloaded is the overload job's decision: it enqueues a spare activation.
func (p *Plane) overloaded() {
	p.enqueue(func() {
		p.emit(Event{Kind: EventOverload, Detail: "activating spare"})
		p.activateSpare()
	})
}
