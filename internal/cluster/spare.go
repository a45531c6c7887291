package cluster

import (
	"time"

	"dmv/internal/replica"
)

// Spare upkeep (Section 4.5): the periodic jobs that keep spare backups
// ready to serve — page-id warm-up of their buffer caches, refresh of stale
// spares, and activation of a spare when the admission queue stays
// saturated.
// They reach spares only through replica.Peer, so the deployed tier runs
// them exactly as the in-process one does.

// startSpareUpkeep launches the spare jobs the configuration asks for. The
// overload job runs only with an admission queue to watch and a spare to
// activate.
func (p *Plane) startSpareUpkeep() {
	p.every(p.cfg.PageIDTransfer, p.shipPageIDs)
	if p.cfg.SpareMode == SpareStale {
		p.every(p.cfg.StaleRefresh, p.refreshStaleSpares)
	}
	if p.cfg.Admission.Slots > 0 && len(p.usableSpares()) > 0 {
		p.every(p.overloadJob())
	}
}

// usableSpares lists the spare members that may be refreshed or activated.
func (p *Plane) usableSpares() []replica.Peer {
	p.mu.Lock()
	defer p.mu.Unlock()
	var spares []replica.Peer
	for _, id := range p.order {
		if m := p.members[id]; m.isSpare && p.usable(m) {
			spares = append(spares, m.peer)
		}
	}
	return spares
}

// shipPageIDs is the paper's second warm-up scheme: an active slave's
// resident page ids go to every spare, which faults those pages into its
// buffer cache.
func (p *Plane) shipPageIDs() {
	sched := p.Scheduler()
	slaves, spares := sched.SlaveList(), sched.SpareList()
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

// refreshStaleSpares brings every stale spare up to a support slave's
// pages without subscribing it (the paper's periodically-updated backup).
func (p *Plane) refreshStaleSpares() {
	for _, sp := range p.usableSpares() {
		_, _ = p.migrate(sp)
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
		sched := p.Scheduler()
		if sched.AdmissionPressure() < 1 {
			over = 0
			return
		}
		if over += tick; over < window {
			return
		}
		over = 0
		if len(sched.Spares()) > 0 {
			p.emit(Event{Kind: EventOverload, Detail: "activating spare"})
			p.activateSpare()
		}
	}
}
