package cluster

import (
	"fmt"
	"sync/atomic"

	"dmv/internal/heap"
	"dmv/internal/obs/flight"
	"dmv/internal/page"
	"dmv/internal/replica"
	"dmv/internal/scheduler"
)

// deadPublished, when set, runs in confirmDead right after a node's dead
// state becomes visible, so a test can park fail-over there.
var deadPublished atomic.Pointer[func(id string)]

// confirmDead declares a node dead and reconfigures around it. It is
// idempotent and serialized per node via the dead state. A node that may
// still be running when declared dead (a gray failure; without local
// liveness knowledge that is every node) is fenced: excluded from every
// topology computation and, best-effort, stripped of its subscribers and
// master role so it cannot keep mutating acknowledged state. A fenced node
// never rejoins on its own: reintegration requires killing it and running
// Restart.
func (p *Plane) confirmDead(id string) {
	p.mu.Lock()
	m := p.members[id]
	if m == nil || m.state == healthDead {
		p.mu.Unlock()
		return
	}
	// The fail-over dump is enqueued, after the health transition it
	// shows, before "dead" becomes visible: whoever reads the dead state
	// (Health, a post-mortem closing the recorder) finds the dump pending.
	// The recorder takes only its own innermost lock. A master's fail-over
	// reconfigures the whole class, so its trigger names no node.
	p.cfg.Flight.RecordHealth(id, healthName(m.state), healthDead)
	if m.classID >= 0 {
		p.cfg.Flight.Trigger(flight.CauseFailover, "", fmt.Sprintf("master fail-over, class %d", m.classID))
	} else {
		p.cfg.Flight.Trigger(flight.CauseFailover, id, "node confirmed dead, reconfiguring")
	}
	m.state = healthDead
	m.fenced = p.usable(m)
	gray, peer, classID, isSpare := m.fenced, m.peer, m.classID, m.isSpare
	p.mu.Unlock()
	if hook := deadPublished.Load(); hook != nil {
		(*hook)(id)
	}

	p.setHealthGauge(id, healthDead)
	p.emit(Event{Kind: EventNodeFailed, Node: id})
	if gray {
		// The fence proper is the fenced flag; the node-side cleanup runs
		// asynchronously because a stalled node may sit on these calls.
		go func() {
			_ = p.rewire(peer, nil)
			_ = peer.Demote(replica.RoleSpare)
		}()
	}

	if classID >= 0 {
		p.masterFailover(id, classID)
		return
	}
	if isSpare {
		p.eachSched(func(s *scheduler.Scheduler) { s.Remove(id) })
		p.rewireSubscribers()
		return
	}
	p.slaveFailover(id)
}

// masterFailover handles the most complex case (Section 4.2): roll the tier
// back to the last version the scheduler acknowledged, elect a new master
// from the slaves, and backfill read capacity from a spare.
func (p *Plane) masterFailover(failed string, classID int) {
	rec := p.tl.Start(EventRecoveryDone, failed)

	// Stage 1 — Recovery: every survivor discards partially propagated
	// pre-commits beyond the last acknowledged version; only plain slaves
	// stand for election (spares and other classes' masters are rolled back
	// but keep their roles).
	p.mu.Lock()
	var slaves, others []replica.Peer
	for _, id := range p.order {
		switch m := p.members[id]; {
		case !p.usable(m):
		case m.classID < 0 && !m.isSpare:
			slaves = append(slaves, m.peer)
		default:
			others = append(others, m.peer)
		}
	}
	p.mu.Unlock()
	newMaster, err := p.Scheduler().FailoverMaster(classID, slaves, others, p.scheds)
	if err != nil {
		rec.End(err.Error())
		return
	}
	p.mu.Lock()
	p.members[newMaster.ID()].classID = classID
	p.mu.Unlock()
	p.rewireSubscribers()
	p.emit(Event{Kind: EventMasterElected, Node: newMaster.ID(), Duration: rec.Elapsed()})
	rec.End("")

	// Stage 2 — Data migration: activate a spare to replace the promoted
	// slave's read capacity.
	p.activateSpare()
}

// slaveFailover removes the failed slave and activates a spare in its place.
func (p *Plane) slaveFailover(failed string) {
	rec := p.tl.Start(EventRecoveryDone, failed)
	p.eachSched(func(s *scheduler.Scheduler) { s.Remove(failed) })
	p.rewireSubscribers()
	rec.End("")
	p.activateSpare()
}

// activateSpare integrates one spare backup into the active slave set: data
// migration first (instant for hot spares, a page-delta transfer for stale
// ones), then the spare serves reads while its buffer cache warms up.
func (p *Plane) activateSpare() {
	spares := p.usableSpares()
	if len(spares) == 0 {
		return
	}
	spare := spares[0]

	act := p.tl.Start(EventSpareActivated, spare.ID())
	mig := p.tl.Start(EventMigrationDone, spare.ID())
	if p.cfg.SpareMode == SpareStale {
		if err := p.reintegrate(spare); err != nil {
			mig.End("failed: " + err.Error())
			return
		}
	}
	// Hot spares are already up to date (subscribed to the replication
	// stream); buffered modifications materialize lazily as readers arrive,
	// so activation is immediate — eagerly materializing here would fault
	// the spare's whole cold cache in before it serves a single read.
	migDur := mig.Elapsed()
	_ = spare.Demote(replica.RoleSlave)

	p.mu.Lock()
	p.members[spare.ID()].isSpare = false
	p.mu.Unlock()
	p.eachSched(func(s *scheduler.Scheduler) {
		if !s.PromoteSpare(spare.ID()) {
			s.AddSlave(spare)
		}
	})
	p.rewireSubscribers()
	p.emit(Event{Kind: EventMigrationDone, Node: spare.ID(), Duration: migDur})
	act.End("")
}

// reintegrate runs the data-migration protocol of Section 4.4 on a stale or
// recovered member: subscribe (buffering), fetch the page delta from a
// support slave, install it, then drain the buffer.
func (p *Plane) reintegrate(n replica.Peer) error {
	join := p.tl.Start(EventReintegrated, n.ID())
	if err := n.StartJoin(); err != nil {
		return err
	}
	// Subscribe to every master so new write-sets are buffered.
	p.setJoining(n.ID(), true)
	defer p.setJoining(n.ID(), false)
	p.rewireSubscribers()

	pages, err := p.migrate(n)
	if err != nil {
		return fmt.Errorf("reintegrate %s: %w", n.ID(), err)
	}
	if err := n.FinishJoin(); err != nil {
		return fmt.Errorf("reintegrate %s: %w", n.ID(), err)
	}
	join.End(fmt.Sprintf("%d pages", pages))
	return nil
}

func (p *Plane) setJoining(id string, joining bool) {
	p.mu.Lock()
	p.members[id].joining = joining
	p.mu.Unlock()
}

// migrate brings n's pages up to a support slave's versions with one
// changed-page delta (heap.ChangedPages, shipped by shipPages as in scrub
// repair) and reports how many pages it shipped. On its own it
// refreshes a node without subscribing it: a stale spare goes right back to
// being stale (the paper's periodically-updated backup), a cleared suspect
// closes the gap its abandoned acks left.
func (p *Plane) migrate(n replica.Peer) (int, error) {
	support := p.pickSupportSlave(n.ID())
	if support == nil {
		return 0, ErrNoSupportSlave
	}
	have, err := n.PageVersions()
	if err != nil {
		return 0, err
	}
	donor, err := support.PageVersions()
	if err != nil {
		return 0, err
	}
	return shipPages(n, support, heap.ChangedPages(have, donor))
}

// shipPages brings n's copies of the given pages up to donor's current
// images: one PageImages call per table, then one InstallDelta for them
// all. It is the plane's one page-shipping step; its callers choose the
// pages (migrate by version, scrub repair by digest) and any join bracket
// around it. It reports how many pages it installed.
func shipPages(n, donor replica.Peer, sets []heap.PageSet) (int, error) {
	var delta []page.Image
	for _, s := range sets {
		imgs, err := donor.PageImages(s.Table, s.Pages)
		if err != nil {
			return 0, fmt.Errorf("images from %s: %w", donor.ID(), err)
		}
		delta = append(delta, imgs...)
	}
	if err := n.InstallDelta(delta); err != nil {
		return 0, fmt.Errorf("install on %s: %w", n.ID(), err)
	}
	return len(delta), nil
}

// pickSupportSlave chooses a migration donor: a healthy, promptly-answering
// slave, or a master as fallback. Probes are bounded so a gray donor
// candidate cannot stall the reconfiguration that is trying to route
// around it, and suspects are skipped — a donor behind on write-sets
// would ship a stale delta.
func (p *Plane) pickSupportSlave(exclude string) replica.Peer {
	sched := p.Scheduler()
	donors := sched.SlaveList()
	// Fall back to a master (it has the full state too).
	for ci := 0; ci < sched.NumClasses(); ci++ {
		if m := sched.Master(ci); m != nil {
			donors = append(donors, m)
		}
	}
	for _, d := range donors {
		if d.ID() != exclude && p.Health(d.ID()) == healthy && p.pingBounded(d) == nil {
			return d
		}
	}
	return nil
}

// Restart simulates a failed machine rebooting: a fresh node object is
// built, its state restored from the last fuzzy checkpoint found on local
// stable storage (or the initial image if none), and the node reintegrated
// into the workload as a slave.
func (c *Cluster) Restart(id string) error {
	old, ok := c.Node(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	if old.Alive() {
		return fmt.Errorf("cluster: node %s still alive", id)
	}
	restart := c.tl.Start(EventNodeRestarted, id)
	n, err := c.buildNode(c.cfg, id, old)
	if err != nil {
		return fmt.Errorf("restart %s: %w", id, err)
	}
	// The fresh member (healthy, not a spare, no master role) already
	// receives the replication stream while reintegrate runs; it joins read
	// placement only once it is current.
	c.setMember(n, &member{peer: n, classID: -1})
	c.startCheckpointer(n)
	c.setHealthGauge(id, "")

	if err := c.reintegrate(n); err != nil {
		return err
	}
	c.eachSched(func(s *scheduler.Scheduler) { s.AddSlave(n) })
	restart.End("")
	return nil
}
