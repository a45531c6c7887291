package cluster

import (
	"fmt"
	"sync/atomic"

	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/obs/flight"
	"dmv/internal/page"
	"dmv/internal/replica"
)

// deadPublished, when set, runs in confirmDead right after a node's dead
// state becomes visible, so a test can park fail-over there.
var deadPublished atomic.Pointer[func(id string)]

// masterPublished, when set, runs in masterFailover once the elected master
// is published and the commit fence released, so a test can park there.
var masterPublished atomic.Pointer[func(id string)]

// confirmDead declares peer n dead and reconfigures around it. It is
// idempotent, and a no-op once Restart has replaced n under its id. A dead
// member is out of every topology computation; one that may still be
// running (a gray failure) is also, best-effort, stripped of its
// subscribers and master role. It rejoins only through Kill and Restart
// (DESIGN.md §10).
func (p *Plane) confirmDead(n replica.Peer) {
	id := n.ID()
	p.mu.Lock()
	m := p.members[id]
	if m == nil || m.peer != n || m.state == healthDead {
		p.mu.Unlock()
		return
	}
	// The fail-over dump is enqueued before "dead" becomes visible, so
	// whoever reads the dead state finds it pending. A master's trigger
	// names no node: its fail-over reconfigures the whole class.
	p.recordHealth(id, healthName(m.state), healthDead)
	if m.classID >= 0 {
		p.cfg.Flight.Trigger(flight.CauseFailover, "", fmt.Sprintf("master fail-over, class %d", m.classID))
	} else {
		p.cfg.Flight.Trigger(flight.CauseFailover, id, "node confirmed dead, reconfiguring")
	}
	gray := p.usable(m)
	m.state = healthDead
	p.placeLocked()
	classID, spare := m.classID, m.spare
	p.mu.Unlock()
	if hook := deadPublished.Load(); hook != nil {
		(*hook)(id)
	}

	p.emit(Event{Kind: EventNodeFailed, Node: id})
	if gray {
		// The fence proper is the dead state. The node-side cleanup is
		// not waited for: the fail-over must not queue behind a gray node.
		bounded(func() error {
			_ = p.rewire(n, nil)
			return n.Demote(replica.RoleSpare)
		})
	}

	// Every surviving master stops shipping to the dead node.
	rec := p.tl.Start(EventRecoveryDone, id)
	p.rewireSubscribers()
	switch {
	case classID >= 0:
		p.masterFailover(rec, classID)
	case !spare:
		// A slave: its read capacity is replaced by a spare.
		rec.End("")
		p.activateSpare()
	}
}

// masterFailover handles the most complex case (Section 4.2): roll the tier
// back to the last version the scheduler acknowledged, elect a new master
// from the slaves, and backfill read capacity from a spare.
func (p *Plane) masterFailover(rec *obs.Stage, classID int) {
	// Stage 1 — Recovery: every survivor discards pre-commits beyond the
	// last acknowledged version; only plain slaves stand for election.
	slaves := p.peers(func(m *member) bool { return p.usable(m) && m.classID < 0 && !m.spare })
	others := p.peers(func(m *member) bool { return p.usable(m) && (m.classID >= 0 || m.spare) })
	newMaster, err := p.Scheduler().FailoverMaster(classID, slaves, others, p.scheds, p.publishMaster)
	if err != nil {
		rec.End(err.Error())
		return
	}
	if hook := masterPublished.Load(); hook != nil {
		(*hook)(newMaster.ID())
	}
	p.emit(Event{Kind: EventMasterElected, Node: newMaster.ID(), Duration: rec.Elapsed()})
	rec.End("")

	// Stage 2 — Data migration: a spare replaces the promoted slave.
	p.activateSpare()
}

// publishMaster is FailoverMaster's last step, run under the commit fence:
// the winner n gets its subscriber set before the record names it master of
// class ci and placement publishes it, so every commit it acknowledges
// reaches the survivors. A winner whose rewire fails is not published.
func (p *Plane) publishMaster(ci int, n replica.Peer) error {
	if err := p.subscribe(n); err != nil {
		return fmt.Errorf("failover: subscribe %s: %w", n.ID(), err)
	}
	p.changeMember(n.ID(), func(m *member) { m.classID = ci })
	return nil
}

// activateSpare turns one spare into a slave: data migration first (none
// for a hot spare), then it serves reads while its buffer cache warms up.
func (p *Plane) activateSpare() {
	spares := p.usableSpares()
	if len(spares) == 0 {
		return
	}
	spare := spares[0]

	act := p.tl.Start(EventSpareActivated, spare.ID())
	mig := p.tl.Start(EventMigrationDone, spare.ID())
	if p.staleSpares() {
		if err := p.reintegrate(spare); err != nil {
			// A stale spare whose join failed is a stale spare again.
			p.changeMember(spare.ID(), func(m *member) { m.joining = false })
			p.rewireSubscribers()
			mig.End("failed: " + err.Error())
			return
		}
	}
	// A hot spare is already up to date; its buffered modifications
	// materialize lazily as readers arrive, so activation is immediate.
	migDur := mig.Elapsed()
	_ = spare.Demote(replica.RoleSlave)

	p.changeMember(spare.ID(), func(m *member) { m.spare, m.joining = false, false })
	p.rewireSubscribers()
	p.emit(Event{Kind: EventMigrationDone, Node: spare.ID(), Duration: migDur})
	act.End("")
}

// reintegrate runs the data-migration protocol of Section 4.4 on a stale or
// recovered member: subscribe (buffering), fetch the page delta from a
// support slave, install it, then drain the buffer. The member stays
// joining, out of read placement, until its caller ends the stage.
func (p *Plane) reintegrate(n replica.Peer) error {
	join := p.tl.Start(EventReintegrated, n.ID())
	if err := n.StartJoin(); err != nil {
		return err
	}
	// Subscribe to every master so new write-sets are buffered.
	p.changeMember(n.ID(), func(m *member) { m.joining = true })
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

// migrate brings n's pages up to a support slave's versions with one
// changed-page delta and reports how many pages it shipped. On its own it
// refreshes a node without subscribing it (a stale spare, a cleared
// suspect).
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
// images (one PageImages call per table, one InstallDelta) and reports how
// many pages it installed. It is the plane's one page-shipping step.
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

// pickSupportSlave chooses a migration donor that answers a bounded probe:
// a healthy slave out of read quarantine, else a healthy class master (it
// has the full state too). Never a quarantined member: a suspect may be
// behind on write-sets and a diverged one holds wrong pages, so either
// would ship a wrong delta into the joiner.
func (p *Plane) pickSupportSlave(exclude string) replica.Peer {
	ok := func(m *member) bool { return m.state == "" && m.peer.ID() != exclude }
	slaves := p.peers(func(m *member) bool {
		_, placed := p.duty(m)
		return ok(m) && placed && !m.spare && !m.quarantined()
	})
	masters := p.peers(func(m *member) bool { return ok(m) && m.classID >= 0 })
	for _, d := range append(slaves, masters...) {
		if p.pingBounded(d) == nil {
			return d
		}
	}
	return nil
}

// Restart simulates a failed machine rebooting: a fresh node object is
// built from the last fuzzy checkpoint on local stable storage (or the
// initial image) and reintegrated as a slave. It runs as one action on the
// plane's worker, after every action decided before it, and waits for it.
func (c *Cluster) Restart(id string) error {
	return c.do(func() error { return c.restart(id) })
}

func (c *Cluster) restart(id string) error {
	old, ok := c.Node(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	if old.Alive() {
		return fmt.Errorf("cluster: node %s still alive", id)
	}
	// A killed master not yet confirmed dead still holds its class:
	// confirming its death runs the fail-over ahead of the rebuild.
	if len(c.peers(func(m *member) bool { return m.peer == old && m.classID >= 0 })) > 0 {
		c.confirmDead(old)
	}
	restart := c.tl.Start(EventNodeRestarted, id)
	n, err := c.buildNode(c.cfg, id, old)
	if err != nil {
		return fmt.Errorf("restart %s: %w", id, err)
	}
	// The fresh member replaces the killed incarnation at once. It receives
	// the replication stream and joins read placement once it reintegrates.
	c.setMember(n, &member{peer: n, classID: -1, joining: true})
	c.startCheckpointer(n)
	c.setHealthGauge(id, "")

	if err := c.reintegrate(n); err != nil {
		return err
	}
	c.changeMember(id, func(m *member) {
		if m.peer == n {
			m.joining = false
		}
	})
	restart.End("")
	return nil
}
