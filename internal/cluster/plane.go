package cluster

import (
	"sync"
	"sync/atomic"

	"dmv/internal/obs"
	"dmv/internal/replica"
	"dmv/internal/scheduler"
)

// Plane is the control plane of one DMV tier: membership, the
// suspicion-ladder failure detector (detector.go), the fail-over pipeline
// (failover.go), the anti-entropy sweep (scrub.go) and read quarantine,
// which the detector and the sweep feed (Plane.quarantine). It sees its
// members only as replica.Peer, so the same type runs over in-process
// *replica.Node values (cluster.New) and over *transport.RemoteNode clients
// (cmd/dmv-scheduler). The two things that genuinely differ between those
// deployments are the constructor's rewire and alive inputs.
type Plane struct {
	cfg     Config
	scheds  []*scheduler.Scheduler
	primary atomic.Int32

	// rewire installs subs as master's replication subscriber set.
	rewire func(master replica.Peer, subs []replica.Peer) error
	// alive is the constructor's local liveness knowledge: the in-process
	// cluster knows a killed node is gone before any probe misses and drops
	// it from topology at once. Nil means none — a remote member counts as
	// running until the detector fences it.
	alive func(replica.Peer) bool

	mu      sync.Mutex
	members map[string]*member // guarded by mu
	order   []string           // guarded by mu

	// tl is the lifecycle event timeline (cfg.Obs's timeline when a
	// registry is configured, a private one otherwise). Never nil.
	tl *obs.Timeline

	// Suspicion-detector counters (nil-safe when no registry is set).
	metSuspicions      *obs.Counter
	metFalseSuspicions *obs.Counter

	// scrubMu serializes anti-entropy sweeps (scrub.go): a slow repair
	// must not overlap the next tick or a test's direct Sweep.
	scrubMu  sync.Mutex
	scrubMet scrubMetrics

	stop chan struct{}
	wg   sync.WaitGroup
}

// member is one node of the tier. Plane.mu protects every field (the
// guardedfield annotation cannot name a lock on another struct).
type member struct {
	peer    replica.Peer
	isSpare bool
	classID int // >= 0 when master of that class
	// joining marks a node inside reintegrate: it receives the replication
	// stream (buffering it) even if it is a stale spare.
	joining bool
	// fenced marks a node declared dead while possibly still running (gray
	// failure): it is excluded from every topology computation even though
	// it may still answer.
	fenced bool
	// Read quarantine has two inputs, each written by one path:
	// suspected by the detector (set on suspicion, dropped once a cleared
	// suspect has been caught up) and diverged by the sweep (the tables
	// whose digest differed from the master's, dropped as each is shown
	// equal again). Plane.quarantine pushes their OR to every scheduler.
	suspected bool
	diverged  map[int]bool
	nodeHealth
}

// NewPlane builds a stopped control plane over the given schedulers
// (scheds[0] is the primary; the rest are standbys mirroring its topology).
// Add the members, then Start.
func NewPlane(cfg Config, scheds []*scheduler.Scheduler, rewire func(master replica.Peer, subs []replica.Peer) error, alive func(replica.Peer) bool) *Plane {
	cfg = cfg.withDefaults()
	tl := cfg.Obs.Timeline()
	if tl == nil {
		tl = obs.NewTimeline()
	}
	return &Plane{
		cfg:                cfg,
		scheds:             scheds,
		rewire:             rewire,
		alive:              alive,
		members:            make(map[string]*member, 16),
		tl:                 tl,
		metSuspicions:      cfg.Obs.Counter(obs.ClusterSuspicions),
		metFalseSuspicions: cfg.Obs.Counter(obs.ClusterFalseSuspicions),
		scrubMet:           newScrubMetrics(cfg.Obs),
		stop:               make(chan struct{}),
	}
}

// AddMaster promotes n to master of conflict class ci and installs it on
// every scheduler.
func (p *Plane) AddMaster(ci int, n replica.Peer) error {
	if err := n.Promote(p.Scheduler().ClassTables(ci)); err != nil {
		return err
	}
	p.setMember(n, &member{peer: n, classID: ci})
	p.eachSched(func(s *scheduler.Scheduler) { s.SetMaster(ci, n) })
	return nil
}

// AddSlave registers n as an active read replica.
func (p *Plane) AddSlave(n replica.Peer) {
	p.setMember(n, &member{peer: n, classID: -1})
	p.eachSched(func(s *scheduler.Scheduler) { s.AddSlave(n) })
}

// AddSpare registers n as a spare backup.
func (p *Plane) AddSpare(n replica.Peer) error {
	if err := n.Demote(replica.RoleSpare); err != nil {
		return err
	}
	p.setMember(n, &member{peer: n, classID: -1, isSpare: true})
	p.eachSched(func(s *scheduler.Scheduler) { s.AddSpare(n) })
	return nil
}

// setMember installs (or, for a restarted node, replaces) a member with
// fresh detector state.
func (p *Plane) setMember(n replica.Peer, m *member) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.members[n.ID()] == nil {
		p.order = append(p.order, n.ID())
	}
	p.members[n.ID()] = m
}

// Start wires every master's subscriber set and launches the failure
// detector and, when configured, the scrub loop.
func (p *Plane) Start() {
	p.rewireSubscribers()
	p.wg.Add(1)
	go p.monitor()
	if p.cfg.ScrubInterval > 0 {
		p.wg.Add(1)
		go p.scrubLoop()
	}
}

// Close stops the background loops and waits for them.
func (p *Plane) Close() {
	select {
	case <-p.stop:
		return // already closed
	default:
	}
	close(p.stop)
	p.wg.Wait()
}

// usable reports whether the member may participate in topology: not
// fenced and, as far as the constructor can tell, running. Callers hold
// p.mu.
func (p *Plane) usable(m *member) bool {
	return !m.fenced && (p.alive == nil || p.alive(m.peer))
}

// rewireSubscribers points every master's replication stream at every other
// live, subscribed node. Stale spares are intentionally left out.
func (p *Plane) rewireSubscribers() {
	p.mu.Lock()
	var masters, receivers []replica.Peer
	for _, id := range p.order {
		m := p.members[id]
		if !p.usable(m) {
			continue
		}
		if m.classID >= 0 {
			masters = append(masters, m.peer)
		}
		if m.isSpare && p.cfg.SpareMode == SpareStale && !m.joining {
			continue
		}
		receivers = append(receivers, m.peer)
	}
	p.mu.Unlock()
	for _, m := range masters {
		subs := make([]replica.Peer, 0, len(receivers))
		for _, r := range receivers {
			if r.ID() != m.ID() {
				subs = append(subs, r)
			}
		}
		if err := p.rewire(m, subs); err != nil {
			p.emit(Event{Kind: EventRewireFailed, Node: m.ID(), Detail: err.Error()})
		}
	}
}

// Scheduler returns the current primary scheduler (the transaction entry
// point).
func (p *Plane) Scheduler() *scheduler.Scheduler {
	return p.scheds[p.primary.Load()]
}

// eachSched applies a topology mutation to every peer scheduler so a
// standby can take over with a current view.
func (p *Plane) eachSched(fn func(*scheduler.Scheduler)) {
	for _, s := range p.scheds {
		fn(s)
	}
}

// quarantine applies update to one of the member's read-quarantine inputs
// and pushes the result, suspected or diverged, to every scheduler. It is
// the only writer of the schedulers' quarantine flags; holding the plane
// lock across the push keeps concurrent updates from landing out of order.
func (p *Plane) quarantine(id string, update func(*member)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.members[id]
	if m == nil {
		return
	}
	update(m)
	q := m.suspected || len(m.diverged) > 0
	p.eachSched(func(s *scheduler.Scheduler) { s.SetQuarantined(id, q) })
}

// Peer returns the named member.
func (p *Plane) Peer(id string) (replica.Peer, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m, ok := p.members[id]
	if !ok {
		return nil, false
	}
	return m.peer, true
}

// NodeIDs lists the members in the order they were added.
func (p *Plane) NodeIDs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.order...)
}

// Health reports the detector's verdict on a member: "healthy", "suspect"
// or "dead" (unknown ids read healthy).
func (p *Plane) Health(id string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if m := p.members[id]; m != nil {
		return healthName(m.state)
	}
	return healthy
}

// MasterID returns the current master of conflict class ci.
func (p *Plane) MasterID(ci int) string {
	m := p.Scheduler().Master(ci)
	if m == nil {
		return ""
	}
	return m.ID()
}

// Events returns a copy of the reconfiguration event log.
func (p *Plane) Events() []Event { return p.tl.Events() }

// OnEvent installs a hook invoked for every event (harness timelines, the
// daemon's log lines).
func (p *Plane) OnEvent(fn func(Event)) { p.tl.OnEvent(fn) }

// Timeline exposes the lifecycle event timeline (never nil).
func (p *Plane) Timeline() *obs.Timeline { return p.tl }

func (p *Plane) emit(ev Event) { p.tl.Record(ev) }
