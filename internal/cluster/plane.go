package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/replica"
	"dmv/internal/scheduler"
	"dmv/internal/vclock"
)

// Plane is the control plane of one DMV tier: the primary and standby
// schedulers, membership, the suspicion-ladder failure detector
// (detector.go), the fail-over pipeline (failover.go), spare upkeep
// (spare.go), the anti-entropy sweep (scrub.go), read quarantine, which the
// detector and the sweep feed (Plane.quarantine), and peer-scheduler
// take-over. Assemble is its one constructor: cluster.New, cmd/dmv-scheduler
// and every remote test tier put a tier together through it. It sees its
// members only as replica.Peer, so the same type runs over in-process
// *replica.Node values and over *transport.RemoteNode clients. The two
// things that genuinely differ between those deployments are Assemble's
// rewire and alive inputs.
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

// Members are a tier's nodes by role. Masters[i] masters cfg.Classes[i], or
// the one class when cfg.Classes is empty.
type Members struct {
	Masters, Slaves, Spares []replica.Peer
}

// Assemble puts a tier together and returns its plane, stopped: add any
// further jobs, then Start it. It builds the primary scheduler and
// cfg.PeerSchedulers standbys over the tables cfg.SchemaDDL creates (only
// the primary admits, with cfg.Admission; every committed version fans out
// to the others), builds the plane over them, and adds m by role. rewire
// installs a master's replication subscriber set; alive is the caller's
// local liveness knowledge, nil for none.
func Assemble(cfg Config, m Members, rewire func(master replica.Peer, subs []replica.Peer) error, alive func(replica.Peer) bool) (*Plane, error) {
	cfg = cfg.withDefaults()
	if len(m.Masters) != max(len(cfg.Classes), 1) {
		return nil, fmt.Errorf("cluster: %d masters for %d conflict classes", len(m.Masters), max(len(cfg.Classes), 1))
	}
	// The catalog: table ids are the schema's creation order, the same on
	// every node.
	cat := heap.NewEngine(heap.Options{})
	for _, ddl := range cfg.SchemaDDL {
		if err := exec.ExecDDL(cat, ddl); err != nil {
			return nil, fmt.Errorf("cluster: schema: %w", err)
		}
	}
	tl := cfg.Obs.Timeline()
	if tl == nil {
		tl = obs.NewTimeline()
	}
	registerEventMetrics(cfg.Obs, tl)
	p := &Plane{
		cfg:                cfg,
		rewire:             rewire,
		alive:              alive,
		members:            make(map[string]*member, 16),
		tl:                 tl,
		metSuspicions:      cfg.Obs.Counter(obs.ClusterSuspicions),
		metFalseSuspicions: cfg.Obs.Counter(obs.ClusterFalseSuspicions),
		scrubMet:           newScrubMetrics(cfg.Obs),
		stop:               make(chan struct{}),
	}
	for si := 0; si <= cfg.PeerSchedulers; si++ {
		opts := scheduler.Options{
			Classes:         cfg.Classes,
			VersionAffinity: !cfg.NoVersionAffinity,
			MaxRetries:      cfg.MaxRetries,
			WarmupShare:     cfg.WarmupShare,
			OnCommit:        cfg.OnCommit,
			OnPeerFailure:   func(id string) { go p.ReportFailure(id) },
			Seed:            cfg.Seed + int64(si),
			Obs:             cfg.Obs,
			Flight:          cfg.Flight,
		}
		if si == 0 {
			// Only the primary admits traffic; standbys must not count
			// occupancy they never see, or a take-over would inherit a
			// queue full of ghosts.
			opts.Admission = cfg.Admission
		}
		sched, err := scheduler.New(opts, cat.NumTables(), cat.TableID)
		if err != nil {
			return nil, err
		}
		p.scheds = append(p.scheds, sched)
	}
	// Committed versions fan out to the standby schedulers: a standby's
	// merged vector must cover every acknowledged commit, or a take-over
	// followed by a master fail-over would roll acknowledged state back.
	for _, s := range p.scheds {
		if len(p.scheds) > 1 {
			s.SetVersionFanout(func(v vclock.Vector) {
				for _, o := range p.scheds {
					if o != s {
						o.ReportVersion(v)
					}
				}
			})
		}
	}
	for ci, n := range m.Masters {
		if err := n.Promote(p.Scheduler().ClassTables(ci)); err != nil {
			return nil, fmt.Errorf("cluster: promote %s: %w", n.ID(), err)
		}
		p.setMember(n, &member{peer: n, classID: ci})
		p.eachSched(func(s *scheduler.Scheduler) { s.SetMaster(ci, n) })
	}
	for _, n := range m.Slaves {
		p.setMember(n, &member{peer: n, classID: -1})
		p.eachSched(func(s *scheduler.Scheduler) { s.AddSlave(n) })
	}
	for _, n := range m.Spares {
		if err := n.Demote(replica.RoleSpare); err != nil {
			return nil, fmt.Errorf("cluster: spare %s: %w", n.ID(), err)
		}
		p.setMember(n, &member{peer: n, classID: -1, isSpare: true})
		p.eachSched(func(s *scheduler.Scheduler) { s.AddSpare(n) })
	}
	return p, nil
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

// registerEventMetrics counts every lifecycle event on the timeline and
// feeds fail-over recovery durations into their histogram.
func registerEventMetrics(reg *obs.Registry, tl *obs.Timeline) {
	if reg == nil {
		return
	}
	events := reg.Counter(obs.ClusterEvents)
	recoveryUS := reg.Histogram(obs.FailoverRecoveryUS)
	tl.OnEvent(func(ev Event) {
		events.Add(1)
		if ev.Kind == EventRecoveryDone && ev.Duration > 0 {
			recoveryUS.Observe(ev.Duration.Microseconds())
		}
	})
}

// Start wires every master's subscriber set and launches the periodic
// jobs: the failure detector, and, as configured, the scrub sweep and the
// spare upkeep (spare.go).
func (p *Plane) Start() {
	p.rewireSubscribers()
	p.every(p.cfg.HeartbeatInterval, p.probeAll)
	p.every(p.cfg.ScrubInterval, func() { p.Sweep() })
	p.startSpareUpkeep()
}

// every runs fn once per period until Close (period <= 0: never). A tick
// that fn overruns is dropped, so runs never overlap.
func (p *Plane) every(period time.Duration, fn func()) {
	if period <= 0 {
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-ticker.C:
				fn()
			}
		}
	}()
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

// KillScheduler fails the primary scheduler and promotes the next peer: the
// new primary runs the Section 4.1 take-over (masters abort transactions
// orphaned by the failed scheduler and report their highest versions).
// Returns the index of the new primary, or an error when no peer remains.
func (p *Plane) KillScheduler() (int, error) {
	cur := int(p.primary.Load())
	next := cur + 1
	if next >= len(p.scheds) {
		return cur, errors.New("cluster: no peer scheduler left")
	}
	if err := p.scheds[next].TakeOver(); err != nil {
		return cur, err
	}
	p.primary.Store(int32(next))
	p.emit(Event{Kind: EventSchedulerSwitch, Node: fmt.Sprintf("scheduler%d", next)})
	return next, nil
}

// Run executes one transaction through the primary scheduler.
func (p *Plane) Run(spec scheduler.TxnSpec, fn func(*scheduler.Txn) error) error {
	return p.Scheduler().Run(spec, fn)
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

// obsSource is a member that serves its share of the cluster view:
// *replica.Node in process, *transport.RemoteNode over the ObsSnapshot RPC.
type obsSource interface {
	ObsSnapshot() (obs.NodeSnapshot, error)
}

// ClusterSnapshot builds the tier's aggregation view (/cluster) the same
// way in process and over TCP: every member's ObsSnapshot and the plane's
// own registry (scheduler, admission, scrub, WAL, persist and transport
// client metrics), merged by obs.MergeSnapshots over the primary
// scheduler's version vector, with the detector's health verdicts. A member
// the detector has declared dead is not asked, so a scrape never waits out
// a dead node's retries; it and any member whose snapshot fails are listed
// down.
func (p *Plane) ClusterSnapshot() obs.ClusterSnapshot {
	type entry struct {
		peer   replica.Peer
		health string
	}
	p.mu.Lock()
	entries := make([]entry, 0, len(p.order))
	for _, id := range p.order {
		m := p.members[id]
		entries = append(entries, entry{m.peer, healthName(m.state)})
	}
	p.mu.Unlock()

	nss := make([]obs.NodeSnapshot, 0, len(entries)+1)
	var down []obs.NodeLag
	health := make(map[string]string, len(entries))
	for _, e := range entries {
		id := e.peer.ID()
		health[id] = e.health
		if src, ok := e.peer.(obsSource); ok && e.health != healthDead {
			if ns, err := src.ObsSnapshot(); err == nil {
				nss = append(nss, ns)
				continue
			}
		}
		down = append(down, obs.NodeLag{Node: id, Role: "down"})
	}
	if reg := p.cfg.Obs; reg != nil {
		nss = append(nss, obs.NodeSnapshot{Registry: reg.ID(), Snap: reg.Snapshot(), Spans: reg.Tracer().Dump()})
	}
	cs := obs.MergeSnapshots(nss, p.Scheduler().Latest())
	cs.Nodes = append(cs.Nodes, down...)
	sort.Slice(cs.Nodes, func(i, j int) bool { return cs.Nodes[i].Node < cs.Nodes[j].Node })
	for i := range cs.Nodes {
		cs.Nodes[i].Health = health[cs.Nodes[i].Node]
	}
	return cs
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
