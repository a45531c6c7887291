package cluster

import (
	"errors"
	"fmt"
	"slices"
	"strings"
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
// schedulers, membership, the failure detector (detector.go), the fail-over
// pipeline (failover.go), spare upkeep (spare.go), the anti-entropy sweep
// (scrub.go), read quarantine and peer-scheduler take-over. It sees its
// members only as replica.Peer, so the same type runs in process and over
// TCP; only Assemble's rewire and alive inputs differ between the two.
type Plane struct {
	cfg     Config
	scheds  []*scheduler.Scheduler
	primary atomic.Int32

	// rewire installs subs as master's replication subscriber set.
	rewire func(master replica.Peer, subs []replica.Peer) error
	// alive is the constructor's local liveness knowledge (nil: none, so a
	// remote member counts as running until the detector fences it).
	alive func(replica.Peer) bool

	mu      sync.Mutex
	members map[string]*member // guarded by mu
	order   []string           // guarded by mu
	// installed is the set rewire last installed on each master (dmvdebug).
	installed map[replica.Peer][]replica.Peer // guarded by mu

	tl *obs.Timeline // cfg.Obs's timeline, else a private one

	// Suspicion-detector counters (nil-safe when no registry is set).
	metSuspicions      *obs.Counter
	metFalseSuspicions *obs.Counter

	scrubMu  sync.Mutex // serializes anti-entropy sweeps (scrub.go)
	scrubMet scrubMetrics

	q    actionQueue // the plane's side effects, in decision order (actions.go)
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
	// fenced marks a node declared dead while possibly still running: it
	// is excluded from every topology computation.
	fenced bool
	// rejoining marks a node Restart rebuilt and has not yet reintegrated:
	// it receives the replication stream but stays out of read placement.
	rejoining bool
	// Read quarantine has two inputs, each written by one path: suspected
	// by the detector and diverged by the sweep (the tables whose digest
	// differed from the master's). placeLocked quarantines while either holds.
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
// cfg.PeerSchedulers standbys over the tables cfg.SchemaDDL creates, the
// plane over them, and adds m by role. rewire installs a master's
// replication subscriber set; alive is the caller's liveness knowledge.
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
		alive:              alive,
		members:            make(map[string]*member, 16),
		installed:          make(map[replica.Peer][]replica.Peer),
		tl:                 tl,
		metSuspicions:      cfg.Obs.Counter(obs.ClusterSuspicions),
		metFalseSuspicions: cfg.Obs.Counter(obs.ClusterFalseSuspicions),
		scrubMet:           newScrubMetrics(cfg.Obs),
		q:                  actionQueue{reporting: make(map[string]bool), wake: make(chan struct{}, 1)},
		stop:               make(chan struct{}),
	}
	p.rewire = func(master replica.Peer, subs []replica.Peer) error {
		err := rewire(master, subs)
		if debugBuild && err == nil {
			p.mu.Lock()
			p.installed[master] = subs
			p.mu.Unlock()
		}
		return err
	}
	for si := 0; si <= cfg.PeerSchedulers; si++ {
		opts := scheduler.Options{
			Classes:         cfg.Classes,
			VersionAffinity: !cfg.NoVersionAffinity,
			MaxRetries:      cfg.MaxRetries,
			WarmupShare:     cfg.WarmupShare,
			OnCommit:        cfg.OnCommit,
			OnPeerFailure:   p.ReportFailure,
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
	}
	for _, n := range m.Slaves {
		p.setMember(n, &member{peer: n, classID: -1})
	}
	for _, n := range m.Spares {
		if err := n.Demote(replica.RoleSpare); err != nil {
			return nil, fmt.Errorf("cluster: spare %s: %w", n.ID(), err)
		}
		p.setMember(n, &member{peer: n, classID: -1, isSpare: true})
	}
	return p, nil
}

// setMember installs, or for a restarted node replaces, a member with fresh
// detector state, and places the tier again.
func (p *Plane) setMember(n replica.Peer, m *member) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.members[n.ID()] == nil {
		p.order = append(p.order, n.ID())
	}
	p.members[n.ID()] = m
	p.placeLocked()
}

// placeLocked derives every scheduler's class masters and read placement
// from the member record and installs them (DESIGN.md §10, "Membership and
// placement"). Callers hold p.mu and call it wherever a member changes, so
// the schedulers see every change in the order it was made. It is the one
// place a master is published, so a new master is subscribed first
// (publishMaster).
func (p *Plane) placeLocked() {
	masters := make([]replica.Peer, p.scheds[0].NumClasses())
	var slaves, spares []replica.Peer
	quarantined := make(map[string]bool)
	for _, id := range p.order {
		m := p.members[id]
		switch {
		case m.state == healthDead || m.rejoining:
			continue
		case m.classID >= 0:
			masters[m.classID] = m.peer
			continue
		case m.isSpare:
			spares = append(spares, m.peer)
		default:
			slaves = append(slaves, m.peer)
		}
		if m.suspected || len(m.diverged) > 0 {
			quarantined[id] = true
		}
	}
	for _, s := range p.scheds {
		for ci, m := range masters {
			s.SetMaster(ci, m)
		}
		s.SetReplicas(slaves, spares, quarantined)
	}
	if debugBuild {
		p.checkSubscribedLocked(masters)
	}
}

// checkSubscribedLocked panics, from Start's rewire on, if the set rewire
// last installed on a master placement publishes lacks a usable placed
// slave or hot spare.
func (p *Plane) checkSubscribedLocked(masters []replica.Peer) {
	for _, master := range masters {
		for _, id := range p.order {
			m := p.members[id]
			hot := !m.isSpare || p.cfg.SpareMode == SpareHot
			if master != nil && len(p.installed) > 0 && m.classID < 0 && !m.rejoining && hot && p.usable(m) &&
				!slices.Contains(p.installed[master], m.peer) {
				panic(fmt.Sprintf("cluster: master %s published without subscriber %s", master.ID(), id))
			}
		}
	}
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

// Start wires every master's subscriber set and launches the worker and
// the periodic jobs: the detector, the sweep and the spare upkeep.
func (p *Plane) Start() {
	p.rewireSubscribers()
	p.wg.Add(1)
	go p.work()
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

// Close stops the worker and the periodic jobs and waits for them. Queued
// actions do not run: a Restart waiting on one returns ErrClosed.
func (p *Plane) Close() {
	select {
	case <-p.stop:
		return // already closed
	default:
	}
	p.q.close()
	close(p.stop)
	p.wg.Wait()
}

// usable reports whether the member may participate in topology: not
// fenced and, as far as the constructor can tell, running. Callers hold
// p.mu.
func (p *Plane) usable(m *member) bool {
	return !m.fenced && (p.alive == nil || p.alive(m.peer))
}

// rewireSubscribers points every master's replication stream at its
// subscribers (subscribersLocked).
func (p *Plane) rewireSubscribers() {
	p.mu.Lock()
	var masters []replica.Peer
	var subs [][]replica.Peer
	for _, id := range p.order {
		if m := p.members[id]; m.classID >= 0 && p.usable(m) {
			masters = append(masters, m.peer)
			subs = append(subs, p.subscribersLocked(m.peer))
		}
	}
	p.mu.Unlock()
	for i, m := range masters {
		if err := p.rewire(m, subs[i]); err != nil {
			p.emit(Event{Kind: EventRewireFailed, Node: m.ID(), Detail: err.Error()})
		}
	}
}

// subscribersLocked derives master's subscriber set from the member
// record: every other usable member but a stale spare outside reintegrate.
func (p *Plane) subscribersLocked(master replica.Peer) []replica.Peer {
	var subs []replica.Peer
	for _, id := range p.order {
		m := p.members[id]
		if m.peer != master && p.usable(m) && !(m.isSpare && p.cfg.SpareMode == SpareStale && !m.joining) {
			subs = append(subs, m.peer)
		}
	}
	return subs
}

// KillScheduler fails the primary scheduler and promotes the next peer,
// which runs the Section 4.1 take-over. It returns the new primary's index,
// or an error when no peer remains.
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

// changeMember applies update to member id, if any, and places the tier
// again.
func (p *Plane) changeMember(id string, update func(*member)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if m := p.members[id]; m != nil {
		update(m)
		p.placeLocked()
	}
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

// localObsSource is an in-process member (*replica.Node), whose registry
// may be shared with other members and the plane: it copies a registry
// only if taken does not hold its ID yet.
type localObsSource interface {
	ObsSnapshotOnce(taken map[uint64]bool) (obs.NodeSnapshot, error)
}

// memberObs takes member n's share of the cluster view, copying an
// in-process member's registry only if taken does not hold it; ok is false
// when n serves no share or its snapshot fails.
func memberObs(n replica.Peer, taken map[uint64]bool) (ns obs.NodeSnapshot, ok bool) {
	var err error
	switch src := n.(type) {
	case localObsSource:
		ns, err = src.ObsSnapshotOnce(taken)
	case obsSource:
		ns, err = src.ObsSnapshot()
	default:
		return ns, false
	}
	return ns, err == nil
}

// ClusterSnapshot builds the tier's aggregation view (/cluster) the same
// way in process and over TCP: every member's ObsSnapshot and the plane's
// own registry, merged over the primary scheduler's version vector, with
// the detector's health verdicts. A member declared dead is not asked, so a
// scrape never waits out its retries; it and any member whose snapshot
// fails are listed down. In process, each registry the members and the
// plane share is copied once: the merge counts only its first copy.
func (p *Plane) ClusterSnapshot() obs.ClusterSnapshot {
	p.mu.Lock()
	peers := make([]replica.Peer, 0, len(p.order))
	health := make(map[string]string, len(p.order))
	for _, id := range p.order {
		m := p.members[id]
		peers = append(peers, m.peer)
		health[id] = healthName(m.state)
	}
	p.mu.Unlock()

	nss := make([]obs.NodeSnapshot, 0, len(peers)+1)
	var down []obs.NodeLag
	taken := make(map[uint64]bool, 1) // the registries copied in process
	for _, n := range peers {
		id := n.ID()
		if health[id] != healthDead {
			if ns, ok := memberObs(n, taken); ok {
				nss = append(nss, ns)
				continue
			}
		}
		down = append(down, obs.NodeLag{Node: id, Role: "down"})
	}
	if reg := p.cfg.Obs; reg != nil && !taken[reg.ID()] {
		nss = append(nss, obs.NodeSnapshot{Registry: reg.ID(), Snap: reg.Snapshot(), Spans: reg.Tracer().Dump()})
	}
	cs := obs.MergeSnapshots(nss, p.Scheduler().Latest())
	cs.Nodes = append(cs.Nodes, down...)
	slices.SortFunc(cs.Nodes, func(a, b obs.NodeLag) int { return strings.Compare(a.Node, b.Node) })
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

// OnEvent installs a hook invoked for every event, mostly on the plane's
// worker, so a hook must not wait on a plane action such as Restart.
func (p *Plane) OnEvent(fn func(Event)) { p.tl.OnEvent(fn) }

func (p *Plane) emit(ev Event) { p.tl.Record(ev) }
