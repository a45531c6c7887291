// Package scheduler implements the paper's version-aware scheduler: it
// routes update transactions to their conflict-class master, tags each
// read-only transaction with the latest version vector reported by the
// masters, prefers replicas already serving that version (keeping
// version-conflict aborts negligible), falls back to load balancing, retries
// aborted readers, and feeds committed update statements to the on-disk
// persistence tier.
package scheduler

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dmv/internal/exec"
	"dmv/internal/obs"
	"dmv/internal/obs/flight"
	"dmv/internal/replica"
	"dmv/internal/vclock"
)

// Errors surfaced by the scheduler.
var (
	// ErrNoReplicas reports that no replica is available for a transaction.
	ErrNoReplicas = errors.New("scheduler: no replicas available")
	// ErrRetriesExhausted reports a transaction that kept aborting.
	ErrRetriesExhausted = errors.New("scheduler: retries exhausted")
	// ErrUnknownTable reports a TxnSpec naming a table outside the schema.
	ErrUnknownTable = errors.New("scheduler: unknown table in transaction spec")
	// ErrCommitUncertain reports an update commit whose acknowledgment was
	// lost to a deadline: the master may or may not have committed. Blind
	// retry could apply the update twice, so the scheduler surfaces the
	// ambiguity instead of retrying; the commit-fence fail-over rollback
	// resolves it (an unacknowledged commit's version is above the rollback
	// point and is discarded everywhere).
	ErrCommitUncertain = errors.New("scheduler: commit outcome unknown (peer deadline)")
)

// ConflictClass names a disjoint set of tables mastered by one node. The
// scheduler is pre-configured with the classes (the paper derives them from
// the application's transaction types).
type ConflictClass struct {
	Name   string
	Tables []string
}

// CommitRecord is what the scheduler logs per committed update transaction:
// its version and its update statements, in execution order.
type CommitRecord struct {
	Version vclock.Vector
	Stmts   []exec.LoggedStmt
}

// Options configure a scheduler.
type Options struct {
	// Classes partition the tables; empty means one class holding every
	// table (single-master operation).
	Classes []ConflictClass
	// VersionAffinity enables same-version replica preference (the ablation
	// turns it off to measure the abort-rate impact).
	VersionAffinity bool
	// MaxRetries bounds automatic retries of aborted transactions.
	MaxRetries int
	// WarmupShare is the fraction of read-only transactions routed to spare
	// backups to keep their caches warm (the paper uses <1%).
	WarmupShare float64
	// OnCommit, if non-nil, receives every committed update transaction
	// (version + statements); the persistence tier subscribes here.
	OnCommit func(CommitRecord)
	// OnPeerFailure, if non-nil, is told about replicas that failed a call;
	// the cluster layer reconfigures.
	OnPeerFailure func(peerID string)
	// Admission configures the bounded admission queue in front of
	// transaction begin (per-class occupancy slots, CoDel shed law). The
	// zero value (Slots <= 0) disables admission control entirely.
	Admission AdmissionOptions
	// Seed seeds the spare-routing RNG (0 = fixed default).
	Seed int64
	// Obs receives the scheduler's metrics and per-transaction trace
	// spans. Nil falls back to a private registry (counters keep working,
	// exposition and tracing are off). Peer schedulers sharing one registry
	// share one set of counters — the cluster-wide view.
	Obs *obs.Registry
	// Flight, if non-nil, receives anomaly triggers from the scheduler:
	// fail-over start and commit-uncertain outcomes enqueue cluster-wide
	// flight dumps.
	Flight *flight.Recorder
}

// Stats are cumulative scheduler counters, backed by the metrics registry
// (the fields are registry counters, so benches and the HTTP exposition
// read the same numbers). The Load-based API matches the atomic.Int64
// fields these used to be.
type Stats struct {
	ReadTxns      *obs.Counter
	UpdateTxns    *obs.Counter
	VersionAborts *obs.Counter
	LockRetries   *obs.Counter
	Failovers     *obs.Counter
}

type replicaState struct {
	peer        replica.Peer
	outstanding atomic.Int64

	// quarantined marks a replica the failure detector suspects (slow or
	// unreachable, not yet confirmed dead): read placement avoids it so
	// one gray node cannot inflate read latencies, but it keeps receiving
	// the replication stream and rejoins placement the moment the
	// suspicion clears.
	quarantined atomic.Bool

	// lastVer is the version the replica's readers were last pinned to.
	// pickReader writes and reads it under Scheduler.mu held exclusive and
	// LowWater reads it under Scheduler.mu held shared, so Scheduler.mu
	// guards it (the guardedfield annotation cannot name a lock on another
	// struct).
	lastVer vclock.Vector
}

func (r *replicaState) setVer(v vclock.Vector) { r.lastVer = v }

func (r *replicaState) atVer(v vclock.Vector) bool { return r.lastVer != nil && r.lastVer.Equal(v) }

type classState struct {
	name     string
	tables   map[string]struct{}
	tableIDs []int

	mu     sync.RWMutex
	master replica.Peer // guarded by mu
}

// Scheduler routes transactions across the in-memory tier.
type Scheduler struct {
	opts    Options
	merged  *vclock.Merged
	classes []*classState
	classOf map[string]int

	// commitFence orders update-commit acknowledgments against master
	// fail-over rollback. A commit holds it shared across [master
	// TxCommit; merged.Report]; FailoverMaster holds it exclusive across
	// [read Latest; DiscardAbove; ResetVersion; elect; Promote; subscribe;
	// publish]. Without the fence a commit can broadcast its write-set,
	// have the rollback discard it from every replica, and still
	// acknowledge success to the client — a lost update; and a commit on a
	// new master published before it is subscribed reaches no replica.
	commitFence sync.RWMutex

	// fanout forwards committed version vectors to peer schedulers so a
	// standby's merged vector always covers every acknowledged commit.
	// Wired once before the scheduler serves traffic; nil without peers.
	fanout func(vclock.Vector)

	mu     sync.RWMutex
	slaves []*replicaState // guarded by mu
	spares []*replicaState // guarded by mu

	rngMu sync.Mutex
	rng   *rand.Rand // guarded by rngMu

	rrSeq atomic.Int64 // rotates tie-breaking across equally-loaded replicas

	stats  *Stats
	met    schedMetrics
	tracer *obs.Tracer      // nil unless Options.Obs was set
	flight *flight.Recorder // nil-safe anomaly trigger sink

	// admit is the bounded admission queue gating begin (nil = admission
	// control disabled).
	admit *Admitter
}

// schedMetrics holds the registry handles beyond the public Stats set.
type schedMetrics struct {
	abortNodeDown     *obs.Counter
	abortPeerTimeout  *obs.Counter
	retriesExhausted  *obs.Counter
	txnUS             *obs.Histogram
	deadlineAbandoned *obs.Counter
}

// New builds a scheduler over the given schema tables. numTables sizes the
// version vectors; tableID resolves names (both typically come from a
// reference engine).
func New(opts Options, numTables int, tableID func(string) (int, bool)) (*Scheduler, error) {
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 10
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 42
	}
	reg := opts.Obs
	if reg == nil {
		reg = obs.New() // private registry: Stats keep working, no exposition
	}
	s := &Scheduler{
		opts:    opts,
		merged:  vclock.NewMerged(numTables),
		classOf: make(map[string]int, 16),
		rng:     rand.New(rand.NewSource(seed)),
		stats: &Stats{
			ReadTxns:      reg.Counter(obs.SchedReadTxns),
			UpdateTxns:    reg.Counter(obs.SchedUpdateTxns),
			VersionAborts: reg.Counter(obs.SchedAbortVersion),
			LockRetries:   reg.Counter(obs.SchedAbortLockTimeout),
			Failovers:     reg.Counter(obs.SchedFailovers),
		},
		met: schedMetrics{
			abortNodeDown:     reg.Counter(obs.SchedAbortNodeDown),
			abortPeerTimeout:  reg.Counter(obs.SchedAbortPeerTimeout),
			retriesExhausted:  reg.Counter(obs.SchedRetriesExhausted),
			txnUS:             reg.Histogram(obs.SchedTxnUS),
			deadlineAbandoned: reg.Counter(obs.SchedDeadlineAbandoned),
		},
		tracer: opts.Obs.Tracer(), // nil when Obs is nil: spans cost nothing
		flight: opts.Flight,
	}
	if len(opts.Classes) == 0 {
		opts.Classes = []ConflictClass{{Name: "all"}}
	}
	for ci, cc := range opts.Classes {
		cs := &classState{name: cc.Name, tables: make(map[string]struct{}, len(cc.Tables))}
		for _, t := range cc.Tables {
			id, ok := tableID(t)
			if !ok {
				return nil, fmt.Errorf("%w: %q", ErrUnknownTable, t)
			}
			if prev, dup := s.classOf[t]; dup {
				return nil, fmt.Errorf("scheduler: table %q in classes %d and %d (classes must be disjoint)", t, prev, ci)
			}
			cs.tables[t] = struct{}{}
			cs.tableIDs = append(cs.tableIDs, id)
			s.classOf[t] = ci
		}
		s.classes = append(s.classes, cs)
	}
	if opts.Admission.Slots > 0 {
		// One admission class per conflict class plus the shared read class;
		// the admitter derives its RNG from the scheduler seed so retry-after
		// hints are reproducible under a fixed seed.
		s.admit = newAdmitter(opts.Admission, len(s.classes), seed, reg, reg.Timeline(), opts.Flight)
	}
	return s, nil
}

// AdmissionPressure reports the admission queue's occupancy in [0, 1]
// (0 when admission control is disabled). It is the control plane's one
// overload signal: a queue that stays saturated activates a spare.
func (s *Scheduler) AdmissionPressure() float64 {
	if s.admit == nil {
		return 0
	}
	return s.admit.Pressure()
}

// Stats exposes the counters.
func (s *Scheduler) Stats() *Stats { return s.stats }

// Latest returns the newest merged version vector (what the next reader
// would be tagged with).
func (s *Scheduler) Latest() vclock.Vector { return s.merged.Latest() }

// ReportVersion merges a master-produced vector (scheduler fail-over uses it
// to rebuild state from master reports).
func (s *Scheduler) ReportVersion(v vclock.Vector) { s.merged.Report(v) }

// ResetVersion overwrites the merged vector (master fail-over rollback).
func (s *Scheduler) ResetVersion(v vclock.Vector) { s.merged.Reset(v) }

// SetVersionFanout installs a hook receiving every committed version vector
// (after it is merged locally). The cluster wires it to ReportVersion on
// every peer scheduler. Must be called before the scheduler serves traffic.
func (s *Scheduler) SetVersionFanout(fn func(vclock.Vector)) { s.fanout = fn }

// --- topology management (driven by the cluster layer) ----------------------

// SetMaster installs the master peer for conflict class ci. A master serves
// no scheduled reads, so p leaves the read placement.
func (s *Scheduler) SetMaster(ci int, p replica.Peer) {
	if ci < 0 || ci >= len(s.classes) {
		return
	}
	cs := s.classes[ci]
	cs.mu.Lock()
	cs.master = p
	cs.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	isP := func(r *replicaState) bool { return r.peer == p }
	s.slaves = slices.DeleteFunc(s.slaves, isP)
	s.spares = slices.DeleteFunc(s.spares, isP)
}

// Master returns the current master of class ci.
func (s *Scheduler) Master(ci int) replica.Peer {
	if ci < 0 || ci >= len(s.classes) {
		return nil
	}
	cs := s.classes[ci]
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	return cs.master
}

// NumClasses returns the number of conflict classes.
func (s *Scheduler) NumClasses() int { return len(s.classes) }

// ClassTables returns the table ids of class ci.
func (s *Scheduler) ClassTables(ci int) []int {
	if ci < 0 || ci >= len(s.classes) {
		return nil
	}
	return append([]int(nil), s.classes[ci].tableIDs...)
}

// AddSlave registers an active read replica.
func (s *Scheduler) AddSlave(p replica.Peer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.slaves {
		if r.peer.ID() == p.ID() {
			return
		}
	}
	s.slaves = append(s.slaves, &replicaState{peer: p})
}

// SetReplicas installs the read placement: the active slaves, the spare
// backups (they receive the replication stream and, optionally, a trickle
// of warm-up reads) and the ids under quarantine, which read placement
// skips unless every slave is quarantined, so availability degrades
// gracefully rather than to zero on a false mass-suspicion. A peer object
// already placed keeps its replica state (outstanding readers, version
// pin), whichever set it moves to; a new object starts fresh, even under
// a placed id. A class master is never placed.
func (s *Scheduler) SetReplicas(slaves, spares []replica.Peer, quarantined map[string]bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	keep := make(map[replica.Peer]*replicaState, len(s.slaves)+len(s.spares))
	for _, set := range [][]*replicaState{s.slaves, s.spares} {
		for _, r := range set {
			keep[r.peer] = r
		}
	}
	masters := make(map[replica.Peer]bool, len(s.classes))
	for ci := range s.classes {
		masters[s.Master(ci)] = true
	}
	place := func(peers []replica.Peer) []*replicaState {
		out := make([]*replicaState, 0, len(peers))
		for _, p := range peers {
			if masters[p] {
				continue
			}
			r := keep[p]
			if r == nil {
				r = &replicaState{peer: p}
			}
			r.quarantined.Store(quarantined[p.ID()])
			out = append(out, r)
		}
		return out
	}
	s.slaves, s.spares = place(slaves), place(spares)
}

// Quarantined returns the ids currently under suspicion.
func (s *Scheduler) Quarantined() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for _, set := range [][]*replicaState{s.slaves, s.spares} {
		for _, r := range set {
			if r.quarantined.Load() {
				out = append(out, r.peer.ID())
			}
		}
	}
	return out
}

// Slaves returns the ids of the active read replicas.
func (s *Scheduler) Slaves() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, len(s.slaves))
	for i, r := range s.slaves {
		out[i] = r.peer.ID()
	}
	return out
}

// Spares returns the ids of the spare backups.
func (s *Scheduler) Spares() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, len(s.spares))
	for i, r := range s.spares {
		out[i] = r.peer.ID()
	}
	return out
}

// SlaveList returns the active slave peers.
func (s *Scheduler) SlaveList() []replica.Peer {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]replica.Peer, len(s.slaves))
	for i, r := range s.slaves {
		out[i] = r.peer
	}
	return out
}

// classFor maps a transaction's table set to its conflict class. Tables
// outside every configured class, or spanning classes, fall back to class 0
// (the paper schedules such transactions on a single designated master).
func (s *Scheduler) classFor(tables []string) int {
	class := -1
	for _, t := range tables {
		ci, ok := s.classOf[t]
		if !ok {
			return 0
		}
		if class == -1 {
			class = ci
		} else if class != ci {
			return 0
		}
	}
	if class == -1 {
		return 0
	}
	return class
}

// pickReader selects the replica for a read-only transaction tagged with v,
// implementing the paper's version-aware policy: prefer a replica already
// running transactions with the same version vector; otherwise assign an
// idle replica to this version; otherwise wait briefly for one to drain
// ("read-only transactions may need to wait"); as a last resort pick the
// least-loaded replica and accept the version-conflict abort risk. A spare
// backup is chosen with probability WarmupShare to keep its cache warm.
func (s *Scheduler) pickReader(v vclock.Vector) *replicaState {
	s.mu.RLock()
	nSpares := len(s.spares)
	s.mu.RUnlock()
	if nSpares > 0 && s.opts.WarmupShare > 0 {
		s.rngMu.Lock()
		dice := s.rng.Float64()
		idx := s.rng.Intn(nSpares)
		s.rngMu.Unlock()
		if dice < s.opts.WarmupShare {
			s.mu.RLock()
			defer s.mu.RUnlock()
			if idx < len(s.spares) && !s.spares[idx].quarantined.Load() {
				sp := s.spares[idx]
				sp.outstanding.Add(1)
				return sp
			}
		}
	}
	// Wait up to a few read-transaction lifetimes for a safe replica to
	// drain before risking aborts ("read-only transactions may need to
	// wait for other read-only transactions using a previous version").
	deadline := time.Now().Add(60 * time.Millisecond)
	for {
		s.mu.Lock()
		if len(s.slaves) == 0 {
			s.mu.Unlock()
			return nil
		}
		// A replica is a safe candidate for version v iff it has no
		// outstanding readers (it gets pinned to v) or its outstanding
		// readers are already at v. Placing v on a replica busy with a
		// different version risks aborting one side or the other, so those
		// replicas are used only as a last resort after a bounded wait.
		// Ties rotate so equally-loaded replicas share the work.
		// Quarantined (suspect) replicas are passed over entirely while any
		// healthy one exists; they reappear the moment suspicion clears.
		start := int(s.rrSeq.Add(1))
		var best, least, leastAny *replicaState
		for i := range s.slaves {
			r := s.slaves[(start+i)%len(s.slaves)]
			out := r.outstanding.Load()
			if leastAny == nil || out < leastAny.outstanding.Load() {
				leastAny = r
			}
			if r.quarantined.Load() {
				continue
			}
			if least == nil || out < least.outstanding.Load() {
				least = r
			}
			if !s.opts.VersionAffinity {
				continue
			}
			if out == 0 || r.atVer(v) {
				if best == nil || out < best.outstanding.Load() {
					best = r
				}
			}
		}
		if least == nil {
			// Every slave is under suspicion: degrade to the least-loaded
			// suspect rather than refusing reads outright.
			least = leastAny
		}
		if !s.opts.VersionAffinity {
			least.outstanding.Add(1)
			s.mu.Unlock()
			return least
		}
		if best != nil {
			best.setVer(v)
			best.outstanding.Add(1)
			s.mu.Unlock()
			return best
		}
		if time.Now().After(deadline) {
			least.outstanding.Add(1)
			s.mu.Unlock()
			return least
		}
		s.mu.Unlock()
		time.Sleep(100 * time.Microsecond)
	}
}

// AvgOutstanding returns the mean number of in-flight read transactions per
// active slave (tests check it drains to zero).
func (s *Scheduler) AvgOutstanding() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.slaves) == 0 {
		return 0
	}
	total := int64(0)
	for _, r := range s.slaves {
		total += r.outstanding.Load()
	}
	return float64(total) / float64(len(s.slaves))
}

// LowWater returns the oldest version vector any in-flight read-only
// transaction may be using: the element-wise minimum of the latest merged
// vector and the pinned versions of replicas with outstanding readers. Index
// garbage collection below this mark is safe — new readers are always tagged
// with the (newer) merged vector.
func (s *Scheduler) LowWater() vclock.Vector {
	lw := s.merged.Latest()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, set := range [][]*replicaState{s.slaves, s.spares} {
		for _, r := range set {
			if r.outstanding.Load() == 0 {
				continue
			}
			if r.lastVer != nil {
				lw = lw.MinInto(r.lastVer)
			}
		}
	}
	return lw
}

// TakeOver executes the scheduler fail-over protocol of Section 4.1 on this
// (peer) scheduler: ask every master to abort the transactions that were
// active under the failed scheduler, collect the highest version each master
// produced, and adopt the merged vector as the tier's current state. The
// caller then points clients at this scheduler (the "new topology"
// broadcast).
func (s *Scheduler) TakeOver() error {
	merged := vclock.New(0)
	for ci := 0; ci < s.NumClasses(); ci++ {
		m := s.Master(ci)
		if m == nil {
			continue
		}
		if _, err := m.AbortActiveSessions(); err != nil {
			return fmt.Errorf("take over: abort on %s: %w", m.ID(), err)
		}
		v, err := m.MaxVersions()
		if err != nil {
			return fmt.Errorf("take over: versions from %s: %w", m.ID(), err)
		}
		merged = merged.Merge(v)
	}
	// Merge rather than overwrite: a commit finishing between the poll
	// above and this line has already fanned its version out to this
	// scheduler, and a blind reset would drop it below an acknowledged
	// version — the rollback point of a later master fail-over.
	s.merged.Report(merged)
	return nil
}

func (s *Scheduler) reportFailure(id string) {
	s.stats.Failovers.Add(1)
	if s.opts.OnPeerFailure != nil {
		s.opts.OnPeerFailure(id)
	}
}

// FailoverMaster is the one implementation of the commit-fenced master
// fail-over rollback of Section 4.2 for conflict class ci: under the fence
// it reads the rollback point, has every survivor discard above it, resets
// the merged vector, elects the candidate with the highest produced
// version, promotes it and hands it to publish: the control plane's step
// (cluster.Plane) that subscribes the winner and only then installs it as
// class master on every scheduler. A winner publish refuses is not installed.
//
// candidates may win the election; rollbackOnly peers (spares, other
// classes' masters) are rolled back but never elected. group lists every
// scheduler sharing this topology, s included: all are fenced and reset,
// so a standby that takes over later cannot resurrect discarded versions.
// The slice order is the lock order; every caller must pass the same one.
//
// Survivors that fail their discard are skipped (they are reconciled by
// reintegration when they return); a candidate that cannot be probed for
// its versions simply cannot win the election. With no electable candidate
// the class is left masterless and ErrNoReplicas returned.
func (s *Scheduler) FailoverMaster(ci int, candidates, rollbackOnly []replica.Peer, group []*Scheduler, publish func(ci int, master replica.Peer) error) (replica.Peer, error) {
	// The fence makes the rollback atomic against in-flight commits: a
	// commit either reports its version before the fence closes (so the
	// rollback point covers it and its write-sets survive the discard) or
	// runs entirely after and fails against the dead master.
	for _, g := range group {
		g.commitFence.Lock()
	}
	defer func() {
		for _, g := range group {
			g.commitFence.Unlock()
		}
	}()

	// Rollback point: the highest version any client has seen acknowledged.
	lastSeen := s.Latest()

	for _, p := range rollbackOnly {
		_ = p.DiscardAbove(lastSeen) // unreachable: rejoins via migration
	}
	var newMaster replica.Peer
	var bestVer vclock.Vector
	for _, p := range candidates {
		if err := p.DiscardAbove(lastSeen); err != nil {
			continue // unreachable: excluded from election, rejoins via migration
		}
		v, err := p.MaxVersions()
		if err != nil {
			continue
		}
		if newMaster == nil || !bestVer.DominatesOrEqual(v) {
			newMaster, bestVer = p, v
		}
	}
	for _, g := range group {
		g.ResetVersion(lastSeen)
	}
	if newMaster == nil {
		return nil, ErrNoReplicas
	}
	if err := newMaster.Promote(s.ClassTables(ci)); err != nil {
		return nil, fmt.Errorf("failover: promote %s: %w", newMaster.ID(), err)
	}
	if err := publish(ci, newMaster); err != nil {
		return nil, err
	}
	return newMaster, nil
}
