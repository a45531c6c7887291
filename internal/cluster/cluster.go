// Package cluster orchestrates a DMV in-memory database tier. Plane is the
// Peer-driven control plane shared by every deployment: heartbeat failure
// detection, master election, the three-stage fail-over pipeline (recovery
// -> data migration -> cache warm-up), reintegration, the scrub loop,
// peer-scheduler take-over, spare-backup upkeep (page-id-transfer
// warm-up, stale-spare refresh, overload-driven spare activation) and the
// cluster view (/cluster). Assemble is the one way a tier is put together,
// in process or over TCP. Cluster is the in-process tier, adding what only
// a process that owns its nodes can do: node construction and initial
// load, kill/restart, periodic fuzzy checkpoints and index-history GC.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/obs/flight"
	"dmv/internal/replica"
	"dmv/internal/scheduler"
	"dmv/internal/simdisk"
)

// Errors surfaced by cluster operations.
var (
	// ErrUnknownNode reports an operation naming a node outside the cluster.
	ErrUnknownNode = errors.New("cluster: unknown node")
	// ErrNoSupportSlave reports a reintegration with no live support slave.
	ErrNoSupportSlave = errors.New("cluster: no support slave available")
)

// SpareMode selects how a spare backup is maintained.
type SpareMode uint8

// Spare maintenance modes.
const (
	// SpareHot subscribes the spare to the replication stream (up to date at
	// fail-over; only the buffer cache may be cold).
	SpareHot SpareMode = iota + 1
	// SpareStale leaves the spare unsubscribed; it is refreshed only by
	// periodic data migration (the paper's 30-minute-stale backup).
	SpareStale
)

// Config describes the cluster to build.
type Config struct {
	// Slaves is the number of active read replicas (excluding masters).
	Slaves int
	// Spares is the number of spare backup nodes.
	Spares int
	// SpareMode selects hot (subscribed) or stale spares. Default SpareHot.
	SpareMode SpareMode
	// StaleRefresh, for stale spares, is the period between refreshes (the
	// paper's baseline refreshes every 30 minutes). Zero disables refresh.
	StaleRefresh time.Duration
	// Classes are the conflict classes; empty = single master for all
	// tables.
	Classes []scheduler.ConflictClass
	// SchemaDDL creates the schema on every node.
	SchemaDDL []string
	// Load populates one engine with the initial database image. It must be
	// deterministic: every node loads an identical image, modelling the
	// shared on-disk database every node mmaps at startup.
	Load func(e *heap.Engine) error
	// EngineOptions builds per-node engine options. May be nil.
	EngineOptions func(nodeID string) heap.Options
	// Costs is each node's simulated hardware, one simdisk per node: its
	// CPU (Stmt, UpdateStmt, CPUs) and its buffer cache's page-fault cost.
	// The zero model with CachePages 0 gives nodes no simdisk at all.
	Costs simdisk.CostModel
	// CachePages is each node's buffer-cache capacity in pages (0 = every
	// page resident). The node's engine reports its page accesses to it.
	CachePages int
	// HeartbeatInterval is the failure-detection probe period (default
	// 10ms; detection latency is about two intervals).
	HeartbeatInterval time.Duration
	// PingTimeout bounds each heartbeat probe so a gray-failed node (alive
	// but unresponsive) cannot stall the monitor. Default 4x the heartbeat
	// interval.
	PingTimeout time.Duration
	// SuspectAfter is the consecutive-miss count at which a node is
	// suspected and quarantined out of read placement (default 2). A miss
	// is a probe deadline or an RTT far outside the node's accrual band.
	SuspectAfter int
	// DeadAfter is the consecutive-miss count at which a suspect is
	// declared dead and fail-over starts (default 4, always > SuspectAfter).
	// Hard probe errors (fail-stop) skip the ladder and kill immediately.
	DeadAfter int
	// AckTimeout bounds each master's wait for a subscriber's write-set
	// acknowledgment (see replica.Options.AckTimeout). Zero waits forever.
	AckTimeout time.Duration
	// CheckpointPeriod starts a fuzzy-checkpoint thread per node (0 = off).
	CheckpointPeriod time.Duration
	// CheckpointDir persists checkpoints to files under this directory
	// (empty = in-memory stable-storage model).
	CheckpointDir string
	// WarmupShare routes this fraction of reads to spares (Section 4.5,
	// first scheme). 0 disables.
	WarmupShare float64
	// PageIDTransfer enables the second warm-up scheme: an active slave
	// ships all its resident page ids to the spares on this period (0 =
	// off).
	PageIDTransfer time.Duration
	// IndexGCPeriod runs versioned-index garbage collection on every node
	// at this period, at the scheduler's reader low-water mark (0 = off).
	IndexGCPeriod time.Duration
	// OverloadWindow is how long the admission queue must stay saturated
	// before a spare backup is activated as an additional read replica
	// (default 250ms; the paper keeps spares "for overflow in case of
	// failures or potentially overload of active replicas").
	OverloadWindow time.Duration
	// ScrubInterval runs the anti-entropy scrubber on this period (0 = off):
	// every table's digest is cross-checked against its class master at a
	// common pinned frontier, diverged nodes are quarantined out of read
	// placement, repaired via changed-page shipping, and reintegrated
	// (DESIGN.md §15).
	ScrubInterval time.Duration
	// ScrubTables restricts the sweep to these table ids (nil = all).
	ScrubTables []int
	// Admission configures the primary scheduler Assemble builds (Slots == 0
	// disables its bounded admission queue). Under overload the queue sheds
	// work at begin with ErrOverloaded instead of letting latency collapse,
	// and a queue that stays saturated for OverloadWindow activates a spare
	// (the tier's one overload signal; off with admission off).
	Admission scheduler.AdmissionOptions
	// DefaultDeadline is applied by every node to transactions that carry
	// no caller deadline (0 = unbounded). Expired sessions abandon queued
	// statements and commit entry, never a commit already in flight.
	DefaultDeadline time.Duration
	// VersionAffinity enables same-version scheduling (default on; the
	// ablation turns it off).
	NoVersionAffinity bool
	// MaxRetries bounds scheduler retries.
	MaxRetries int
	// PeerSchedulers adds this many standby peer schedulers (Section 4.1:
	// the scheduler state is only the current version vector, so peers can
	// take over almost instantly). Fail the primary with KillScheduler.
	PeerSchedulers int
	// OnCommit receives committed update transactions (persistence tier).
	OnCommit func(scheduler.CommitRecord)
	// Seed seeds scheduler randomness.
	Seed int64
	// Obs, when set, receives every cluster metric, transaction trace span,
	// and lifecycle event: it is threaded into the schedulers, replicas, and
	// engines, the fail-over pipeline records its stage durations on the
	// registry's timeline, and ClusterSnapshot adds it to the cluster view.
	// Nil disables metrics (the event timeline still works).
	Obs *obs.Registry
	// Flight, when set, is the cluster's flight recorder: the failure
	// detector records health transitions into it and fail-over start /
	// suspicion escalation fire anomaly dumps. One recorder serves the
	// whole in-process cluster (the multiprocess deployment runs one per
	// daemon instead).
	Flight *flight.Recorder
}

// EventKind classifies cluster events. It aliases string so event kinds
// flow into the obs timeline unconverted.
type EventKind = string

// Event kinds.
const (
	EventNodeFailed      EventKind = "node-failed"
	EventMasterElected   EventKind = "master-elected"
	EventSpareActivated  EventKind = "spare-activated"
	EventRecoveryDone    EventKind = "recovery-done"
	EventMigrationDone   EventKind = "migration-done"
	EventReintegrated    EventKind = "reintegrated"
	EventNodeRestarted   EventKind = "node-restarted"
	EventSchedulerSwitch EventKind = "scheduler-switch"
	EventOverload        EventKind = "overload"
	EventNodeSuspect     EventKind = "node-suspect"
	EventNodeCleared     EventKind = "node-cleared"
	EventScrubDiverged   EventKind = "scrub-divergence"
	EventScrubRepaired   EventKind = "scrub-repaired"
	// EventRewireFailed reports a master that could not install (all of) its
	// subscriber set; only a remote tier can produce it.
	EventRewireFailed EventKind = "rewire-failed"
)

// Event is one reconfiguration event with its duration where applicable.
// It aliases the obs timeline event so the cluster's log and the
// observability subsystem share one storage and one schema.
type Event = obs.Event

// withDefaults fills the detector and spare defaults New and Assemble share.
func (cfg Config) withDefaults() Config {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 10 * time.Millisecond
	}
	if cfg.PingTimeout <= 0 {
		cfg.PingTimeout = 4 * cfg.HeartbeatInterval
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 2
	}
	if cfg.DeadAfter <= cfg.SuspectAfter {
		cfg.DeadAfter = cfg.SuspectAfter + 2
	}
	if cfg.SpareMode == 0 {
		cfg.SpareMode = SpareHot
	}
	if cfg.OverloadWindow <= 0 {
		cfg.OverloadWindow = 250 * time.Millisecond
	}
	return cfg
}

// Cluster is a running in-memory tier: the control plane over in-process
// nodes, plus the per-node resources only their owning process can manage.
type Cluster struct {
	*Plane

	nodeMu sync.Mutex
	cps    map[string]*replica.Checkpointer // guarded by nodeMu
}

// New builds and starts a cluster: a master per conflict class plus
// cfg.Slaves slaves plus cfg.Spares spares, all loaded with the same initial
// image, put together by Assemble.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	c := &Cluster{cps: make(map[string]*replica.Checkpointer, 8)}
	var m Members
	for _, role := range []struct {
		name  string
		count int
		peers *[]replica.Peer
	}{
		{"master", max(len(cfg.Classes), 1), &m.Masters},
		{"slave", cfg.Slaves, &m.Slaves},
		{"spare", cfg.Spares, &m.Spares},
	} {
		for i := 0; i < role.count; i++ {
			n, err := c.buildNode(cfg, fmt.Sprintf("%s%d", role.name, i), nil)
			if err != nil {
				return nil, err
			}
			*role.peers = append(*role.peers, n)
		}
	}

	// Over in-process nodes subscriber sets are installed by direct call,
	// and a killed node is known dead at once.
	p, err := Assemble(cfg, m,
		func(master replica.Peer, subs []replica.Peer) error {
			master.(*replica.Node).SetSubscribers(subs)
			return nil
		},
		func(p replica.Peer) bool { return p.(*replica.Node).Alive() })
	if err != nil {
		return nil, err
	}
	c.Plane = p
	// A loaded image may already hold committed versions (a whole-tier
	// restart replays the durable log into every node). Every scheduler,
	// standbys included, starts at the masters' frontier, or a reader it
	// tags would ask for versions the nodes have overwritten.
	for _, n := range m.Masters {
		v := n.(*replica.Node).Engine().AppliedVersions()
		p.eachSched(func(s *scheduler.Scheduler) { s.ReportVersion(v) })
	}
	for _, id := range c.NodeIDs() {
		n, _ := c.Node(id)
		c.startCheckpointer(n)
	}

	// The plane's periodic jobs, then the one that needs the nodes'
	// engines, on the same stop channel and wait group.
	c.Start()
	c.every(cfg.IndexGCPeriod, c.collectIndexes)
	return c, nil
}

// startCheckpointer starts the node's fuzzy-checkpoint thread when
// checkpointing is configured.
func (c *Cluster) startCheckpointer(n *replica.Node) {
	if c.cfg.CheckpointPeriod <= 0 {
		return
	}
	c.nodeMu.Lock()
	c.cps[n.ID()] = n.StartCheckpointer(c.cfg.CheckpointPeriod)
	c.nodeMu.Unlock()
}

// buildNode constructs and loads one node. A first incarnation (prev nil)
// loads cfg.Load's image and gets a simdisk of cfg.Costs and
// cfg.CachePages; a restart restores prev's last checkpoint (the initial
// image when it never took one) onto prev's simdisk, whose buffer cache the
// reboot empties. Either way the buffer cache observes the engine's page
// accesses. It runs before the plane exists, so it takes the configuration
// explicitly.
func (c *Cluster) buildNode(cfg Config, id string, prev *replica.Node) (*replica.Node, error) {
	var opts heap.Options
	if cfg.EngineOptions != nil {
		opts = cfg.EngineOptions(id)
	}
	var disk *simdisk.Disk
	switch {
	case prev != nil:
		disk = prev.Disk()
	case cfg.Costs != simdisk.CostModel{} || cfg.CachePages > 0:
		disk = simdisk.New(cfg.Costs, cfg.CachePages)
	}
	if disk != nil {
		opts.Observer = disk
	}
	if opts.Obs == nil {
		opts.Obs = cfg.Obs
	}
	if opts.NodeID == "" {
		opts.NodeID = id
	}
	eng := heap.NewEngine(opts)
	for _, ddl := range cfg.SchemaDDL {
		if err := exec.ExecDDL(eng, ddl); err != nil {
			return nil, fmt.Errorf("node %s: %w", id, err)
		}
	}
	var cpBlob []byte
	if prev != nil {
		cpBlob = prev.LastCheckpoint()
	}
	switch {
	case cpBlob != nil:
		cp, err := heap.DecodeCheckpoint(cpBlob)
		if err == nil {
			err = eng.RestoreCheckpoint(cp)
		}
		if err != nil {
			return nil, fmt.Errorf("restore node %s: %w", id, err)
		}
	case cfg.Load != nil:
		if err := cfg.Load(eng); err != nil {
			return nil, fmt.Errorf("load node %s: %w", id, err)
		}
	}
	if prev != nil && disk != nil {
		disk.Drop()
	}
	return replica.NewNode(replica.Options{
		ID:              id,
		Engine:          eng,
		Disk:            disk,
		OnPeerFailure:   func(peer string) { go c.ReportFailure(peer) },
		OnPeerSuspect:   func(peer string) { go c.ReportSuspect(peer) },
		AckTimeout:      cfg.AckTimeout,
		CheckpointDir:   cfg.CheckpointDir,
		DefaultDeadline: cfg.DefaultDeadline,
		Obs:             cfg.Obs,
	}), nil
}

// Node returns the named node (tests, fault injection).
func (c *Cluster) Node(id string) (*replica.Node, bool) {
	p, ok := c.Peer(id)
	if !ok {
		return nil, false
	}
	return p.(*replica.Node), true
}

// collectIndexes garbage-collects every live node's index history below the
// scheduler's reader low-water mark.
func (c *Cluster) collectIndexes() {
	lw := c.Scheduler().LowWater()
	for _, id := range c.NodeIDs() {
		if n, _ := c.Node(id); n.Alive() {
			n.Engine().GCIndexes(lw)
		}
	}
}

// Close stops background loops and checkpoint threads.
func (c *Cluster) Close() {
	c.Plane.Close()
	c.nodeMu.Lock()
	defer c.nodeMu.Unlock()
	for id, cp := range c.cps {
		cp.Stop()
		delete(c.cps, id)
	}
}

// --- fault injection ---------------------------------------------------------

// Kill fail-stops a node; the heartbeat monitor detects it and reconfigures.
func (c *Cluster) Kill(id string) error {
	n, ok := c.Node(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	n.Kill()
	return nil
}

// KillMaster kills the master of class 0 (the worst-case fail-over).
func (c *Cluster) KillMaster() error { return c.Kill(c.MasterID(0)) }
