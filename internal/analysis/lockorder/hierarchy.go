package lockorder

// This file is the single declaration of DMV's lock hierarchy. Lower
// levels are outer locks: code holding a lock may only acquire locks with
// a strictly greater level. The bands mirror the layering of the system —
// cluster orchestration on the outside, then scheduler routing state,
// then per-node replica state, the transport, the storage engine
// (engine -> table -> index), page latches, and finally the version
// clocks, which are leaf locks acquired with page latches held during the
// master pre-commit (heap.UpdateTx.Commit ticks the clock while the
// transaction's page locks are still down).
//
// Same-level locks are exempt from ordering so that ordered same-class
// acquisition stays legal (2PL acquires many page latches; the innodb
// tier locks its table mutexes in sorted order), but re-acquiring the
// same instance is always flagged.
//
// DESIGN.md ("Concurrency invariants") documents the bands; dmv-vet
// enforces them.

// Hierarchy bands. Gaps leave room for new locks without renumbering.
const (
	levelFence     = 5  // scheduler commit fence: held across fail-over rollback, outermost
	levelCluster   = 10 // cluster orchestration (membership, event log)
	levelPersist   = 12 // persistence tier (commit log, backend apply state)
	levelWAL       = 16 // write-ahead log + fault-injected storage beneath it
	levelScheduler = 20 // scheduler routing state
	levelReplica   = 30 // per-node replica state (sessions, subscribers)
	levelTransport = 35 // RPC client/server bookkeeping
	levelFaultnet  = 36 // fault-injection net wrappers (under transport conns)
	levelExec      = 38 // process-wide prepared-statement cache (leaf)
	levelEngine    = 40 // heap engine catalog
	levelTable     = 44 // per-table directory / allocator / index list
	levelIndex     = 48 // versioned secondary indexes
	levelPage      = 50 // page latches (2PL; many held at once)
	levelDisk      = 55 // simdisk buffer-cache state: the engine's access
	// observer (Disk.PageAccess) fires under page latches (heap.tx.observe
	// runs with the transaction's 2PL locks down), so the disk lock nests
	// inside page and outside the clocks.
	levelClock = 60 // version clocks: innermost, held for a few loads
	levelObs   = 70 // observability registry/tracer/timeline: innermost of
	// all — metric registration, span recording, and event appends may run
	// with any other lock held, and obs code never calls back out under its
	// own locks (timeline hooks fire after unlock; snapshot gauge callbacks
	// run with no registry lock held).
)

// DefaultConfig declares every annotated mutex in the tree. A lock absent
// from this table is ignored by the hierarchy check (but still feeds the
// cycle detector), so new locks fail open until declared here.
var DefaultConfig = &Config{
	Levels: map[string]int{
		// cluster: the control plane's membership/detector state, and the
		// in-process cluster's per-node resources (checkpointers, disks).
		// Neither is ever taken under the other. The sweep mutex is entered
		// only from the scrub ticker or a direct Sweep with no locks held,
		// and held across the whole sweep (routing-state reads, digest
		// RPCs, quarantine updates under Plane.mu), so it sits outside the
		// cluster band.
		"dmv/internal/cluster.Plane.scrubMu":  levelCluster - 1,
		"dmv/internal/cluster.Plane.mu":       levelCluster,
		"dmv/internal/cluster.Cluster.nodeMu": levelCluster,

		// persistence tier. OnCommit appends to the WAL under Tier.mu, so
		// Tier.mu sits outside WAL.mu; the applier takes Backend.applyMu
		// (quiescing the engine for complete fuzzy checkpoints) and under it
		// the progress-mark lock (Backend.mu).
		"dmv/internal/persist.Tier.mu":         levelPersist,
		"dmv/internal/persist.Backend.applyMu": levelPersist + 1,
		"dmv/internal/persist.Backend.mu":      levelPersist + 2,

		// WAL and the seeded fault-injection disk beneath it: segment file
		// operations run against faultdisk files whose durability model is
		// guarded by Disk.mu, always entered with WAL.mu ordering above it.
		"dmv/internal/wal.WAL.mu":        levelWAL,
		"dmv/internal/faultdisk.Disk.mu": levelWAL + 1,

		// scheduler
		"dmv/internal/scheduler.Scheduler.commitFence": levelFence,
		"dmv/internal/scheduler.Scheduler.mu":          levelScheduler,
		"dmv/internal/scheduler.classState.mu":         levelScheduler + 1,
		"dmv/internal/scheduler.replicaState.verMu":    levelScheduler + 2,
		"dmv/internal/scheduler.Scheduler.rngMu":       levelScheduler + 3,
		// Admission queue: entered before any routing state on the begin
		// path and never held across a replica call; waiter wakeups, gauge
		// writes, timeline events, and flight triggers all fire after
		// unlock, so only obs-band locks may nest inside it.
		"dmv/internal/scheduler.Admitter.mu": levelScheduler + 4,

		// replica. TxCommit fixes the order session.mu -> commitMu ->
		// (broadcast) subsMu; sessMu is released before any session.mu is
		// taken, but sits outside it for clarity.
		"dmv/internal/replica.Node.joinMu":   levelReplica,
		"dmv/internal/replica.Node.sessMu":   levelReplica + 1,
		"dmv/internal/replica.session.mu":    levelReplica + 2,
		"dmv/internal/replica.Node.commitMu": levelReplica + 3,
		"dmv/internal/replica.Node.subsMu":   levelReplica + 4,
		"dmv/internal/replica.Node.roleMu":   levelReplica + 4,
		"dmv/internal/replica.Node.cpMu":     levelReplica + 4,
		"dmv/internal/replica.Node.stallMu":  levelReplica + 4,

		// transport. NodeService.subMu serializes rewires: an RPC handler
		// enters it with nothing held and, under it, dials subscriber clients
		// (RemoteNode.mu) and installs them on the node (replica subsMu), so it
		// sits outside the replica band.
		"dmv/internal/transport.NodeService.subMu": levelReplica - 1,
		"dmv/internal/transport.Server.connMu":     levelTransport,
		"dmv/internal/transport.RemoteNode.mu":     levelTransport,
		"dmv/internal/transport.RemoteNode.sessMu": levelTransport,
		"dmv/internal/transport.RemoteNode.rngMu":  levelTransport,
		// The call multiplexer: a client writes a request under wmu and
		// marks it written under mu (wmu -> mu). A served connection writes
		// each reply under its own wmu.
		"dmv/internal/transport.clientConn.mu":  levelTransport,
		"dmv/internal/transport.clientConn.wmu": levelTransport,
		"dmv/internal/transport.serverConn.wmu": levelTransport,

		// faultnet: Network.mu is taken outer to Conn.mu (reset sweeps walk
		// the conn table under the network lock), and transport writes land
		// in these conns with transport locks already held.
		"dmv/internal/faultnet.Network.mu": levelFaultnet,
		"dmv/internal/faultnet.Conn.mu":    levelFaultnet + 1,

		// shared prepared-statement cache: a leaf taken by the scheduler,
		// the persistence applier (under Backend.applyMu) and node sessions;
		// parsing happens outside it.
		"dmv/internal/exec.stmtCache.mu": levelExec,

		// heap storage engine
		"dmv/internal/heap.Engine.mu":      levelEngine,
		"dmv/internal/heap.Engine.txSeqMu": levelEngine + 1,
		"dmv/internal/heap.Table.allocMu":  levelTable,
		"dmv/internal/heap.Table.dirMu":    levelTable + 1,
		"dmv/internal/heap.Table.idxMu":    levelTable + 3,
		"dmv/internal/heap.Index.mu":       levelIndex,

		// page latches
		"dmv/internal/page.Page.mu": levelPage,

		// simdisk buffer-cache model (see levelDisk: entered under page
		// latches via the engine's access observer)
		"dmv/internal/simdisk.Disk.mu": levelDisk,

		// version clocks (leaves)
		"dmv/internal/vclock.Clock.mu":  levelClock,
		"dmv/internal/vclock.Merged.mu": levelClock,

		// observability (innermost; see levelObs)
		"dmv/internal/obs.Registry.mu":   levelObs,
		"dmv/internal/obs.Tracer.mu":     levelObs,
		"dmv/internal/obs.Timeline.mu":   levelObs,
		"dmv/internal/obs.Aggregator.mu": levelObs,

		// flight recorder: ring appends and trigger enqueues share the obs
		// band so any subsystem may call them under its own locks. Dump
		// assembly (registry snapshot + peer RPCs) runs only on the
		// recorder's worker goroutine with neither lock held.
		"dmv/internal/obs/flight.Recorder.mu":      levelObs,
		"dmv/internal/obs/flight.Recorder.peersMu": levelObs,
	},
	Callees: map[string]int{
		// Cross-package entry points that acquire locks internally; calling
		// one of these while holding a lock of a *higher* level inverts the
		// hierarchy even though the acquisition is not visible in the
		// calling package.
		"dmv/internal/vclock.Clock.Tick":           levelClock,
		"dmv/internal/vclock.Clock.Current":        levelClock,
		"dmv/internal/vclock.Clock.Advance":        levelClock,
		"dmv/internal/vclock.Clock.ResetTo":        levelClock,
		"dmv/internal/vclock.Merged.Report":        levelClock,
		"dmv/internal/vclock.Merged.Latest":        levelClock,
		"dmv/internal/vclock.Merged.Reset":         levelClock,
		"dmv/internal/wal.WAL.Append":              levelWAL,
		"dmv/internal/wal.WAL.WaitDurable":         levelWAL,
		"dmv/internal/wal.WAL.Flush":               levelWAL,
		"dmv/internal/wal.WAL.TruncateTo":          levelWAL,
		"dmv/internal/heap.Engine.table":           levelEngine,
		"dmv/internal/heap.Engine.allTables":       levelEngine,
		"dmv/internal/heap.Engine.AppliedVersions": levelEngine,

		// anti-entropy scrub and page-install entry points (DESIGN.md §15):
		// each walks the catalog and takes table/index/page locks
		// internally, so callers must hold nothing at or above the engine
		// band.
		"dmv/internal/heap.Engine.TableDigestAt":    levelEngine,
		"dmv/internal/heap.Engine.PageImages":       levelEngine,
		"dmv/internal/heap.Engine.InstallDelta":     levelEngine,
		"dmv/internal/heap.Engine.CorruptPage":      levelEngine,
		"dmv/internal/heap.Engine.CorruptRandomRow": levelEngine,

		// obs entry points: metric registration and hot-path recording take
		// only obs locks, so they are safe under anything. Snapshot is the
		// exception — it invokes gauge callbacks (outside the registry lock)
		// that may take Cluster.nodeMu, so it carries the cluster level.
		"dmv/internal/obs.Registry.Counter":   levelObs,
		"dmv/internal/obs.Registry.Gauge":     levelObs,
		"dmv/internal/obs.Registry.Histogram": levelObs,
		"dmv/internal/obs.Registry.GaugeFunc": levelObs,
		"dmv/internal/obs.Registry.Snapshot":  levelCluster,
		"dmv/internal/obs.Tracer.Begin":       levelObs,
		"dmv/internal/obs.Tracer.BeginChild":  levelObs,
		"dmv/internal/obs.Tracer.Total":       levelObs,
		"dmv/internal/obs.Tracer.Dump":        levelObs,
		"dmv/internal/obs.Aggregator.Update":  levelObs,
		"dmv/internal/obs.Aggregator.Current": levelObs,
		"dmv/internal/obs.Span.Finish":        levelObs,
		"dmv/internal/obs.Timeline.Record":    levelObs,
		"dmv/internal/obs.Timeline.Events":    levelObs,
		"dmv/internal/obs.Timeline.OnEvent":   levelObs,
		"dmv/internal/obs.Timeline.Start":     levelObs,
		"dmv/internal/obs.Stage.End":          levelObs,

		// flight recorder entry points: Trigger/Record* touch only the
		// recorder's own obs-band state, so they are safe under anything
		// (fail-over fires Trigger while holding the commit fence).
		// NodeDump snapshots the registry, so like Registry.Snapshot it
		// carries the cluster level and must not run under subsystem locks.
		"dmv/internal/obs/flight.Recorder.Trigger":      levelObs,
		"dmv/internal/obs/flight.Recorder.RecordSpan":   levelObs,
		"dmv/internal/obs/flight.Recorder.RecordEvent":  levelObs,
		"dmv/internal/obs/flight.Recorder.RecordHealth": levelObs,
		"dmv/internal/obs/flight.Recorder.NodeDump":     levelCluster,
	},
}
