package obs

// Every metric name in the tree is declared here and nowhere else;
// scripts/check.sh greps for "dmv_..." string literals outside this file
// and fails the build on a hit. Keeping the catalogue in one place makes
// the exposition self-documenting and prevents two layers from silently
// registering near-duplicate names.
//
// Conventions: `_total` suffix for counters, `_us` for microsecond
// histograms, bare names for gauges. The DESIGN.md "Observability" section
// mirrors this catalogue with prose.
const (
	// --- name-family prefixes (dashboards filter on these) ------------------

	SchedPrefix   = "dmv_sched_"   // scheduler metric family
	NodePrefix    = "dmv_node_"    // replica metric family
	WalPrefix     = "dmv_wal_"     // write-ahead log metric family
	PersistPrefix = "dmv_persist_" // persistence tier metric family

	// --- scheduler (version-aware transaction router) -----------------------

	SchedReadTxns         = "dmv_sched_read_txns_total"           // committed read-only transactions
	SchedUpdateTxns       = "dmv_sched_update_txns_total"         // committed update transactions
	SchedAbortVersion     = "dmv_sched_aborts_version_total"      // aborts: required page version overwritten
	SchedAbortLockTimeout = "dmv_sched_aborts_lock_timeout_total" // aborts: page lock wait exceeded LockTimeout
	SchedAbortNodeDown    = "dmv_sched_aborts_node_down_total"    // aborts: executing replica failed mid-txn
	SchedAbortPeerTimeout = "dmv_sched_aborts_peer_timeout_total" // aborts: replica call exceeded its RPC deadline
	SchedRetriesExhausted = "dmv_sched_retries_exhausted_total"   // transactions given up after MaxRetries
	SchedFailovers        = "dmv_sched_failovers_total"           // node failures reported to the cluster
	SchedPickWaitUS       = "dmv_sched_reader_pick_wait_us"       // wait for a slave to reach the tagged version
	SchedTxnUS            = "dmv_sched_txn_us"                    // whole-transaction latency per attempt
	SchedVersionWaitUS    = "dmv_sched_version_wait_us"           // reader stalls waiting for any replica to reach its version
	SchedTakeovers        = "dmv_sched_takeovers_total"           // master take-overs executed by this scheduler

	// --- scheduler admission control (bounded queue in front of begin) ------

	SchedAdmitAdmitted     = "dmv_sched_admit_admitted_total"     // transactions admitted past the bounded queue
	SchedAdmitShed         = "dmv_sched_admit_shed_total"         // transactions fast-rejected with ErrOverloaded
	SchedAdmitQueueDepth   = "dmv_sched_admit_queue_depth"        // occupancy across all admission classes (gauge)
	SchedAdmitSojournUS    = "dmv_sched_admit_sojourn_us"         // queue sojourn time of admitted transactions
	SchedAdmitShedding     = "dmv_sched_admit_shedding"           // gauge: 1 while CoDel shed mode is active
	SchedDeadlineAbandoned = "dmv_sched_deadline_abandoned_total" // transactions abandoned pre-commit at the caller's deadline

	// --- replica (one DMV node) ---------------------------------------------

	NodeReadTxns          = "dmv_node_read_txns_total"              // read transactions executed across nodes
	NodeUpdateTxns        = "dmv_node_update_txns_total"            // update transactions executed across nodes
	NodeAborts            = "dmv_node_aborts_total"                 // node-side aborts (version conflicts)
	NodeWriteSetsIn       = "dmv_node_writesets_in_total"           // write-sets received from a master
	NodeWriteSetBytes     = "dmv_node_writeset_bytes_total"         // estimated bytes of write-sets received
	NodeBroadcastUS       = "dmv_node_broadcast_us"                 // master pre-commit broadcast until all acks
	NodeBroadcastAcks     = "dmv_node_broadcast_acks_total"         // successful per-subscriber acks
	NodeBroadcastFailures = "dmv_node_broadcast_failures_total"     // per-subscriber broadcast failures
	NodeBroadcastTimeouts = "dmv_node_broadcast_ack_timeouts_total" // subscriber acks abandoned at the AckTimeout deadline
	NodeRole              = "dmv_node_role"                         // labeled gauge: 0 slave, 1 master, 2 joining, 3 spare
	NodeStartTime         = "dmv_node_start_time_seconds"           // labeled gauge: unix start time of the node process
	BuildInfo             = "dmv_build_info"                        // labeled info gauge (go runtime version), value always 1
	ReplicaVersionLag     = "dmv_replica_version_lag"               // labeled gauge: commit frontier minus applied version, per node x table
	ReplicaApplyBacklog   = "dmv_replica_apply_backlog"             // labeled gauge: buffered (unapplied) row mods per node

	// --- heap (page-based storage engine) -----------------------------------

	HeapLockWaitUS      = "dmv_heap_lock_wait_us"              // contended page-latch waits (uncontended not recorded)
	HeapLockTimeouts    = "dmv_heap_lock_timeouts_total"       // page-latch waits that hit LockTimeout
	HeapCommits         = "dmv_heap_commits_total"             // master-side update commits
	HeapWriteSetRecords = "dmv_heap_writeset_records_total"    // row ops captured into broadcast write-sets
	HeapModsEnqueued    = "dmv_heap_mods_enqueued_total"       // row ops buffered into page pending queues
	HeapPagesLazy       = "dmv_heap_pages_lazy_applied_total"  // pages materialized on reader demand
	HeapModsLazy        = "dmv_heap_mods_lazy_applied_total"   // buffered mods applied on reader demand
	HeapPagesEager      = "dmv_heap_pages_eager_applied_total" // pages materialized eagerly (promotion/migration)
	HeapModsEager       = "dmv_heap_mods_eager_applied_total"  // buffered mods applied eagerly
	HeapModsDiscarded   = "dmv_heap_mods_discarded_total"      // buffered mods dropped by fail-over discard
	HeapModChainLen     = "dmv_heap_mod_chain_len"             // pending-mod chain length per page after enqueue
	HeapLazyApplyDist   = "dmv_heap_lazy_apply_dist"           // buffered mods drained per page on first read

	// --- buffer cache (simdisk cost model) ----------------------------------

	CacheHits     = "dmv_cache_hits_total"   // buffer-cache hits (gauge func, summed over disks)
	CacheMisses   = "dmv_cache_misses_total" // buffer-cache misses
	CacheFsyncs   = "dmv_cache_fsyncs_total" // commit fsyncs charged
	CacheHitRatio = "dmv_cache_hit_ratio"    // aggregate hit ratio in [0,1]

	// --- cluster fail-over timeline -----------------------------------------

	ClusterEvents           = "dmv_cluster_events_total"           // lifecycle events recorded on the timeline
	ClusterNodeHealth       = "dmv_cluster_node_health"            // labeled gauge: suspicion state per node (0 healthy, 1 suspect, 2 dead)
	ClusterSuspicions       = "dmv_cluster_suspicions_total"       // healthy->suspect transitions raised by the detector
	ClusterFalseSuspicions  = "dmv_cluster_false_suspicions_total" // suspects cleared after probes recovered (false alarms)
	FailoverRecoveryUS      = "dmv_failover_recovery_us"           // failure detection -> commits unblocked
	FailoverMigrationUS     = "dmv_failover_migration_us"          // spare data migration (page delta install)
	FailoverReintegrationUS = "dmv_failover_reintegration_us"      // stale-node page-delta reintegration
	FailoverRestartUS       = "dmv_failover_restart_us"            // checkpoint restore + rejoin of a dead node
	FailoverSpareUS         = "dmv_failover_spare_activation_us"   // whole spare activation (incl. migration)

	// --- anti-entropy scrub (DESIGN.md §15) ---------------------------------

	ScrubSweeps         = "dmv_scrub_sweeps_total"             // digest sweeps completed
	ScrubTablesChecked  = "dmv_scrub_tables_checked_total"     // per-table digest comparisons performed
	ScrubConflicts      = "dmv_scrub_frontier_conflicts_total" // digest attempts beaten by a racing commit (retried)
	ScrubSkipped        = "dmv_scrub_tables_skipped_total"     // table checks abandoned after frontier retries or peer errors
	ScrubDivergences    = "dmv_scrub_divergences_total"        // diverged (node, table) pairs detected
	ScrubRepairs        = "dmv_scrub_repairs_total"            // diverged nodes repaired and verified
	ScrubRepairFailures = "dmv_scrub_repair_failures_total"    // repair attempts that failed verification (node left quarantined)
	ScrubRepairPages    = "dmv_scrub_repaired_pages_total"     // page images shipped during repair
	ScrubSweepUS        = "dmv_scrub_sweep_us"                 // whole-sweep latency
	ScrubRepairUS       = "dmv_scrub_repair_us"                // quarantine -> verified-repair latency

	// --- persistence tier ----------------------------------------------------

	PersistLogged      = "dmv_persist_logged_total"          // update transactions appended to the query log
	PersistApplied     = "dmv_persist_applied_total"         // log entries applied to every on-disk backend
	PersistReplayed    = "dmv_persist_replayed_total"        // log entries replayed during Recover
	PersistErrors      = "dmv_persist_errors_total"          // backend apply errors
	PersistBacklog     = "dmv_persist_backlog"               // log entries not yet applied everywhere (gauge func)
	PersistQuarantined = "dmv_persist_backend_quarantined"   // labeled gauge: 1 while a backend is quarantined after an apply error
	PersistTruncations = "dmv_persist_log_truncations_total" // checkpoint-coordinated log truncations completed

	// --- write-ahead log (crash durability under the persistence tier) ------

	WalFsyncUS           = "dmv_wal_fsync_us"                 // fsync latency (group commit: one observation per batch)
	WalBytes             = "dmv_wal_bytes_total"              // framed record bytes appended
	WalSegments          = "dmv_wal_segments"                 // live segment files (gauge func)
	WalRecoveryTruncated = "dmv_wal_recovery_truncated_bytes" // torn-tail bytes discarded by recovery

	// --- transport (TCP peer RPC) -------------------------------------------

	TransportBytesIn  = "dmv_transport_bytes_in_total"  // bytes read from peer connections
	TransportBytesOut = "dmv_transport_bytes_out_total" // bytes written to peer connections
	TransportConns    = "dmv_transport_conns_total"     // peer connections accepted

	TransportRPCTimeouts = "dmv_transport_rpc_timeouts_total" // client calls abandoned at their deadline
	TransportRPCRetries  = "dmv_transport_rpc_retries_total"  // idempotent-call retry attempts after transport failures
	TransportRedials     = "dmv_transport_redials_total"      // client re-dials after a failed connection
	TransportRPCUS       = "dmv_transport_rpc_us"             // client-observed per-call latency (incl. timeouts)

	TransportRetryBudgetExhausted = "dmv_transport_retry_budget_exhausted_total" // idempotent retry loops stopped by the elapsed-time budget

	// --- obs self-observation ------------------------------------------------

	ObsRingDropped = "dmv_obs_ring_dropped_total" // labeled counter: entries evicted from a bounded ring (ring="trace"|"timeline"|"flight")

	// --- runtime health (per-process, sampled via runtime/metrics) ----------

	RuntimeGoroutines    = "dmv_runtime_goroutines"           // labeled gauge: live goroutines per node
	RuntimeHeapBytes     = "dmv_runtime_heap_bytes"           // labeled gauge: live heap object bytes per node
	RuntimeGCPauseLastUS = "dmv_runtime_gc_pause_last_us"     // labeled gauge: most recent GC stop-the-world pause
	RuntimeSchedLatP99US = "dmv_runtime_sched_latency_p99_us" // labeled gauge: p99 goroutine scheduling latency
	RuntimeGCPauseUS     = "dmv_runtime_gc_pause_us"          // histogram: GC stop-the-world pauses observed by the sampler

	// --- flight recorder (anomaly-triggered cluster dumps) ------------------

	FlightDumps      = "dmv_flight_dumps_total"               // labeled counter: cluster dumps written, per origin node
	FlightDumpErrors = "dmv_flight_dump_errors_total"         // dump serialization/write failures
	FlightTriggers   = "dmv_flight_triggers_total"            // anomaly triggers accepted
	FlightSuppressed = "dmv_flight_triggers_suppressed_total" // triggers dropped by cooldown or full queue
	FlightPeerErrors = "dmv_flight_peer_errors_total"         // peer ring gathers that failed or timed out

	// --- innodb-like on-disk baseline ---------------------------------------

	InnoCommits          = "dmv_inno_commits_total"        // tier update commits (write-all)
	InnoReplayedStmts    = "dmv_inno_replayed_stmts_total" // binlog statements replayed onto spares
	InnoFailoverReplayUS = "dmv_inno_failover_replay_us"   // binlog replay stage during tier fail-over
)
