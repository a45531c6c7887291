package obs

// Every metric name in the tree is declared here and nowhere else, and
// every name here has a reader: the metricname analyzer (dmv-vet) flags a
// "dmv_..." literal outside this file and a name that is only registered
// and fed. A name whose reader the analyzer cannot see (the benchmark
// module, a handle such as scheduler.Stats) says so in a dmv:ignore.
// Keeping the catalogue in one place makes the exposition self-documenting
// and prevents two layers from silently registering near-duplicate names.
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
	//dmv:ignore(metricname) read through scheduler.Stats.Failovers, a handle the analyzer does not follow
	SchedFailovers = "dmv_sched_failovers_total" // node failures reported to the cluster
	SchedTxnUS     = "dmv_sched_txn_us"          // whole-transaction latency per attempt

	// --- scheduler admission control (bounded queue in front of begin) ------

	SchedAdmitAdmitted     = "dmv_sched_admit_admitted_total"     // transactions admitted past the bounded queue
	SchedAdmitShed         = "dmv_sched_admit_shed_total"         // transactions fast-rejected with ErrOverloaded
	SchedAdmitQueueDepth   = "dmv_sched_admit_queue_depth"        // occupancy across all admission classes (gauge)
	SchedAdmitSojournUS    = "dmv_sched_admit_sojourn_us"         // queue sojourn time of admitted transactions
	SchedAdmitShedding     = "dmv_sched_admit_shedding"           // gauge: 1 while CoDel shed mode is active
	SchedDeadlineAbandoned = "dmv_sched_deadline_abandoned_total" // transactions abandoned pre-commit at the caller's deadline

	// --- replica (one DMV node) ---------------------------------------------

	NodeReadTxns      = "dmv_node_read_txns_total"      // read transactions executed across nodes
	NodeUpdateTxns    = "dmv_node_update_txns_total"    // update transactions executed across nodes
	NodeWriteSetsIn   = "dmv_node_writesets_in_total"   // write-sets received from a master
	NodeWriteSetBytes = "dmv_node_writeset_bytes_total" // estimated bytes of write-sets received
	NodeRole          = "dmv_node_role"                 // labeled gauge: 0 slave, 1 master, 2 joining, 3 spare
	NodeStartTime     = "dmv_node_start_time_seconds"   // labeled gauge: unix start time of the node process
	BuildInfo         = "dmv_build_info"                // labeled info gauge (go runtime version), value always 1

	// --- heap (page-based storage engine) -----------------------------------

	//dmv:ignore(metricname) read by benchmark/account.go, a module of its own
	HeapLockWaitUS      = "dmv_heap_lock_wait_us"             // contended page-latch waits (uncontended not recorded)
	HeapCommits         = "dmv_heap_commits_total"            // master-side update commits
	HeapWriteSetRecords = "dmv_heap_writeset_records_total"   // row ops captured into broadcast write-sets
	HeapModsEnqueued    = "dmv_heap_mods_enqueued_total"      // row ops buffered into page pending queues
	HeapPagesLazy       = "dmv_heap_pages_lazy_applied_total" // pages materialized on reader demand
	HeapModsLazy        = "dmv_heap_mods_lazy_applied_total"  // buffered mods applied on reader demand
	//dmv:ignore(metricname) read by benchmark/account.go, a module of its own
	HeapLazyApplyDist = "dmv_heap_lazy_apply_dist" // buffered mods drained per page on first read

	// --- cluster fail-over timeline -----------------------------------------

	ClusterEvents          = "dmv_cluster_events_total"           // lifecycle events recorded on the timeline
	ClusterNodeHealth      = "dmv_cluster_node_health"            // labeled gauge: suspicion state per node (0 healthy, 1 suspect, 2 dead)
	ClusterSuspicions      = "dmv_cluster_suspicions_total"       // healthy->suspect transitions raised by the detector
	ClusterFalseSuspicions = "dmv_cluster_false_suspicions_total" // suspects cleared after probes recovered (false alarms)
	FailoverRecoveryUS     = "dmv_failover_recovery_us"           // failure detection -> commits unblocked

	// --- anti-entropy scrub (DESIGN.md §15) ---------------------------------

	ScrubSweeps         = "dmv_scrub_sweeps_total"          // digest sweeps completed
	ScrubSkipped        = "dmv_scrub_tables_skipped_total"  // table checks abandoned after frontier retries or peer errors
	ScrubDivergences    = "dmv_scrub_divergences_total"     // diverged (node, table) pairs detected
	ScrubRepairs        = "dmv_scrub_repairs_total"         // diverged nodes repaired and verified
	ScrubRepairFailures = "dmv_scrub_repair_failures_total" // repair attempts that failed verification (node left quarantined)
	ScrubSweepUS        = "dmv_scrub_sweep_us"              // whole-sweep latency

	// --- persistence tier ----------------------------------------------------

	//dmv:ignore(metricname) fed through persist's Obs options, which benchmark/topology.go sets
	PersistLogged = "dmv_persist_logged_total" // update transactions appended to the query log
	//dmv:ignore(metricname) fed through persist's Obs options, which benchmark/topology.go sets
	PersistApplied = "dmv_persist_applied_total" // log entries applied to every on-disk backend
	//dmv:ignore(metricname) fed through persist's Obs options, which benchmark/topology.go sets
	PersistReplayed = "dmv_persist_replayed_total" // log entries replayed during Recover
	//dmv:ignore(metricname) fed through persist's Obs options, which benchmark/topology.go sets
	PersistErrors = "dmv_persist_errors_total" // backend apply errors
	//dmv:ignore(metricname) fed through persist's Obs options, which benchmark/topology.go sets
	PersistBacklog = "dmv_persist_backlog" // log entries not yet applied everywhere (gauge func)
	//dmv:ignore(metricname) fed through persist's Obs options, which benchmark/topology.go sets
	PersistQuarantined = "dmv_persist_backend_quarantined" // labeled gauge: 1 while a backend is quarantined after an apply error
	//dmv:ignore(metricname) fed through persist's Obs options, which benchmark/topology.go sets
	PersistTruncations = "dmv_persist_log_truncations_total" // checkpoint-coordinated log truncations completed

	// --- write-ahead log (crash durability under the persistence tier) ------

	//dmv:ignore(metricname) fed through persist's Obs options, which benchmark/topology.go sets
	WalFsyncUS = "dmv_wal_fsync_us" // fsync latency (group commit: one observation per batch)
	//dmv:ignore(metricname) fed through persist's Obs options, which benchmark/topology.go sets
	WalBytes = "dmv_wal_bytes_total" // framed record bytes appended
	//dmv:ignore(metricname) fed through persist's Obs options, which benchmark/topology.go sets
	WalSegments = "dmv_wal_segments" // live segment files (gauge func)
	//dmv:ignore(metricname) fed through persist's Obs options, which benchmark/topology.go sets
	WalRecoveryTruncated = "dmv_wal_recovery_truncated_bytes" // torn-tail bytes discarded by recovery

	// --- transport (TCP peer RPC) -------------------------------------------

	//dmv:ignore(metricname) read by benchmark/account.go, a module of its own
	TransportBytesIn  = "dmv_transport_bytes_in_total"  // bytes read from peer connections
	TransportBytesOut = "dmv_transport_bytes_out_total" // bytes written to peer connections

	TransportRPCTimeouts = "dmv_transport_rpc_timeouts_total" // client calls abandoned at their deadline
	TransportRPCRetries  = "dmv_transport_rpc_retries_total"  // idempotent-call retry attempts after transport failures
	TransportRedials     = "dmv_transport_redials_total"      // client re-dials after a failed connection
	TransportRPCUS       = "dmv_transport_rpc_us"             // client-observed per-call latency (incl. timeouts)

	TransportRetryBudgetExhausted = "dmv_transport_retry_budget_exhausted_total" // idempotent retry loops stopped by the elapsed-time budget

	// --- obs self-observation ------------------------------------------------

	ObsRingDropped = "dmv_obs_ring_dropped_total" // labeled counter: entries evicted from a bounded ring (ring="trace"|"timeline"|"flight")

	// --- runtime health (per-process, sampled via runtime/metrics) ----------

	RuntimeGoroutines    = "dmv_runtime_goroutines"       // labeled gauge: live goroutines per node
	RuntimeHeapBytes     = "dmv_runtime_heap_bytes"       // labeled gauge: live heap object bytes per node
	RuntimeGCPauseLastUS = "dmv_runtime_gc_pause_last_us" // labeled gauge: most recent GC stop-the-world pause

	// --- flight recorder (anomaly-triggered cluster dumps) ------------------

	FlightDumps      = "dmv_flight_dumps_total"               // labeled counter: cluster dumps written, per origin node
	FlightTriggers   = "dmv_flight_triggers_total"            // anomaly triggers accepted
	FlightSuppressed = "dmv_flight_triggers_suppressed_total" // triggers dropped by cooldown or full queue
	FlightPeerErrors = "dmv_flight_peer_errors_total"         // peer ring gathers that failed or timed out
)
