// Package dmv is a database server cluster with Dynamic Multiversioning
// replication, a Go reproduction of "Scaling and Continuous Availability in
// Database Server Clusters through Multiversion Replication" (Manassiev &
// Amza, DSN 2007).
//
// A dmv.Cluster is a lightweight in-memory transaction-processing tier:
// update transactions run on a master replica under per-page two-phase
// locking and broadcast fine-grained write-sets before commit; read-only
// transactions are tagged with the latest version vector and distributed
// across slave replicas, which materialize the required page versions
// lazily and on demand. Single-node failures (master, slave, or spare)
// reconfigure in split seconds; an optional on-disk persistence tier logs
// committed update queries asynchronously.
//
// Quick start:
//
//	c, err := dmv.Open(dmv.Config{
//		Slaves: 2,
//		Schema: []string{`CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(64))`},
//	})
//	...
//	err = c.Update([]string{"kv"}, func(tx *dmv.Tx) error {
//		_, err := tx.Exec(`INSERT INTO kv (k, v) VALUES (?, ?)`, 1, "hello")
//		return err
//	})
//	err = c.Read([]string{"kv"}, func(tx *dmv.Tx) error {
//		rows, err := tx.Query(`SELECT v FROM kv WHERE k = ?`, 1)
//		...
//	})
package dmv

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"dmv/internal/cluster"
	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/persist"
	"dmv/internal/scheduler"
	"dmv/internal/simdisk"
	"dmv/internal/value"
	"dmv/internal/wal"
)

// ConflictClass names a disjoint set of tables whose update transactions are
// mastered by a dedicated node, letting non-conflicting updates commit in
// parallel.
type ConflictClass struct {
	Name   string
	Tables []string
}

// Config describes the cluster to open.
type Config struct {
	// Slaves is the number of active read replicas (default 2).
	Slaves int
	// Spares is the number of warm spare backups for seamless fail-over.
	Spares int
	// StaleSpares leaves spares unsubscribed (they catch up by page
	// migration at fail-over); default is hot spares.
	StaleSpares bool
	// StaleRefresh periodically refreshes stale spares (0 = never).
	StaleRefresh time.Duration
	// Classes are the conflict classes; empty = one master for all tables.
	Classes []ConflictClass
	// Schema is the DDL executed on every node.
	Schema []string
	// Load seeds the initial database image; it runs once per node and must
	// be deterministic.
	Load func(l *Loader) error
	// CheckpointPeriod enables periodic fuzzy checkpoints (0 = off).
	CheckpointPeriod time.Duration
	// CheckpointDir persists checkpoints to files under this directory
	// (empty = checkpoints kept on the node object, which survives Kill but
	// not process exit).
	CheckpointDir string
	// WarmupShare routes this fraction of reads to spare backups (the
	// paper's first warm-up scheme; <1% suffices).
	WarmupShare float64
	// PageIDTransfer enables the second warm-up scheme: active slaves ship
	// resident page ids to spares on this period (0 = off).
	PageIDTransfer time.Duration
	// CachePages bounds each node's simulated buffer cache (0 = unbounded,
	// disabling warm-up effects); PageFault is the miss penalty.
	CachePages int
	PageFault  time.Duration
	// PersistBackends adds an on-disk persistence tier with this many
	// back-end databases (0 = none).
	PersistBackends int
	// WALDir makes the persistence tier crash-durable: committed update
	// queries are appended to a write-ahead log in this directory before the
	// commit is acknowledged, and Open recovers the cluster state from the
	// directory after a crash (checkpoint restore plus log replay). Setting
	// WALDir implies at least one persistence backend.
	WALDir string
	// WALFlushPolicy selects when WAL appends are fsynced: "always"
	// (default; group commit, the ack implies durability), "interval"
	// (background fsync every WALFlushInterval; a crash loses at most one
	// interval), or "never" (OS page cache only).
	WALFlushPolicy string
	// WALFlushInterval is the background fsync period for the "interval"
	// policy (default 5ms).
	WALFlushInterval time.Duration
	// WALCheckpointEvery auto-checkpoints the persistence tier once every
	// backend has applied this many records past the log base, truncating
	// dead WAL segments and the in-memory log prefix (0 = only manual
	// CheckpointPersistence calls truncate).
	WALCheckpointEvery int
	// PeerSchedulers adds standby peer schedulers; KillScheduler fails the
	// primary over to the next peer (the paper's Section 4.1).
	PeerSchedulers int
	// HeartbeatInterval tunes failure detection (default 10ms).
	HeartbeatInterval time.Duration
	// MaxRetries bounds automatic retries of aborted transactions.
	MaxRetries int
	// Seed seeds scheduler randomness for reproducible runs.
	Seed int64
}

// Cluster is an open DMV database cluster.
type Cluster struct {
	inner   *cluster.Cluster
	tier    *persist.Tier
	closing bool
}

// Tx is a running transaction. Use Exec for statements without result rows
// and Query for SELECTs.
type Tx struct {
	inner *scheduler.Txn
}

// Result reports rows affected by a write statement.
type Result struct {
	Affected int
}

// Rows is a fully materialized query result.
type Rows struct {
	Cols []string
	Data [][]any
}

// Len returns the number of rows.
func (r *Rows) Len() int { return len(r.Data) }

// Int returns cell (row, col) as int64 (0 when out of range or NULL).
func (r *Rows) Int(row, col int) int64 {
	if row < 0 || row >= len(r.Data) || col < 0 || col >= len(r.Data[row]) {
		return 0
	}
	switch v := r.Data[row][col].(type) {
	case int64:
		return v
	case float64:
		return int64(v)
	default:
		return 0
	}
}

// Float returns cell (row, col) as float64.
func (r *Rows) Float(row, col int) float64 {
	if row < 0 || row >= len(r.Data) || col < 0 || col >= len(r.Data[row]) {
		return 0
	}
	switch v := r.Data[row][col].(type) {
	case int64:
		return float64(v)
	case float64:
		return v
	default:
		return 0
	}
}

// String returns cell (row, col) as a string ("" when NULL/out of range).
func (r *Rows) String(row, col int) string {
	if row < 0 || row >= len(r.Data) || col < 0 || col >= len(r.Data[row]) {
		return ""
	}
	if s, ok := r.Data[row][col].(string); ok {
		return s
	}
	return fmt.Sprint(r.Data[row][col])
}

// Loader bulk-loads the initial image during Open.
type Loader struct {
	eng *heap.Engine
}

// Load inserts rows into a table. Cells may be int/int64/float64/string/nil.
func (l *Loader) Load(table string, rows [][]any) error {
	tid, ok := l.eng.TableID(table)
	if !ok {
		return fmt.Errorf("dmv: load: unknown table %q", table)
	}
	converted := make([]value.Row, len(rows))
	for i, r := range rows {
		row := make(value.Row, len(r))
		for j, cell := range r {
			row[j] = toValue(cell)
		}
		converted[i] = row
	}
	return l.eng.Load(tid, converted)
}

func toValue(v any) value.Value {
	switch x := v.(type) {
	case nil:
		return value.NewNull()
	case int:
		return value.NewInt(int64(x))
	case int32:
		return value.NewInt(int64(x))
	case int64:
		return value.NewInt(x)
	case float32:
		return value.NewFloat(float64(x))
	case float64:
		return value.NewFloat(x)
	case bool:
		if x {
			return value.NewInt(1)
		}
		return value.NewInt(0)
	case string:
		return value.NewString(x)
	case value.Value:
		return x
	default:
		return value.NewString(fmt.Sprint(x))
	}
}

func fromValue(v value.Value) any {
	switch v.K {
	case value.Int:
		return v.Int()
	case value.Float:
		return v.Float()
	case value.String:
		return v.S
	default:
		return nil
	}
}

// Open builds and starts a cluster.
func Open(cfg Config) (*Cluster, error) {
	if cfg.Slaves <= 0 {
		cfg.Slaves = 2
	}
	classes := make([]scheduler.ConflictClass, len(cfg.Classes))
	for i, cc := range cfg.Classes {
		classes[i] = scheduler.ConflictClass{Name: cc.Name, Tables: cc.Tables}
	}
	c := &Cluster{}

	var load func(e *heap.Engine) error
	if cfg.Load != nil {
		load = func(e *heap.Engine) error { return cfg.Load(&Loader{eng: e}) }
	}

	// Optional per-node buffer-cache simulation.
	var nodeCosts simdisk.CostModel
	if cfg.CachePages > 0 {
		fault := cfg.PageFault
		if fault <= 0 {
			fault = 50 * time.Microsecond
		}
		nodeCosts = simdisk.InMemory(fault)
	}

	// Optional persistence tier; a WAL directory makes it crash-durable and
	// implies at least one backend. persist.Open rebuilds it from the
	// directory after a crash, and every node loads through its loader: the
	// recovered base state with the logged suffix replayed on it.
	if cfg.WALDir != "" && cfg.PersistBackends <= 0 {
		cfg.PersistBackends = 1
	}
	var onCommit func(scheduler.CommitRecord)
	if cfg.PersistBackends > 0 {
		policy, err := wal.ParsePolicy(cfg.WALFlushPolicy)
		if err != nil {
			return nil, err
		}
		c.tier, load, err = persist.Open(
			persist.DurableConfig{Dir: cfg.WALDir, Policy: policy, FlushInterval: cfg.WALFlushInterval},
			persist.Options{CheckpointEvery: cfg.WALCheckpointEvery}, cfg.PersistBackends,
			simdisk.OnDisk(200*time.Microsecond, 200*time.Microsecond, 100*time.Microsecond), cfg.Schema, load)
		if err != nil {
			return nil, err
		}
		onCommit = c.tier.OnCommit
	}

	mode := cluster.SpareHot
	if cfg.StaleSpares {
		mode = cluster.SpareStale
	}
	inner, err := cluster.New(cluster.Config{
		Slaves:            cfg.Slaves,
		Spares:            cfg.Spares,
		SpareMode:         mode,
		StaleRefresh:      cfg.StaleRefresh,
		Classes:           classes,
		SchemaDDL:         cfg.Schema,
		Load:              load,
		Costs:             nodeCosts,
		CachePages:        cfg.CachePages,
		PeerSchedulers:    cfg.PeerSchedulers,
		HeartbeatInterval: cfg.HeartbeatInterval,
		CheckpointPeriod:  cfg.CheckpointPeriod,
		CheckpointDir:     cfg.CheckpointDir,
		WarmupShare:       cfg.WarmupShare,
		PageIDTransfer:    cfg.PageIDTransfer,
		MaxRetries:        cfg.MaxRetries,
		OnCommit:          onCommit,
		Seed:              cfg.Seed,
	})
	if err != nil {
		if c.tier != nil {
			c.tier.Close()
		}
		return nil, err
	}
	c.inner = inner
	return c, nil
}

// Close shuts the cluster down.
func (c *Cluster) Close() {
	if c.closing {
		return
	}
	c.closing = true
	c.inner.Close()
	if c.tier != nil {
		c.tier.Close()
	}
}

// Read runs fn as a read-only transaction over the named tables. fn may be
// retried after a version-conflict abort or node failure and must be
// idempotent (pure reads are).
func (c *Cluster) Read(tables []string, fn func(tx *Tx) error) error {
	return c.inner.Run(scheduler.TxnSpec{ReadOnly: true, Tables: tables}, func(t *scheduler.Txn) error {
		return fn(&Tx{inner: t})
	})
}

// Update runs fn as an update transaction on the conflict-class master of
// the named tables. fn may be retried after deadlock timeouts or fail-over
// and must confine its side effects to the database.
func (c *Cluster) Update(tables []string, fn func(tx *Tx) error) error {
	return c.inner.Run(scheduler.TxnSpec{Tables: tables}, func(t *scheduler.Txn) error {
		return fn(&Tx{inner: t})
	})
}

// Exec runs one statement in the transaction.
func (t *Tx) Exec(stmt string, args ...any) (Result, error) {
	params := make([]value.Value, len(args))
	for i, a := range args {
		params[i] = toValue(a)
	}
	res, err := t.inner.Exec(stmt, params...)
	if err != nil {
		return Result{}, err
	}
	return Result{Affected: res.Affected}, nil
}

// Query runs a SELECT and materializes the result.
func (t *Tx) Query(stmt string, args ...any) (*Rows, error) {
	params := make([]value.Value, len(args))
	for i, a := range args {
		params[i] = toValue(a)
	}
	res, err := t.inner.Exec(stmt, params...)
	if err != nil {
		return nil, err
	}
	return convertResult(res), nil
}

// convertResult copies a result out for the caller. Its column names are
// the statement's cached plan's own, so the caller gets a copy of them.
func convertResult(res *exec.Result) *Rows {
	out := &Rows{Cols: slices.Clone(res.Cols), Data: make([][]any, len(res.Rows))}
	for i, r := range res.Rows {
		row := make([]any, len(r))
		for j, v := range r {
			row[j] = fromValue(v)
		}
		out.Data[i] = row
	}
	return out
}

// --- operations & observability ----------------------------------------------

// Stats summarize cluster activity.
type Stats struct {
	ReadTxns      int64
	UpdateTxns    int64
	VersionAborts int64
	LockRetries   int64
	Failovers     int64
	PersistLogged int
}

// Stats returns a snapshot of the counters.
func (c *Cluster) Stats() Stats {
	st := c.inner.Scheduler().Stats()
	out := Stats{
		ReadTxns:      st.ReadTxns.Load(),
		UpdateTxns:    st.UpdateTxns.Load(),
		VersionAborts: st.VersionAborts.Load(),
		LockRetries:   st.LockRetries.Load(),
		Failovers:     st.Failovers.Load(),
	}
	if c.tier != nil {
		out.PersistLogged = c.tier.LogLen()
	}
	return out
}

// Nodes lists node ids in creation order.
func (c *Cluster) Nodes() []string { return c.inner.NodeIDs() }

// Master returns the id of the conflict-class-0 master.
func (c *Cluster) Master() string { return c.inner.MasterID(0) }

// Slaves returns the ids of the active read replicas.
func (c *Cluster) Slaves() []string { return c.inner.Scheduler().Slaves() }

// Spares returns the ids of the spare backups.
func (c *Cluster) Spares() []string { return c.inner.Spares() }

// Kill fail-stops a node; the cluster detects the failure via heartbeats and
// reconfigures automatically.
func (c *Cluster) Kill(node string) error { return c.inner.Kill(node) }

// KillMaster fail-stops the class-0 master (the worst fail-over case).
func (c *Cluster) KillMaster() error { return c.inner.KillMaster() }

// Restart reboots a previously killed node (restoring its last fuzzy
// checkpoint) and reintegrates it into the workload as a slave.
func (c *Cluster) Restart(node string) error { return c.inner.Restart(node) }

// KillScheduler fails the primary scheduler over to a standby peer (see
// Config.PeerSchedulers): the new scheduler asks the masters to abort
// orphaned transactions and adopts their highest committed versions.
func (c *Cluster) KillScheduler() error {
	_, err := c.inner.KillScheduler()
	return err
}

// Event is a reconfiguration event.
type Event struct {
	Time     time.Time
	Kind     string
	Node     string
	Detail   string
	Duration time.Duration
}

// Events returns the reconfiguration event log.
func (c *Cluster) Events() []Event {
	evs := c.inner.Events()
	out := make([]Event, len(evs))
	for i, e := range evs {
		out[i] = Event{Time: e.Time, Kind: string(e.Kind), Node: e.Node, Detail: e.Detail, Duration: e.Duration}
	}
	return out
}

// FlushPersistence blocks until the on-disk tier has applied every logged
// transaction (no-op without a persistence tier).
func (c *Cluster) FlushPersistence() {
	if c.tier != nil {
		c.tier.Flush()
	}
}

// CheckpointPersistence cuts durable checkpoints of the persistence
// backends and truncates the WAL segments and in-memory log prefix they
// cover, bounding disk and memory. Returns the truncation cut (the global
// log index recovery will resume from). Requires Config.WALDir.
func (c *Cluster) CheckpointPersistence() (int, error) {
	if c.tier == nil {
		return 0, errors.New("dmv: no persistence tier")
	}
	return c.tier.Checkpoint()
}

// PersistenceApplied returns per-backend applied-transaction counts.
func (c *Cluster) PersistenceApplied() []int {
	out := []int{}
	if c.tier != nil {
		for _, b := range c.tier.Backends() {
			out = append(out, b.Applied())
		}
	}
	return out
}

// ErrNoReplicas is returned when no replica can serve a transaction.
var ErrNoReplicas = scheduler.ErrNoReplicas

// IsRetryable reports whether an error would have been retried internally
// (surfaced only when retries are exhausted).
func IsRetryable(err error) bool {
	return errors.Is(err, scheduler.ErrRetriesExhausted)
}

// Explain renders the access plan for a SELECT statement (index choices,
// join order) against the cluster's schema.
func (c *Cluster) Explain(query string) (string, error) {
	for _, id := range c.inner.NodeIDs() {
		if n, ok := c.inner.Node(id); ok && n.Alive() {
			return exec.Explain(n.Engine(), query)
		}
	}
	return "", ErrNoReplicas
}

// Internal exposes the underlying cluster for the benchmark harness; it is
// not part of the stable API.
func (c *Cluster) Internal() *cluster.Cluster { return c.inner }
