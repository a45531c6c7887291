// Package heap implements the in-memory, page-based transactional storage
// engine underlying every database node in the reproduction.
//
// It is the Go analogue of the paper's REPLICATED_HEAP MySQL table type:
// MySQL HEAP tables (RB-tree indexed, page-organized rows) made
// transactional with per-page two-phase locking and write-set capture for
// replication; an aborting transaction replays its write-set backwards from
// the before-images. The same engine, configured with a
// synthetic disk cost model (package simdisk), doubles as the InnoDB-like
// on-disk baseline.
//
// Concurrency model, exactly as in the paper:
//
//   - Update transactions (master role) acquire exclusive page latches at
//     first touch and hold them to commit (strict 2PL at page granularity).
//     At pre-commit the engine produces a WriteSet of fine-grained per-page
//     row modifications stamped with a freshly ticked version vector.
//   - Read-only transactions never take transaction-duration locks: they
//     materialize each page at their assigned version vector on demand
//     (page.View) and abort with page.ErrVersionConflict if the required
//     version was already overwritten.
//   - Secondary indexes are versioned (entries carry visible-from /
//     deleted-at table versions) and maintained eagerly when write-sets are
//     received, so index scans at any version are consistent even though
//     page application is lazy.
package heap

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"dmv/internal/obs"
	"dmv/internal/page"
	"dmv/internal/value"
	"dmv/internal/vclock"
)

// Errors returned by the engine.
var (
	// ErrNoSuchTable reports an unknown table id or name.
	ErrNoSuchTable = errors.New("heap: no such table")
	// ErrNoSuchIndex reports an unknown index.
	ErrNoSuchIndex = errors.New("heap: no such index")
	// ErrLockTimeout reports a page-lock wait that exceeded the engine's
	// lock timeout; the transaction must abort (deadlock resolution by
	// timeout, as in InnoDB's innodb_lock_wait_timeout).
	ErrLockTimeout = errors.New("heap: page lock wait timeout")
	// ErrReadOnly reports a mutation attempted through a read-only
	// transaction.
	ErrReadOnly = errors.New("heap: mutation in read-only transaction")
	// ErrTxDone reports use of a finished transaction.
	ErrTxDone = errors.New("heap: transaction already finished")
	// ErrRowNotFound reports an update/delete of a missing row.
	ErrRowNotFound = errors.New("heap: row not found")
	// ErrDuplicateKey reports a uniqueness violation on a unique index.
	ErrDuplicateKey = errors.New("heap: duplicate key")
)

// VersionLatest tags a read that must observe the newest materialized state
// (stand-alone / single-node operation).
const VersionLatest = ^uint64(0)

// Column declares one table column.
type Column struct {
	Name string
	Type value.ColumnType
}

// TableDef declares a table.
type TableDef struct {
	Name string
	Cols []Column
}

// ColIndex returns the ordinal of the named column, or -1.
func (d *TableDef) ColIndex(name string) int {
	for i, c := range d.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// IndexDef declares a secondary index over column ordinals.
type IndexDef struct {
	Name   string
	Cols   []int
	Unique bool
}

// AccessObserver receives a callback on every page access; the buffer-cache
// simulator implements it to charge hit/miss costs.
type AccessObserver interface {
	PageAccess(table int, pg int32)
}

// Options configure an Engine.
type Options struct {
	// PageCap is the number of row slots per page (default 64).
	PageCap int
	// LockTimeout bounds page-lock waits for update transactions
	// (default 1s).
	LockTimeout time.Duration
	// Observer, if non-nil, is invoked on every page access.
	Observer AccessObserver
	// CommitDelay, if non-nil, is invoked once per update-transaction
	// commit while locks are held (models the WAL fsync of the on-disk
	// baseline).
	CommitDelay func()
	// Obs, if non-nil, receives the engine's metrics (lock waits, commits,
	// lazy/eager page application). Nil disables them at zero cost.
	Obs *obs.Registry
	// NodeID labels the trace spans the engine records (lazy/eager apply)
	// with the owning node; empty for stand-alone engines.
	NodeID string
}

// heapMetrics holds the engine's registry handles; all nil when Options.Obs
// is nil (every obs method no-ops on nil handles).
type heapMetrics struct {
	lockWaitUS   *obs.Histogram
	commits      *obs.Counter
	wsRecords    *obs.Counter
	modsEnqueued *obs.Counter
}

func (o Options) withDefaults() Options {
	if o.PageCap <= 0 {
		o.PageCap = 64
	}
	if o.LockTimeout <= 0 {
		o.LockTimeout = time.Second
	}
	return o
}

// Engine is one database instance. All methods are safe for concurrent use
// after schema setup; DDL (CreateTable/CreateIndex/Load) must complete
// before transactions start, mirroring the paper's setup where every node
// mmaps the same initial database.
type Engine struct {
	opts Options
	met  heapMetrics
	// applyHook observes every lazy/eager application of buffered page
	// modifications; nil when metrics are disabled. Installed on every page
	// at allocation (before the page is shared).
	applyHook func(mods []page.Mod, eager bool)

	mu       sync.RWMutex
	tables   []*Table       // guarded by mu
	byName   map[string]int // guarded by mu
	schemaFP atomic.Uint64  // SchemaFingerprint; written under mu
	clock    *vclock.Clock
	txSeq    uint64 // guarded by txSeqMu
	txSeqMu  sync.Mutex
}

// NewEngine returns an empty engine.
func NewEngine(opts Options) *Engine {
	e := &Engine{
		opts:   opts.withDefaults(),
		byName: make(map[string]int),
		clock:  vclock.NewClock(0),
	}
	if reg := e.opts.Obs; reg != nil {
		e.met = heapMetrics{
			lockWaitUS:   reg.Histogram(obs.HeapLockWaitUS),
			commits:      reg.Counter(obs.HeapCommits),
			wsRecords:    reg.Counter(obs.HeapWriteSetRecords),
			modsEnqueued: reg.Counter(obs.HeapModsEnqueued),
		}
		pagesLazy := reg.Counter(obs.HeapPagesLazy)
		modsLazy := reg.Counter(obs.HeapModsLazy)
		lazyDist := reg.Histogram(obs.HeapLazyApplyDist)
		tracer := reg.Tracer()
		nodeID := e.opts.NodeID
		// Runs under the page latch: metric atomics and the obs trace ring
		// only (level 70, inside the page band).
		e.applyHook = func(mods []page.Mod, eager bool) {
			kind := "eager-apply"
			if !eager {
				kind = "lazy-apply"
				ops := 0
				for _, m := range mods {
					ops += len(m.Ops)
				}
				pagesLazy.Inc()
				modsLazy.Add(int64(ops))
				lazyDist.Observe(int64(len(mods)))
			}
			for _, m := range mods {
				if !m.Trace.Valid() {
					continue
				}
				sp := tracer.BeginChild(kind, m.Trace)
				sp.SetNode(nodeID)
				sp.SetVersion(fmt.Sprintf("%d", m.Version))
				sp.Finish("commit", "")
			}
		}
	}
	return e
}

// CreateTable registers a table and returns its id.
func (e *Engine) CreateTable(def TableDef) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.byName[def.Name]; dup {
		return 0, fmt.Errorf("heap: table %q already exists", def.Name)
	}
	id := len(e.tables)
	t := newTable(id, def, e.opts.PageCap, e.applyHook)
	e.tables = append(e.tables, t)
	e.byName[def.Name] = id
	e.clock = vclock.NewClockAt(e.clock.Current().Merge(vclock.New(id + 1)))
	e.foldSchemaLocked(def)
	return id, nil
}

// CreateIndex registers a secondary index on the table.
func (e *Engine) CreateIndex(table int, def IndexDef) (int, error) {
	t, err := e.table(table)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	id, err := t.addIndex(def)
	if err == nil {
		e.foldSchemaLocked(table, def)
	}
	return id, err
}

// SchemaFingerprint returns a hash of every table and index definition,
// folded in as CreateTable and CreateIndex add them: equal on engines built
// by the same DDL, changed by each table or index added.
func (e *Engine) SchemaFingerprint() uint64 { return e.schemaFP.Load() }

// foldSchemaLocked mixes one new definition into schemaFP. Caller holds mu.
func (e *Engine) foldSchemaLocked(def ...any) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %#v", e.schemaFP.Load(), def)
	e.schemaFP.Store(h.Sum64())
}

// TableID resolves a table name.
func (e *Engine) TableID(name string) (int, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	id, ok := e.byName[name]
	return id, ok
}

// TableDef returns the definition of table id.
func (e *Engine) TableDef(id int) (TableDef, error) {
	t, err := e.table(id)
	if err != nil {
		return TableDef{}, err
	}
	return t.def, nil
}

// TableNames returns all table names in id order.
func (e *Engine) TableNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, len(e.tables))
	for i, t := range e.tables {
		out[i] = t.def.Name
	}
	return out
}

// NumTables returns the number of tables (the version-vector width).
func (e *Engine) NumTables() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.tables)
}

// Indexes returns the index definitions of a table.
func (e *Engine) Indexes(table int) ([]IndexDef, error) {
	t, err := e.table(table)
	if err != nil {
		return nil, err
	}
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	out := make([]IndexDef, len(t.indexes))
	for i, ix := range t.indexes {
		out[i] = ix.def
	}
	return out, nil
}

// Clock exposes the engine's version clock (the master's DBVersion).
func (e *Engine) Clock() *vclock.Clock { return e.clock }

// MaxVersions returns, per table, the highest version this node has
// materialized or buffered; used during master election (the slave with the
// highest versions wins) and by reintegration.
func (e *Engine) MaxVersions() vclock.Vector {
	e.mu.RLock()
	defer e.mu.RUnlock()
	v := vclock.New(len(e.tables))
	for i, t := range e.tables {
		v[i] = t.maxVer.Load()
	}
	return v
}

// AppliedVersions returns, per table, the highest version fully
// materialized into the page slots: the table's max version, lowered to
// just below the earliest buffered-but-unapplied modification on any of
// its pages. The gap between the cluster commit frontier and this vector
// is the replica's staleness (dmv_replica_version_lag); eager write-set
// propagation keeps MaxVersions at the frontier, so lag must be measured
// against applied state, not received state.
func (e *Engine) AppliedVersions() vclock.Vector {
	tables := e.allTables()
	v := vclock.New(len(tables))
	for i, t := range tables {
		applied := t.maxVer.Load()
		for _, pg := range t.pagesSnapshot() {
			if fp, ok := pg.FirstPending(); ok && fp-1 < applied {
				applied = fp - 1
			}
		}
		v[i] = applied
	}
	return v
}

// Load bulk-loads rows into a table before the system starts (the initial
// database image). Rows get sequential row ids and version 0; index entries
// are visible at every version. Deterministic: every node loading the same
// rows in the same order builds an identical image.
func (e *Engine) Load(table int, rows []value.Row) error {
	t, err := e.table(table)
	if err != nil {
		return err
	}
	return t.load(rows)
}

func (e *Engine) table(id int) (*Table, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if id < 0 || id >= len(e.tables) {
		return nil, fmt.Errorf("%w: id %d", ErrNoSuchTable, id)
	}
	return e.tables[id], nil
}

// index returns index idx of table.
func (e *Engine) index(table, idx int) (*Index, error) {
	t, err := e.table(table)
	if err != nil {
		return nil, err
	}
	return t.index(idx)
}

func (e *Engine) allTables() []*Table {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]*Table, len(e.tables))
	copy(out, e.tables)
	return out
}

func (e *Engine) nextTxID() uint64 {
	e.txSeqMu.Lock()
	defer e.txSeqMu.Unlock()
	e.txSeq++
	return e.txSeq
}

func (e *Engine) observe(table int, pg page.ID) {
	if e.opts.Observer != nil {
		e.opts.Observer.PageAccess(table, int32(pg))
	}
}
