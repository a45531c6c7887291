// Package simdisk models a node's hardware: its CPU, its buffer cache and
// its storage device.
//
// The paper's experiments contrast a fast in-memory tier against an on-disk
// InnoDB back-end and measure buffer-cache warm-up effects after fail-over.
// Neither the authors' disks nor their 512 MB machines are available, so
// this package substitutes a calibrated synthetic cost model: a CPU of a
// fixed number of cores that charges a fixed service time per statement, an
// LRU buffer cache of bounded capacity, and a "device" that charges a fixed
// latency per miss, per fsync, and per replayed log record. All experiment
// shapes in the paper (speedup factors, warm-up dips, log-replay-dominated
// fail-over) are ratios of these costs, which the model preserves while
// letting every figure regenerate in seconds. The charges are sleeps, which
// consume no host CPU, so an N-node tier scales even on few cores.
package simdisk

import (
	"container/list"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// CostModel fixes the synthetic CPU and device latencies. Zero durations
// disable the corresponding charge.
type CostModel struct {
	// Stmt is the CPU demand of one read statement (see ReadStmt).
	Stmt time.Duration
	// UpdateStmt is the CPU demand of one update-transaction statement (see
	// UpdateStmts). TPC-W updates are lightweight row changes while the
	// read interactions run heavyweight joins, so the two rates differ.
	UpdateStmt time.Duration
	// CPUs is the number of statements the node serves at once (0 means 1).
	CPUs int
	// PageMiss is charged when a page access misses the buffer cache.
	PageMiss time.Duration
	// PageHit is charged on every cache hit (usually zero or tiny).
	PageHit time.Duration
	// CommitFsync is charged once per transaction commit (WAL flush).
	CommitFsync time.Duration
	// ReplayRead is charged per log record read back during recovery replay.
	ReplayRead time.Duration
}

// InMemory returns the cost model for a DMV in-memory replica: no disk
// costs; cache misses model pages being faulted into a cold buffer cache.
func InMemory(pageFault time.Duration) CostModel {
	return CostModel{PageMiss: pageFault}
}

// OnDisk returns the cost model for the InnoDB-like on-disk back-end.
func OnDisk(miss, fsync, replay time.Duration) CostModel {
	return CostModel{PageMiss: miss, CommitFsync: fsync, ReplayRead: replay}
}

// PageKey identifies a cached page.
type PageKey struct {
	Table int
	Page  int32
}

// Stats are cumulative counters, safe to read concurrently.
type Stats struct {
	Hits        atomic.Int64
	Misses      atomic.Int64
	Fsyncs      atomic.Int64
	Corruptions atomic.Int64 // seeded bit-flip injections fired (see SetBitFlip)
}

// Disk is a synthetic device with an LRU buffer cache. The zero value is not
// usable; construct with New. All methods are safe for concurrent use.
type Disk struct {
	model CostModel
	sleep func(time.Duration)
	cpu   chan struct{} // one slot per CPU; nil when no statement is charged

	mu       sync.Mutex
	capacity int
	lru      *list.List                // front = most recent
	pages    map[PageKey]*list.Element // value: PageKey
	disabled bool

	// Seeded corruption injection — the in-memory twin of
	// faultdisk.SetBitFlip, kept API-parallel so chaos schedules compose:
	// when armed (WithFaultSeed) each page access independently corrupts
	// with probability bitFlipP, and every decision and victim pick draws
	// from the one seeded rng so a schedule replays exactly from its seed.
	// rng is the sole fault-entropy source; nil = disarmed. Written once at
	// construction (WithFaultSeed) before the Disk is published and never
	// reassigned, so the disarmed fast path may nil-check it without the
	// lock; drawing from it always happens under mu.
	rng       *rand.Rand
	bitFlipP  float64                               // guarded by mu; per-access corruption probability
	onCorrupt func(table int, pg int32, pick int64) // guarded by mu; fired after unlock — see OnCorrupt

	stats Stats
}

// Option configures a Disk.
type Option func(*Disk)

// WithSleeper replaces time.Sleep (tests inject a recorder instead of
// sleeping).
func WithSleeper(fn func(time.Duration)) Option {
	return func(d *Disk) { d.sleep = fn }
}

// WithFaultSeed arms the disk's corruption injector with its sole entropy
// source (the analogue of faultdisk.New's seed). Nothing corrupts until
// SetBitFlip sets a positive probability.
func WithFaultSeed(seed int64) Option {
	return func(d *Disk) { d.rng = rand.New(rand.NewSource(seed)) }
}

// New returns a Disk with an LRU cache holding capacity pages. A capacity
// <= 0 disables the cache entirely (every access hits; no warm-up effects),
// which is the configuration for scaling runs where the working set is
// memory resident.
func New(model CostModel, capacity int, opts ...Option) *Disk {
	d := &Disk{
		model:    model,
		sleep:    time.Sleep,
		capacity: capacity,
		lru:      list.New(),
		pages:    make(map[PageKey]*list.Element, capacity),
		disabled: capacity <= 0,
	}
	if model.Stmt > 0 || model.UpdateStmt > 0 {
		d.cpu = make(chan struct{}, max(model.CPUs, 1))
	}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Stats exposes the counters.
func (d *Disk) Stats() *Stats { return &d.stats }

// SetBitFlip sets the per-access probability that a page access corrupts
// the page, mirroring faultdisk.SetBitFlip. Requires WithFaultSeed; an
// unarmed disk never corrupts regardless of p.
func (d *Disk) SetBitFlip(p float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.bitFlipP = p
}

// OnCorrupt installs the corruption sink: fn receives the accessed page and
// a seeded pick value (feed it to heap.Engine.CorruptPage to flip an actual
// bit). It is called after the disk lock is released but still on the
// accessing goroutine, which may hold page latches — implementations that
// mutate engine state must hand the work to another goroutine.
func (d *Disk) OnCorrupt(fn func(table int, pg int32, pick int64)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.onCorrupt = fn
}

// maybeCorrupt draws one corruption decision for this access from the
// seeded rng; on a hit it burns a pick value and reports it to the sink.
func (d *Disk) maybeCorrupt(table int, pg int32) {
	if d.rng == nil {
		// Armed only at construction (WithFaultSeed), never after, so the
		// unarmed hot path stays lock-free.
		return
	}
	d.mu.Lock()
	if d.bitFlipP <= 0 || d.rng.Float64() >= d.bitFlipP {
		d.mu.Unlock()
		return
	}
	pick := d.rng.Int63()
	fn := d.onCorrupt
	d.mu.Unlock()
	d.stats.Corruptions.Add(1)
	if fn != nil {
		fn(table, pg, pick)
	}
}

// PageAccess records an access to (table, pg), charging the hit or miss
// cost. It implements the storage engine's access-observer hook.
func (d *Disk) PageAccess(table int, pg int32) {
	d.maybeCorrupt(table, pg)
	if d.disabled {
		d.stats.Hits.Add(1)
		return
	}
	key := PageKey{Table: table, Page: pg}
	d.mu.Lock()
	el, ok := d.pages[key]
	if ok {
		d.lru.MoveToFront(el)
	} else {
		d.pages[key] = d.lru.PushFront(key)
		if d.lru.Len() > d.capacity {
			oldest := d.lru.Back()
			d.lru.Remove(oldest)
			delete(d.pages, oldest.Value.(PageKey))
		}
	}
	d.mu.Unlock()
	if ok {
		d.stats.Hits.Add(1)
		if d.model.PageHit > 0 {
			d.sleep(d.model.PageHit)
		}
		return
	}
	d.stats.Misses.Add(1)
	if d.model.PageMiss > 0 {
		d.sleep(d.model.PageMiss)
	}
}

// Warm marks a page resident without charging the miss cost. The page-id
// transfer warm-up scheme uses this: the spare backup merely "touches" page
// ids shipped from an active slave to keep them swapped in.
func (d *Disk) Warm(table int, pg int32) {
	if d.disabled {
		return
	}
	key := PageKey{Table: table, Page: pg}
	d.mu.Lock()
	defer d.mu.Unlock()
	if el, ok := d.pages[key]; ok {
		d.lru.MoveToFront(el)
		return
	}
	d.pages[key] = d.lru.PushFront(key)
	if d.lru.Len() > d.capacity {
		oldest := d.lru.Back()
		d.lru.Remove(oldest)
		delete(d.pages, oldest.Value.(PageKey))
	}
}

// Resident reports whether a page is currently cached.
func (d *Disk) Resident(table int, pg int32) bool {
	if d.disabled {
		return true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.pages[PageKey{Table: table, Page: pg}]
	return ok
}

// ResidentCount returns the number of cached pages.
func (d *Disk) ResidentCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lru.Len()
}

// ResidentSet returns the cached page keys, most recently used first. Active
// slaves ship this set to spare backups in the page-id-transfer warm-up
// scheme.
func (d *Disk) ResidentSet(limit int) []PageKey {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.lru.Len()
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]PageKey, 0, n)
	for el := d.lru.Front(); el != nil && len(out) < n; el = el.Next() {
		out = append(out, el.Value.(PageKey))
	}
	return out
}

// Drop empties the cache (a cold restart).
func (d *Disk) Drop() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lru.Init()
	d.pages = make(map[PageKey]*list.Element, d.capacity)
}

// CommitFsync charges one WAL flush.
func (d *Disk) CommitFsync() {
	d.stats.Fsyncs.Add(1)
	if d.model.CommitFsync > 0 {
		d.sleep(d.model.CommitFsync)
	}
}

// ReplayRead charges reading n log records back from disk during recovery.
func (d *Disk) ReplayRead(n int) {
	if d.model.ReplayRead > 0 && n > 0 {
		d.sleep(time.Duration(n) * d.model.ReplayRead)
	}
}

// ReadStmt charges one read statement's CPU demand: the caller holds one of
// the node's CPUs for Stmt, queueing while all are busy. Callers charge it
// before the statement executes and release the CPU before executing, so a
// statement blocked on a page latch does not consume CPU. A nil Disk
// charges nothing.
func (d *Disk) ReadStmt() {
	if d == nil || d.model.Stmt <= 0 {
		return
	}
	d.useCPU(d.model.Stmt)
}

// UpdateStmts charges an update transaction's n statements in one piece.
// Callers charge it after the commit, once its page locks are released:
// sleeping inside the transaction would amplify lock contention far beyond
// the modelled hardware. A nil Disk charges nothing.
func (d *Disk) UpdateStmts(n int) {
	if d == nil || d.model.UpdateStmt <= 0 || n <= 0 {
		return
	}
	d.useCPU(time.Duration(n) * d.model.UpdateStmt)
}

// useCPU occupies one CPU for t.
func (d *Disk) useCPU(t time.Duration) {
	d.cpu <- struct{}{}
	d.sleep(t)
	<-d.cpu
}

// Model returns the configured cost model.
func (d *Disk) Model() CostModel { return d.model }
