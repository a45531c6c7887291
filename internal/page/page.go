// Package page implements the versioned memory pages at the core of Dynamic
// Multiversioning.
//
// The unit of transactional concurrency control is the memory page (as in
// the paper's modified MySQL HEAP storage manager). Every page belongs to
// one table and carries:
//
//   - its materialized state (row slots),
//   - the table-version that state corresponds to ("applied"),
//   - a queue of pending fine-grained modifications received from the
//     conflict-class master but not yet applied.
//
// A read-only transaction tagged with version vector V materializes version
// V[t] of each page it touches on demand (lazy application). Because old
// versions are never retained, a reader requiring a version older than the
// page's applied version must abort with ErrVersionConflict — exactly the
// paper's (rare) version-inconsistency abort.
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"dmv/internal/obs"
	"dmv/internal/value"
)

// RowID identifies a row within its table for the lifetime of the database.
type RowID int64

// ID identifies a page within its table (its index in the table directory).
type ID int32

// ErrVersionConflict is returned when a reader requires a page version that
// has already been overwritten (the paper aborts the reading transaction).
var ErrVersionConflict = errors.New("page: required version already overwritten")

// OpKind discriminates row operations inside a write-set.
type OpKind uint8

// Row operation kinds.
const (
	OpInsert OpKind = iota + 1
	OpUpdate
	OpDelete
)

// RowOp is one fine-grained modification to one row of one page.
type RowOp struct {
	Kind OpKind
	Row  RowID
	Data value.Row // after-image for insert/update; nil for delete
}

// Mod is the portion of one committed transaction's write-set that touches
// one page, stamped with the table version the commit produced and the
// trace context of the committing transaction (so the eventual lazy
// application can be recorded as a child span of the originating commit).
type Mod struct {
	Version uint64
	Ops     []RowOp
	Trace   obs.TraceContext
}

// Page is one versioned memory page. All exported methods are safe for
// concurrent use.
type Page struct {
	id    ID
	table int

	mu      sync.RWMutex
	rows    map[RowID]value.Row
	applied uint64 // table version the slots materialize
	pending []Mod  // sorted ascending by Version

	// createVer is the table version at which the page was allocated; a
	// page allocated mid-transaction carries the sentinel ^uint64(0) until
	// the allocating (or first committing) transaction stamps it, keeping
	// it invisible to scans at any version. Atomic: read by scans without
	// the latch, written under the exclusive latch.
	createVer atomic.Uint64

	// onApply, if set, observes every application of pending modifications:
	// the batch of mods applied, and whether the batch was demand-driven
	// (lazy, a reader or master materializing) or forced (eager, a
	// materialize-all sweep). Runs under the page latch, so it must not
	// block and may only take obs-band locks (metric atomics, the trace
	// ring; level 70 sits inside the page latch in the declared hierarchy).
	// Set once before the page is shared.
	onApply func(mods []Mod, eager bool)
}

// New returns an empty page for the given table, allocated at table version
// createVer (0 for pages present in the initial database load).
func New(table int, id ID, createVer uint64) *Page {
	p := &Page{
		id:    id,
		table: table,
		rows:  make(map[RowID]value.Row),
	}
	// applied starts at 0: an empty page is a valid materialization of every
	// version up to its first modification.
	p.createVer.Store(createVer)
	return p
}

// ID returns the page id.
func (p *Page) ID() ID { return p.id }

// Table returns the owning table id.
func (p *Page) Table() int { return p.table }

// CreateVersion returns the table version at which the page was allocated.
// Full scans at version V skip pages created after V.
func (p *Page) CreateVersion() uint64 { return p.createVer.Load() }

// StampCreateVersion lowers the page's create-version from the allocation
// sentinel to the allocating transaction's commit version. Caller must hold
// the exclusive latch (master commit) or be the sole owner (slave apply).
func (p *Page) StampCreateVersion(v uint64) {
	if p.createVer.Load() > v {
		p.createVer.Store(v)
	}
}

// Applied returns the table version currently materialized.
func (p *Page) Applied() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.applied
}

// Versions returns, under one shared latch, the applied version, the newest
// version received (applied or still buffered) and the materialized row
// count: what changed-page selection needs without materializing the page.
func (p *Page) Versions() (applied, received uint64, rows int) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	received = p.applied
	if n := len(p.pending); n > 0 && p.pending[n-1].Version > received {
		received = p.pending[n-1].Version
	}
	return p.applied, received, len(p.rows)
}

// PendingLen returns the number of buffered, unapplied modifications.
func (p *Page) PendingLen() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.pending)
}

// Enqueue buffers a modification received from the master. Mods from one
// master arrive in commit order; Enqueue keeps the queue sorted as a defense
// against reordering during reconfiguration.
func (p *Page) Enqueue(m Mod) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if m.Version <= p.applied {
		// Already materialized (e.g. duplicate delivery during master
		// fail-over, or the node received the state via page migration).
		return
	}
	n := len(p.pending)
	if n == 0 || p.pending[n-1].Version < m.Version {
		p.pending = append(p.pending, m)
		return
	}
	i := sort.Search(n, func(i int) bool { return p.pending[i].Version >= m.Version })
	if i < n && p.pending[i].Version == m.Version {
		return // duplicate
	}
	p.pending = append(p.pending, Mod{})
	copy(p.pending[i+1:], p.pending[i:])
	p.pending[i] = m
}

// SetApplyHook installs the modification-application observer. Must be
// called before the page is shared (the table directory sets it at
// allocation, under its directory lock).
func (p *Page) SetApplyHook(fn func(mods []Mod, eager bool)) { p.onApply = fn }

// FirstPending returns the lowest buffered-but-unapplied modification
// version, if any. The engine uses it to compute the per-table applied
// frontier that the staleness gauges report.
func (p *Page) FirstPending() (uint64, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if len(p.pending) == 0 {
		return 0, false
	}
	return p.pending[0].Version, true
}

// DiscardAbove drops buffered modifications with version > v. Used during
// master fail-over to clean up partially propagated pre-commits that the
// failed master never acknowledged.
func (p *Page) DiscardAbove(v uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i := sort.Search(len(p.pending), func(i int) bool { return p.pending[i].Version > v })
	p.pending = p.pending[:i]
}

func (p *Page) applyLocked(m Mod) {
	for _, op := range m.Ops {
		p.XApply(op)
	}
	if m.Version > p.applied {
		p.applied = m.Version
	}
}

// ensureLocked applies pending mods with version <= v. Caller holds p.mu.
// Returns ErrVersionConflict if the page has been upgraded past v.
func (p *Page) ensureLocked(v uint64, eager bool) error {
	if p.applied > v {
		return ErrVersionConflict
	}
	n := 0
	for n < len(p.pending) && p.pending[n].Version <= v {
		p.applyLocked(p.pending[n])
		n++
	}
	if n > 0 {
		batch := p.pending[:n]
		p.pending = append([]Mod(nil), p.pending[n:]...)
		if p.onApply != nil {
			// batch aliases the abandoned backing array, so the hook may
			// read it without copying.
			p.onApply(batch, eager)
		}
	}
	return nil
}

// View materializes the page at table version v and calls fn with the row
// slots under a shared latch. fn must not retain or mutate the map. The rows
// in it are the stored rows, immutable once published: fn may keep one but
// must never write into it. Returns ErrVersionConflict if version v is no
// longer constructible.
func (p *Page) View(v uint64, fn func(rows map[RowID]value.Row) error) error {
	for {
		p.mu.RLock()
		if p.applied > v {
			p.mu.RUnlock()
			return ErrVersionConflict
		}
		if len(p.pending) > 0 && p.pending[0].Version <= v {
			p.mu.RUnlock()
			p.mu.Lock()
			err := p.ensureLocked(v, false)
			p.mu.Unlock()
			if err != nil {
				return err
			}
			continue
		}
		err := fn(p.rows)
		p.mu.RUnlock()
		return err
	}
}

// Get returns the row at rid as of version v (materializing v first). ok is
// false if the row does not exist at v. The row is the stored one, not a
// copy: the caller must not write into it.
func (p *Page) Get(rid RowID, v uint64) (row value.Row, ok bool, err error) {
	err = p.View(v, func(rows map[RowID]value.Row) error {
		row, ok = rows[rid]
		return nil
	})
	value.CheckSealed(row)
	return row, ok, err
}

// --- master-side exclusive access (two-phase page locking) -----------------

// LockX acquires the page's exclusive latch. Master transactions hold page
// latches from first touch until commit (strict 2PL).
func (p *Page) LockX() { p.mu.Lock() }

// TryLockX attempts to acquire the exclusive latch without blocking.
func (p *Page) TryLockX() bool { return p.mu.TryLock() }

// UnlockX releases the exclusive latch.
func (p *Page) UnlockX() { p.mu.Unlock() }

// XRows exposes the live slots. Caller must hold the exclusive latch.
func (p *Page) XRows() map[RowID]value.Row { return p.rows }

// XApply mutates one row. Caller must hold the exclusive latch. An inserted
// or updated row is published as it is: op.Data must be a slice nobody
// writes into afterwards, since readers are handed it without a copy.
func (p *Page) XApply(op RowOp) {
	switch op.Kind {
	case OpInsert, OpUpdate:
		value.Seal(op.Data)
		p.rows[op.Row] = op.Data
	case OpDelete:
		delete(p.rows, op.Row)
	}
}

// XStamp records that the page now materializes table version v. Called by
// the master at commit. Caller must hold the exclusive latch.
func (p *Page) XStamp(v uint64) {
	if v > p.applied {
		p.applied = v
	}
}

// Materialize eagerly applies pending modifications up to v (a
// materialize-all sweep during migration or promotion, as opposed to the
// lazy demand-driven application readers trigger through View).
func (p *Page) Materialize(v uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ensureLocked(v, true)
}

// --- checkpoint & migration ------------------------------------------------

// Image is a copy of a page's materialized state, used by the fuzzy
// checkpointer and by page migration for stale-node reintegration.
type Image struct {
	Table     int
	Page      ID
	Version   uint64
	CreateVer uint64
	Rows      map[RowID]value.Row
}

var errRowOrder = errors.New("page image rows out of RowID order")

// AppendImage appends img's binary encoding, the one a page image has on the
// wire and in checkpoint files:
//
//	varint table, varint page, uvarint version, uvarint create version,
//	uvarint row count, then per row in ascending RowID order:
//	    varint RowID, the row as a value.AppendRow row
//
// The fixed row order makes equal images encode to equal bytes.
func AppendImage(b []byte, img Image) []byte {
	b = binary.AppendVarint(b, int64(img.Table))
	b = binary.AppendVarint(b, int64(img.Page))
	b = binary.AppendUvarint(b, img.Version)
	b = binary.AppendUvarint(b, img.CreateVer)
	b = binary.AppendUvarint(b, uint64(len(img.Rows)))
	ids := make([]RowID, 0, len(img.Rows))
	for id := range img.Rows {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		b = binary.AppendVarint(b, int64(id))
		b = value.AppendRow(b, img.Rows[id])
	}
	return b
}

// ReadImage decodes one AppendImage image from d. Rows not in strictly
// ascending RowID order fail d. Rows is never nil, as in a snapshot.
func ReadImage(d *value.Decoder) Image {
	img := Image{Table: int(d.Varint()), Page: ID(d.Varint()), Version: d.Uvarint(), CreateVer: d.Uvarint()}
	n := d.Count()
	img.Rows = make(map[RowID]value.Row, n)
	var prev RowID
	for i := 0; i < n && d.Err() == nil; i++ {
		id := RowID(d.Varint())
		if i > 0 && id <= prev {
			d.Fail(errRowOrder)
			break
		}
		img.Rows[id] = value.ReadRow(d, nil)
		prev = id
	}
	return img
}

// Snapshot copies the materialized state if the page can be latched in
// shared mode without blocking; the fuzzy checkpoint skips pages that are
// exclusively held by in-flight (dirty, uncommitted) transactions, per the
// paper ("dirty pages ... are not included in the flush").
func (p *Page) Snapshot() (Image, bool) {
	if !p.mu.TryRLock() {
		return Image{}, false
	}
	defer p.mu.RUnlock()
	return p.imageLocked(), true
}

// SnapshotBlocking copies the materialized state, waiting for the latch.
// Used by the support slave when serving a migration request.
func (p *Page) SnapshotBlocking() Image {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.imageLocked()
}

// imageLocked copies the rows although they are immutable: an image leaves
// the engine (checkpoint file, migration RPC, the receiving engine's pages),
// and only the checkpoint and migration paths take one, never a workload.
func (p *Page) imageLocked() Image {
	rows := make(map[RowID]value.Row, len(p.rows))
	for id, r := range p.rows {
		rows[id] = r.Clone()
	}
	return Image{
		Table:     p.table,
		Page:      p.id,
		Version:   p.applied,
		CreateVer: p.createVer.Load(),
		Rows:      rows,
	}
}

// XInstall overwrites the page with a shipped image unless the page has
// already applied past it. An image at the page's own version is a scrub
// repair (same version, different bytes); a newer one is migration or
// checkpoint restore; an older one is refused, since the page is already
// fresher. Pending modifications up to the image version are applied first
// and then superseded by the image; newer ones stay buffered.
//
// Caller must hold the exclusive latch, and keeps it while it reconciles
// derived state with the returned prev (the applied version before the
// install) and replaced (the page's rows at the image version, which the
// image superseded).
func (p *Page) XInstall(img Image) (installed bool, prev uint64, replaced map[RowID]value.Row) {
	prev = p.applied
	if img.Version < prev {
		return false, prev, nil
	}
	_ = p.ensureLocked(img.Version, true) // cannot conflict: img.Version >= applied
	replaced = p.rows
	p.rows = make(map[RowID]value.Row, len(img.Rows))
	for id, r := range img.Rows {
		// The image belongs to the caller, which may hand it to other
		// engines too: publish a private copy.
		r = r.Clone()
		value.Seal(r)
		p.rows[id] = r
	}
	p.applied = img.Version
	if img.CreateVer < p.createVer.Load() {
		p.createVer.Store(img.CreateVer)
	}
	return true, prev, replaced
}

// RowCount returns the number of live rows (materialized state).
func (p *Page) RowCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.rows)
}

// String renders page identity for diagnostics. It must never block: lock
// timeout errors format the page while another transaction holds the latch.
func (p *Page) String() string {
	if !p.mu.TryRLock() {
		return fmt.Sprintf("page{t%d/p%d <latched>}", p.table, p.id)
	}
	defer p.mu.RUnlock()
	return fmt.Sprintf("page{t%d/p%d @%d +%d pending}", p.table, p.id, p.applied, len(p.pending))
}
