// Package persist implements the on-disk persistence tier of Section 4.6:
// the scheduler logs the update queries of every committed transaction
// (a lightweight insert into a query log) and returns to the client without
// waiting for the on-disk databases; an asynchronous applier executes the
// batched queries on one or more on-disk back-ends, and a stale back-end
// recovers by replaying the missing suffix of the log.
//
// The query log is crash-durable when the tier is opened over a WAL
// directory (see durable.go): OnCommit appends the record to the WAL and —
// under the "always" fsync policy — group-commits it before returning, so
// an acknowledged transaction survives a process crash. Checkpoint() cuts
// per-backend engine checkpoints and truncates both the WAL segments and
// the in-memory log prefix they make redundant, bounding disk and memory.
// Open is the one whole-tier restart path: it opens the log, picks the
// recovery base (the lowest checkpoint among the backends it builds),
// builds every backend from its own checkpoint or the base, and returns the
// loader that brings a node engine to the same state by replaying the log.
//
// Log positions are global record indexes that survive truncation: the
// in-memory slice t.log holds records [t.base, t.base+len(t.log)), and a
// backend's applied mark counts from the beginning of history. A tier with
// no backends (a bare WAL) keeps no records, only their count in t.base:
// nothing would apply or replay them, and nothing would trim them.
package persist

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/innodb"
	"dmv/internal/obs"
	"dmv/internal/obs/flight"
	"dmv/internal/scheduler"
	"dmv/internal/simdisk"
	"dmv/internal/wal"
)

// ErrClosed reports use of a closed tier.
var ErrClosed = errors.New("persist: tier closed")

// ErrLogTruncated reports a Recover target whose applied mark lies below
// the truncated log prefix: replay alone cannot rebuild it — Open rebuilds
// such a backend from the recovery base.
var ErrLogTruncated = errors.New("persist: backend predates the truncated log prefix")

// Backend is one on-disk database: an engine whose options charge the
// synthetic disk costs, plus the disk itself (for replay-read charging).
type Backend struct {
	ID   string
	Eng  *heap.Engine
	Disk *simdisk.Disk

	// applyMu serializes writers of the backend engine (applier, Recover,
	// Checkpoint). Holding it quiesces the engine, so a fuzzy checkpoint
	// taken under it is complete — no dirty pages to skip.
	applyMu sync.Mutex

	mu          sync.Mutex
	applied     int  // guarded by mu; log prefix (global index) already executed here
	quarantined bool // guarded by mu; an apply error froze this backend pending Recover
}

// Applied returns how many committed transactions this backend has executed.
func (b *Backend) Applied() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.applied
}

// Quarantined reports whether an apply error has frozen this backend.
func (b *Backend) Quarantined() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.quarantined
}

// Tier is the persistence tier: a query log plus asynchronous appliers.
type Tier struct {
	mu     sync.Mutex
	cond   *sync.Cond               // guarded by mu; signals log growth and apply progress
	log    []scheduler.CommitRecord // guarded by mu; records [base, base+len)
	base   int                      // guarded by mu; global index of log[0]
	closed bool                     // guarded by mu

	backs   []*Backend
	done    chan struct{}
	onError func(error)
	flight  *flight.Recorder // nil-safe anomaly trigger sink

	wal       *wal.WAL // nil for a memory-only tier
	dir       string
	fs        wal.FS
	ckptEvery int // auto-checkpoint once every backend is this far past base (0 = manual)

	reg         *obs.Registry
	logged      *obs.Counter // committed transactions appended to the query log
	applied     *obs.Counter // transactions executed on a backend by the applier
	replayed    *obs.Counter // transactions replayed during backend recovery
	errs        *obs.Counter // apply/durability errors
	truncations *obs.Counter // checkpoint-coordinated truncations completed
}

// Options configure a tier.
type Options struct {
	// Backends are the on-disk databases (the paper uses "a few, e.g. two").
	// Each has applied at least up to Log's base, as Open builds them:
	// replay cannot reach a backend below it.
	Backends []*Backend
	// Log, if non-nil, makes the tier crash-durable: recovered records seed
	// the in-memory log (at the recovered base offset) and OnCommit appends
	// to the WAL before acknowledging. The tier takes ownership and closes
	// the WAL in Close.
	Log *RecoveredLog
	// CheckpointEvery, when > 0 with a durable log, auto-checkpoints once
	// every backend has applied this many records past the current base.
	CheckpointEvery int
	// OnError, if non-nil, receives apply and durability errors. An apply
	// error also quarantines the failing backend: its applied mark freezes
	// (holding the log from truncation) until Recover succeeds.
	OnError func(error)
	// Obs, if non-nil, receives the tier's counters plus a backlog gauge
	// (log entries not yet applied by the slowest backend) and per-backend
	// quarantine gauges.
	Obs *obs.Registry
	// Flight, if non-nil, receives a backend-quarantine anomaly trigger
	// whenever an apply error freezes a backend, enqueueing a cluster-wide
	// flight dump.
	Flight *flight.Recorder
}

// NewTier starts the tier's applier.
func NewTier(opts Options) *Tier {
	t := &Tier{
		backs:     opts.Backends,
		done:      make(chan struct{}),
		onError:   opts.OnError,
		flight:    opts.Flight,
		ckptEvery: opts.CheckpointEvery,
	}
	if l := opts.Log; l != nil {
		t.wal = l.WAL
		t.dir = l.WAL.Dir()
		t.fs = l.WAL.FS()
		t.base = l.Base
		t.log = l.Records
	}
	if len(t.backs) == 0 {
		t.base += len(t.log)
		t.log = nil
	}
	if reg := opts.Obs; reg != nil {
		t.reg = reg
		t.logged = reg.Counter(obs.PersistLogged)
		t.applied = reg.Counter(obs.PersistApplied)
		t.replayed = reg.Counter(obs.PersistReplayed)
		t.errs = reg.Counter(obs.PersistErrors)
		t.truncations = reg.Counter(obs.PersistTruncations)
		reg.GaugeFunc(obs.PersistBacklog, t.backlog)
		for _, b := range t.backs {
			reg.GaugeFunc(obs.Labeled(obs.PersistQuarantined, "backend", b.ID), quarantineGauge(b))
		}
	}
	t.cond = sync.NewCond(&t.mu)
	go t.applier()
	return t
}

func quarantineGauge(b *Backend) func() float64 {
	return func() float64 {
		if b.Quarantined() {
			return 1
		}
		return 0
	}
}

// backlog reports how far the slowest backend trails the query log.
func (t *Tier) backlog() float64 {
	t.mu.Lock()
	logEnd := t.base + len(t.log)
	t.mu.Unlock()
	max := 0
	for _, b := range t.backs {
		if lag := logEnd - b.Applied(); lag > max {
			max = lag
		}
	}
	return float64(max)
}

// OnCommit is the scheduler hook: append to the query log and return. The
// log append is the "lightweight database insert"; the on-disk execution
// happens asynchronously. With a durable log the record is framed into the
// WAL under the same lock that orders the memory log (so disk order equals
// memory order), and under the "always" policy this call group-commits —
// it returns only once an fsync covers the record, so the scheduler's ack
// implies durability.
func (t *Tier) OnCommit(rec scheduler.CommitRecord) {
	var payload []byte
	if t.wal != nil {
		payload = EncodeRecord(rec) // encode outside the lock
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	if len(t.backs) == 0 {
		t.base++
	} else {
		t.log = append(t.log, rec)
	}
	var seq uint64
	var walErr error
	if t.wal != nil {
		seq, walErr = t.wal.Append(payload)
	}
	t.logged.Inc()
	t.cond.Broadcast()
	t.mu.Unlock()
	if t.wal != nil && walErr == nil {
		walErr = t.wal.WaitDurable(seq)
	}
	if walErr != nil {
		// The record stays in the memory log when the tier has backends
		// (they must not diverge from what the cluster committed); without
		// backends only its count in t.base remains. Either way its
		// durability is gone; surface the loss loudly.
		t.errs.Inc()
		if t.onError != nil {
			t.onError(fmt.Errorf("persist: wal append: %w", walErr))
		}
	}
}

// LogLen returns the committed-transaction count in the query log since
// the beginning of history (truncated prefix included).
func (t *Tier) LogLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.base + len(t.log)
}

// Backends returns the tier's on-disk databases.
func (t *Tier) Backends() []*Backend { return t.backs }

// Base returns the global index of the first in-memory log record.
func (t *Tier) Base() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.base
}

// Flush blocks until every non-quarantined backend has applied the log as
// of the call. A quarantined backend would block Flush forever (its mark
// is frozen); it is skipped and remains visible via the quarantine gauge.
// Each check and its wait share one hold of t.mu, so the applier's
// broadcast cannot fall between them and be lost.
func (t *Tier) Flush() {
	t.mu.Lock()
	defer t.mu.Unlock()
	target := t.base + len(t.log)
	for _, b := range t.backs {
		for !b.Quarantined() && b.Applied() < target {
			t.cond.Wait()
		}
	}
}

// Close stops the applier and closes the WAL (the log remains readable for
// recovery; a clean Close fsyncs the tail under always/interval policies).
func (t *Tier) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	t.cond.Broadcast()
	t.mu.Unlock()
	<-t.done
	if t.wal != nil {
		if err := t.wal.Close(); err != nil && t.onError != nil {
			t.onError(fmt.Errorf("persist: wal close: %w", err))
		}
	}
}

func (t *Tier) applier() {
	defer close(t.done)
	for {
		t.mu.Lock()
		for {
			if t.closed {
				t.mu.Unlock()
				return
			}
			logEnd := t.base + len(t.log)
			progress := false
			for _, b := range t.backs {
				if !b.Quarantined() && b.Applied() < logEnd {
					progress = true
				}
			}
			if progress {
				break
			}
			t.cond.Wait()
		}
		logEnd := t.base + len(t.log)
		t.mu.Unlock()

		for _, b := range t.backs {
			for {
				b.mu.Lock()
				idx, quarantined := b.applied, b.quarantined
				b.mu.Unlock()
				if quarantined || idx >= logEnd {
					break
				}
				t.mu.Lock()
				rec := t.log[idx-t.base]
				t.mu.Unlock()
				b.applyMu.Lock()
				err := exec.Replay(b.Eng, rec.Stmts)
				b.applyMu.Unlock()
				if err != nil {
					// Quarantine: freeze the applied mark so the log keeps
					// every record this backend still needs, and stop
					// touching the backend until Recover clears it.
					// Skipping the record instead would silently diverge
					// the backend from the log forever.
					b.mu.Lock()
					b.quarantined = true
					b.mu.Unlock()
					t.errs.Inc()
					if t.onError != nil {
						t.onError(fmt.Errorf("persist: backend %s txn %d quarantined: %w", b.ID, idx, err))
					}
					t.flight.Trigger(flight.CauseQuarantine, b.ID, fmt.Sprintf("apply error at txn %d: %v", idx, err))
					break
				}
				t.applied.Inc()
				b.mu.Lock()
				b.applied++
				b.mu.Unlock()
			}
		}
		t.mu.Lock()
		t.cond.Broadcast()
		t.mu.Unlock()
		t.maybeCheckpoint()
	}
}

// maybeCheckpoint runs an automatic checkpoint when every backend has
// applied CheckpointEvery records past the current base.
func (t *Tier) maybeCheckpoint() {
	if t.ckptEvery <= 0 || t.wal == nil || len(t.backs) == 0 {
		return
	}
	t.mu.Lock()
	base := t.base
	t.mu.Unlock()
	min := -1
	for _, b := range t.backs {
		a := b.Applied()
		if min < 0 || a < min {
			min = a
		}
	}
	if min-base < t.ckptEvery {
		return
	}
	if _, err := t.Checkpoint(); err != nil && t.onError != nil {
		t.onError(fmt.Errorf("persist: auto checkpoint: %w", err))
	}
}

// Recover brings a stale backend up to date by replaying the missing suffix
// of the query log, charging the backend's replay-read disk cost, and
// clears its quarantine once it has fully caught up. Returns the number of
// transactions replayed. A backend whose applied mark predates the log
// base gets ErrLogTruncated: Open rebuilds it from the recovery base.
func (t *Tier) Recover(b *Backend) (int, error) {
	t.mu.Lock()
	base := t.base
	logEnd := t.base + len(t.log)
	t.mu.Unlock()
	b.mu.Lock()
	from := b.applied
	b.mu.Unlock()
	if from < base {
		return 0, fmt.Errorf("persist: backend %s applied %d < log base %d: %w", b.ID, from, base, ErrLogTruncated)
	}
	if b.Disk != nil {
		n := 0
		t.mu.Lock()
		for i := from; i < logEnd; i++ {
			n += len(t.log[i-t.base].Stmts)
		}
		t.mu.Unlock()
		b.Disk.ReplayRead(n)
	}
	replayed := 0
	for i := from; i < logEnd; i++ {
		t.mu.Lock()
		if i < t.base {
			// A concurrent checkpoint truncated past our cursor — only
			// possible if another path advanced this backend's mark; the
			// re-read below resyncs.
			curBase := t.base
			t.mu.Unlock()
			return replayed, fmt.Errorf("persist: backend %s replay cursor %d < log base %d: %w", b.ID, i, curBase, ErrLogTruncated)
		}
		rec := t.log[i-t.base]
		t.mu.Unlock()
		b.applyMu.Lock()
		err := exec.Replay(b.Eng, rec.Stmts)
		b.applyMu.Unlock()
		if err != nil {
			t.errs.Inc()
			return replayed, err
		}
		b.mu.Lock()
		b.applied++
		b.mu.Unlock()
		replayed++
		t.replayed.Inc()
	}
	// Caught up (as of the snapshot above): lift the quarantine so the
	// applier resumes; any records committed meanwhile follow normally.
	b.mu.Lock()
	if b.quarantined && b.applied >= logEnd {
		b.quarantined = false
	}
	b.mu.Unlock()
	t.mu.Lock()
	t.cond.Broadcast()
	t.mu.Unlock()
	return replayed, nil
}

// Checkpoint cuts a durable checkpoint of every backend, advances the
// log base to the minimum applied mark, deletes dead WAL segments, and
// prunes the in-memory prefix — the truncation point that keeps both disk
// and memory bounded. Quarantined backends are included in the minimum
// (their frozen mark holds the log until they recover or are rebuilt).
// Returns the new truncation cut. Requires a durable log.
func (t *Tier) Checkpoint() (int, error) {
	if t.wal == nil {
		return 0, errors.New("persist: checkpoint requires a durable log")
	}
	if len(t.backs) == 0 {
		return 0, errors.New("persist: checkpoint requires at least one backend")
	}
	cut := -1
	for _, b := range t.backs {
		// applyMu quiesces this backend: no update transaction is in
		// flight, so the fuzzy checkpoint skips nothing and pairs exactly
		// with the applied mark read under the same hold.
		b.applyMu.Lock()
		b.mu.Lock()
		applied := b.applied
		b.mu.Unlock()
		cp := b.Eng.FuzzyCheckpoint()
		b.applyMu.Unlock()
		blob, err := (&BackendCheckpoint{Applied: applied, Checkpoint: cp}).encode()
		if err != nil {
			return 0, fmt.Errorf("persist: encode checkpoint %s: %w", b.ID, err)
		}
		path := filepath.Join(t.dir, manifestName(b.ID))
		if err := wal.WriteFileDurable(t.fs, path, blob); err != nil {
			return 0, fmt.Errorf("persist: write checkpoint %s: %w", b.ID, err)
		}
		if cut < 0 || applied < cut {
			cut = applied
		}
	}
	if err := t.wal.TruncateTo(uint64(cut)); err != nil {
		return 0, err
	}
	if err := t.removeDepartedManifests(); err != nil {
		return 0, err
	}
	t.mu.Lock()
	if cut > t.base {
		// Reallocate so the dropped prefix is actually collectable rather
		// than pinned by the backing array.
		t.log = append([]scheduler.CommitRecord(nil), t.log[cut-t.base:]...)
		t.base = cut
	}
	t.mu.Unlock()
	t.truncations.Inc()
	return cut, nil
}

// removeDepartedManifests deletes the manifest of every backend that is no
// longer in the tier. It gets no later manifest, so Open would decode the
// stale one at every start; a backend of that id added back starts from the
// recovery base instead.
func (t *Tier) removeDepartedManifests() error {
	names, err := t.fs.ReadDir(t.dir)
	if err != nil {
		return fmt.Errorf("persist: scan %s: %w", t.dir, err)
	}
	for _, name := range names {
		id, ok := manifestID(name)
		if !ok || slices.ContainsFunc(t.backs, func(b *Backend) bool { return b.ID == id }) {
			continue
		}
		if err := t.fs.Remove(filepath.Join(t.dir, name)); err != nil {
			return fmt.Errorf("persist: remove checkpoint %s: %w", name, err)
		}
	}
	return nil
}

// NewBackend builds an on-disk backend with the given cost model and cache
// capacity, creates the schema, and loads the initial image.
func NewBackend(id string, costs simdisk.CostModel, cacheCap int, ddl []string, load func(*heap.Engine) error) (*Backend, error) {
	db, err := innodb.Open(id, innodb.Config{Costs: costs, CacheCapacity: cacheCap}, ddl, load)
	if err != nil {
		return nil, err
	}
	return &Backend{ID: id, Eng: db.Eng, Disk: db.Disk}, nil
}
