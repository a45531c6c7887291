package innodb

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/value"
)

// ErrTierClosed reports use of a closed tier.
var ErrTierClosed = errors.New("innodb: tier closed")

// Querier executes statements inside a tier transaction.
type Querier interface {
	Exec(stmt string, params ...value.Value) (*exec.Result, error)
}

// binRec is one committed update transaction in the binary log.
type binRec struct {
	stmts []loggedStmt
}

type loggedStmt struct {
	text   string
	params []value.Value
}

// FailoverStages records the fail-over timing breakdown of the baseline
// (compare Figure 6: the DB-update/replay stage dominates).
type FailoverStages struct {
	Node    string
	Detect  time.Duration // failure detection
	Replay  time.Duration // binlog replay onto the spare (DB Update)
	Records int           // statements replayed
}

// TierConfig describes a replicated InnoDB tier.
type TierConfig struct {
	// Actives is the number of active nodes kept consistent by the
	// conflict-aware scheduler (the paper's baseline uses two).
	Actives int
	// WithSpare adds one passive spare backup.
	WithSpare bool
	// SpareRefresh is the period between binlog refreshes of the spare (the
	// paper's baseline refreshes every 30 minutes). Zero = never.
	SpareRefresh time.Duration
	// Heartbeat is the failure-detection period (default 10ms).
	Heartbeat time.Duration
	// DB configures each node.
	DB Config
	// DDL and Load build each node's initial state.
	DDL  []string
	Load func(*heap.Engine) error
}

// Tier is a replicated on-disk tier: write-all/read-one across the actives,
// with a periodically refreshed passive spare.
type Tier struct {
	cfg TierConfig

	mu      sync.Mutex
	actives []*DB
	spare   *DB

	binMu    sync.Mutex
	binlog   []binRec
	sparePos int

	lockMu     sync.Mutex
	tableLocks map[string]*sync.Mutex

	rrSeq atomic.Int64

	stageMu sync.Mutex
	stages  []FailoverStages

	stop chan struct{}
	done chan struct{}
}

// NewTier builds and starts a replicated InnoDB tier.
func NewTier(cfg TierConfig) (*Tier, error) {
	if cfg.Actives <= 0 {
		cfg.Actives = 2
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 10 * time.Millisecond
	}
	t := &Tier{
		cfg:        cfg,
		tableLocks: make(map[string]*sync.Mutex, 16),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	for i := 0; i < cfg.Actives; i++ {
		db, err := Open(fmt.Sprintf("inno-active%d", i), cfg.DB, cfg.DDL, cfg.Load)
		if err != nil {
			return nil, err
		}
		t.actives = append(t.actives, db)
	}
	if cfg.WithSpare {
		db, err := Open("inno-spare", cfg.DB, cfg.DDL, cfg.Load)
		if err != nil {
			return nil, err
		}
		t.spare = db
	}
	go t.monitor()
	return t, nil
}

// Close stops the background monitor.
func (t *Tier) Close() {
	select {
	case <-t.stop:
		return
	default:
	}
	close(t.stop)
	<-t.done
}

// Actives returns the live active node count.
func (t *Tier) Actives() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, db := range t.actives {
		if db.Alive() {
			n++
		}
	}
	return n
}

// Stages returns the recorded fail-over stage timings.
func (t *Tier) Stages() []FailoverStages {
	t.stageMu.Lock()
	defer t.stageMu.Unlock()
	return append([]FailoverStages(nil), t.stages...)
}

// KillActive fail-stops the i-th active node.
func (t *Tier) KillActive(i int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i >= 0 && i < len(t.actives) {
		t.actives[i].Kill()
	}
}

func (t *Tier) lockTables(tables []string) func() {
	sorted := append([]string(nil), tables...)
	sort.Strings(sorted)
	var locked []*sync.Mutex
	for _, tb := range sorted {
		t.lockMu.Lock()
		m, ok := t.tableLocks[tb]
		if !ok {
			m = &sync.Mutex{}
			t.tableLocks[tb] = m
		}
		t.lockMu.Unlock()
		m.Lock()
		locked = append(locked, m)
	}
	return func() {
		for i := len(locked) - 1; i >= 0; i-- {
			locked[i].Unlock()
		}
	}
}

func (t *Tier) liveActives() []*DB {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*DB, 0, len(t.actives))
	for _, db := range t.actives {
		if db.Alive() {
			out = append(out, db)
		}
	}
	return out
}

// recordingQuerier executes against one node while recording update
// statements for statement-based replication to the other actives.
type recordingQuerier struct {
	db     *DB
	tx     heap.Txn
	logged []loggedStmt
	nStmts int
}

// Exec implements Querier.
func (q *recordingQuerier) Exec(stmt string, params ...value.Value) (*exec.Result, error) {
	q.nStmts++
	res, err := q.db.Exec(q.tx, stmt, params...)
	if err != nil {
		return nil, err
	}
	p, perr := exec.Cached(stmt)
	if perr == nil && !p.ReadOnly() {
		q.logged = append(q.logged, loggedStmt{text: stmt, params: params})
	}
	return res, nil
}

// Update runs fn as an update transaction. The conflict-aware scheduler
// serializes conflicting classes (per-table locks); the transaction executes
// on the first live active and its update statements replay synchronously on
// the remaining actives (write-all), then land in the binlog.
func (t *Tier) Update(tables []string, fn func(q Querier) error) error {
	unlock := t.lockTables(tables)
	defer unlock()
	actives := t.liveActives()
	if len(actives) == 0 {
		return ErrNoActives
	}
	primary := actives[0]
	tx := primary.Eng.BeginUpdate()
	q := &recordingQuerier{db: primary, tx: tx}
	if err := fn(q); err != nil {
		_ = tx.Rollback()
		return err
	}
	if _, err := tx.Commit(nil); err != nil {
		return err
	}
	primary.ChargeService(q.nStmts)
	// Statement-based replication to the other actives.
	for _, db := range actives[1:] {
		err := db.UpdateTxn(func(tx heap.Txn) error {
			for _, s := range q.logged {
				if _, err := db.Exec(tx, s.text, s.params...); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil && db.Alive() {
			return fmt.Errorf("replicate to %s: %w", db.ID, err)
		}
	}
	if len(q.logged) > 0 {
		t.binMu.Lock()
		t.binlog = append(t.binlog, binRec{stmts: q.logged})
		t.binMu.Unlock()
	}
	return nil
}

type plainQuerier struct {
	db *DB
	tx heap.Txn
}

// Exec implements Querier.
func (q *plainQuerier) Exec(stmt string, params ...value.Value) (*exec.Result, error) {
	return q.db.Exec(q.tx, stmt, params...)
}

// Read runs fn as a read-only transaction on one active (round-robin).
func (t *Tier) Read(fn func(q Querier) error) error {
	actives := t.liveActives()
	if len(actives) == 0 {
		return ErrNoActives
	}
	db := actives[int(t.rrSeq.Add(1))%len(actives)]
	return db.ReadTxn(func(tx heap.Txn) error {
		return fn(&plainQuerier{db: db, tx: tx})
	})
}

// monitor detects failed actives and fails over onto the spare.
func (t *Tier) monitor() {
	defer close(t.done)
	ticker := time.NewTicker(t.cfg.Heartbeat)
	defer ticker.Stop()
	var lastRefresh time.Time
	for {
		select {
		case <-t.stop:
			return
		case now := <-ticker.C:
			if t.cfg.SpareRefresh > 0 && now.Sub(lastRefresh) >= t.cfg.SpareRefresh {
				lastRefresh = now
				t.refreshSpare()
			}
			t.mu.Lock()
			var deadIdx = -1
			for i, db := range t.actives {
				if !db.Alive() {
					deadIdx = i
					break
				}
			}
			t.mu.Unlock()
			if deadIdx >= 0 {
				t.failover(deadIdx)
			}
		}
	}
}

// refreshSpare replays the binlog prefix accumulated since the last refresh
// onto the spare (the periodic update of the passive backup).
func (t *Tier) refreshSpare() {
	t.mu.Lock()
	spare := t.spare
	t.mu.Unlock()
	if spare == nil || !spare.Alive() {
		return
	}
	_, _ = t.replayOnto(spare)
}

func (t *Tier) replayOnto(db *DB) (int, error) {
	t.binMu.Lock()
	recs := append([]binRec(nil), t.binlog[t.sparePos:]...)
	t.binMu.Unlock()
	nStmts := 0
	for _, r := range recs {
		nStmts += len(r.stmts)
	}
	// Reading the log back from disk is the dominant baseline cost.
	if db.Disk != nil {
		db.Disk.ReplayRead(nStmts)
	}
	for _, r := range recs {
		err := db.UpdateTxn(func(tx heap.Txn) error {
			for _, s := range r.stmts {
				if _, err := db.Exec(tx, s.text, s.params...); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nStmts, err
		}
	}
	t.binMu.Lock()
	t.sparePos += len(recs)
	t.binMu.Unlock()
	return nStmts, nil
}

// failover replaces a dead active with the spare after bringing the spare up
// to date via binlog replay.
func (t *Tier) failover(deadIdx int) {
	t.mu.Lock()
	if deadIdx >= len(t.actives) || t.actives[deadIdx].Alive() {
		t.mu.Unlock()
		return
	}
	dead := t.actives[deadIdx]
	spare := t.spare
	t.spare = nil
	// Drop the dead node from the active set immediately; reads continue on
	// the survivor at reduced capacity.
	t.actives = append(t.actives[:deadIdx], t.actives[deadIdx+1:]...)
	t.mu.Unlock()

	if spare == nil {
		t.stageMu.Lock()
		t.stages = append(t.stages, FailoverStages{Node: dead.ID})
		t.stageMu.Unlock()
		return
	}
	start := time.Now()
	n, err := t.replayOnto(spare)
	replay := time.Since(start)
	if err == nil {
		t.mu.Lock()
		t.actives = append(t.actives, spare)
		t.mu.Unlock()
	}
	t.stageMu.Lock()
	t.stages = append(t.stages, FailoverStages{Node: dead.ID, Replay: replay, Records: n})
	t.stageMu.Unlock()
}
