// Package innodb implements the on-disk baseline the paper compares
// against: the same storage engine as the in-memory tier, but configured
// like a disk-resident InnoDB — a bounded buffer pool in front of a
// synthetic disk (page-miss latency), a WAL fsync per commit, serializable
// locking, and a binary log for statement-based replication.
//
// Every transaction, on a DB or through the tier, runs a callback over one
// Session: its Exec charges ReadStmt per read statement and counts an
// update transaction's statements for the UpdateStmts charged after its
// commit. Replaying logged statements goes through exec.Replay, the same
// function the persistence tier applies its query log with.
//
// It also implements the replicated-InnoDB tier used as the fail-over
// baseline in Section 6.3: a conflict-aware scheduler keeps N active nodes
// consistent by executing every update on all of them (write-all/read-one),
// while a passive spare is refreshed from the binlog only periodically;
// fail-over replays the missing binlog suffix onto the spare, which is what
// makes the baseline's fail-over take minutes.
package innodb

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/simdisk"
	"dmv/internal/value"
)

// ErrNoActives reports a tier with no live active nodes.
var ErrNoActives = errors.New("innodb: no active nodes")

// Config describes one on-disk database.
type Config struct {
	// CacheCapacity is the buffer-pool size in pages (0 = unbounded, which
	// disables warm-up effects).
	CacheCapacity int
	// Costs is the node's hardware model: the CPU's per-statement demand
	// and the synthetic disk.
	Costs simdisk.CostModel
	// LockTimeout bounds page-lock waits.
	LockTimeout time.Duration
	// PageCap is rows per page.
	PageCap int
}

// DefaultCosts returns the calibrated cost model used by the experiments:
// the ratios (not the absolute values) are what reproduce the paper's
// shapes. A disk page read costs ~50x an in-memory page fault; a commit
// fsync is charged on every update transaction; replaying a logged
// statement from disk costs one log-read each.
func DefaultCosts() simdisk.CostModel {
	return simdisk.OnDisk(400*time.Microsecond, 5*time.Millisecond, 150*time.Microsecond)
}

// DB is one on-disk database node.
type DB struct {
	ID   string
	Eng  *heap.Engine
	Disk *simdisk.Disk

	alive atomic.Bool
}

// Open builds an on-disk database, creates the schema, and loads the
// initial image.
func Open(id string, cfg Config, ddl []string, load func(*heap.Engine) error) (*DB, error) {
	disk := simdisk.New(cfg.Costs, cfg.CacheCapacity)
	eng := heap.NewEngine(heap.Options{
		PageCap:     cfg.PageCap,
		LockTimeout: cfg.LockTimeout,
		Observer:    disk,
		CommitDelay: disk.CommitFsync,
	})
	for _, d := range ddl {
		if err := exec.ExecDDL(eng, d); err != nil {
			return nil, fmt.Errorf("innodb %s: %w", id, err)
		}
	}
	if load != nil {
		if err := load(eng); err != nil {
			return nil, fmt.Errorf("innodb %s load: %w", id, err)
		}
	}
	db := &DB{ID: id, Eng: eng, Disk: disk}
	db.alive.Store(true)
	return db, nil
}

// Alive reports liveness.
func (db *DB) Alive() bool { return db.alive.Load() }

// Kill fail-stops the node.
func (db *DB) Kill() { db.alive.Store(false) }

// Session is one transaction on a DB, handed to the callbacks of ReadTxn,
// UpdateTxn and the tier's Read and Update.
type Session struct {
	db     *DB
	tx     heap.Txn
	n      int               // statements run, charged as UpdateStmts after commit
	record bool              // keep the update statements in logged
	logged []exec.LoggedStmt // the transaction's update statements, for replication
}

// Exec runs one statement in the session's transaction, resolving its text
// through the shared statement cache. A read transaction charges ReadStmt
// before each statement; an update transaction's statements are charged in
// one piece after it commits.
func (s *Session) Exec(stmt string, params ...value.Value) (*exec.Result, error) {
	p, err := exec.Cached(stmt)
	if err != nil {
		return nil, err
	}
	if s.tx.ReadOnly() {
		s.db.Disk.ReadStmt()
	} else {
		s.n++
	}
	res, err := p.Exec(s.tx, params)
	if err != nil {
		return nil, err
	}
	if s.record && !p.ReadOnly() {
		s.logged = append(s.logged, exec.LoggedStmt{Text: stmt, Params: params})
	}
	return res, nil
}

func (db *DB) errDown() error { return fmt.Errorf("innodb %s: node down", db.ID) }

// ReadTxn runs fn in a read-only transaction over the latest state.
func (db *DB) ReadTxn(fn func(*Session) error) error {
	if !db.Alive() {
		return db.errDown()
	}
	return fn(&Session{db: db, tx: db.Eng.BeginRead(nil)})
}

// UpdateTxn runs fn in an update transaction and commits it (the engine
// charges the fsync), then charges the statements fn ran.
func (db *DB) UpdateTxn(fn func(*Session) error) error {
	_, err := db.update(fn, false)
	return err
}

// update is UpdateTxn; with record set it also returns the committed
// transaction's update statements.
func (db *DB) update(fn func(*Session) error, record bool) ([]exec.LoggedStmt, error) {
	if !db.Alive() {
		return nil, db.errDown()
	}
	tx := db.Eng.BeginUpdate()
	s := &Session{db: db, tx: tx, record: record}
	if err := fn(s); err != nil {
		_ = tx.Rollback()
		return nil, err
	}
	if _, err := tx.Commit(nil); err != nil {
		return nil, err
	}
	db.Disk.UpdateStmts(s.n)
	return s.logged, nil
}

// replay runs a logged transaction's statements as one update transaction
// and charges them like UpdateTxn does.
func (db *DB) replay(stmts []exec.LoggedStmt) error {
	if !db.Alive() {
		return db.errDown()
	}
	if err := exec.Replay(db.Eng, stmts); err != nil {
		return err
	}
	db.Disk.UpdateStmts(len(stmts))
	return nil
}
