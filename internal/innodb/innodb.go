// Package innodb implements the on-disk baseline the paper compares
// against: the same storage engine as the in-memory tier, but configured
// like a disk-resident InnoDB — a bounded buffer pool in front of a
// synthetic disk (page-miss latency), a WAL fsync per commit, serializable
// locking, and a binary log for statement-based replication.
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

// Exec runs one statement in the given transaction, resolving its text
// through the shared statement cache.
func (db *DB) Exec(tx heap.Txn, text string, params ...value.Value) (*exec.Result, error) {
	p, err := exec.Cached(text)
	if err != nil {
		return nil, err
	}
	if ct, ok := tx.(*countedTxn); ok {
		// Update statements are charged at commit by UpdateTxn. The
		// executor's cursors read the UpdateTx itself.
		ct.n.n++
		tx = ct.Txn
	} else if tx.ReadOnly() {
		db.Disk.ReadStmt()
	}
	return p.Exec(tx, params)
}

// ReadTxn runs fn in a read-only transaction over the latest state.
func (db *DB) ReadTxn(fn func(tx heap.Txn) error) error {
	if !db.Alive() {
		return fmt.Errorf("innodb %s: node down", db.ID)
	}
	return fn(db.Eng.BeginRead(nil))
}

// UpdateTxn runs fn in an update transaction and commits (charging the
// fsync cost).
func (db *DB) UpdateTxn(fn func(tx heap.Txn) error) error {
	if !db.Alive() {
		return fmt.Errorf("innodb %s: node down", db.ID)
	}
	tx := db.Eng.BeginUpdate()
	stmts := &stmtCounter{}
	if err := fn(&countedTxn{Txn: tx, n: stmts}); err != nil {
		_ = tx.Rollback()
		return err
	}
	if _, err := tx.Commit(nil); err != nil {
		return err
	}
	db.Disk.UpdateStmts(stmts.n)
	return nil
}

// stmtCounter counts statements executed in an update transaction; the
// count is charged to the node's CPU after commit.
type stmtCounter struct{ n int }

// countedTxn is a pass-through heap.Txn; DB.Exec cannot see transaction
// boundaries, so the statement count lives here. Only the methods the
// executor calls per statement bump the counter meaningfully; counting per
// row operation would double-charge multi-row statements, so the count is
// bumped by Exec below instead.
type countedTxn struct {
	heap.Txn
	n *stmtCounter
}
