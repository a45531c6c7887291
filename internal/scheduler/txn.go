package scheduler

import (
	"errors"
	"fmt"
	"time"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/obs/flight"
	"dmv/internal/page"
	"dmv/internal/replica"
	"dmv/internal/value"
	"dmv/internal/vclock"
)

// TxnSpec declares a transaction before it runs: its access type and the
// tables it touches. The paper requires each incoming request to be preceded
// by its type; the scheduler uses the table set for conflict-class routing.
type TxnSpec struct {
	ReadOnly bool
	Tables   []string
	// Deadline, when non-zero, is the caller's give-up time. The scheduler
	// abandons the transaction — in the admission queue, between retries,
	// and at commit entry — once it passes, and propagates the remaining
	// budget to the executing replica so server-side work stops too. Work
	// is never abandoned mid-commit: a commit that has started follows the
	// ErrCommitUncertain discipline exclusively.
	Deadline time.Time
}

// Txn is a running transaction bound to one replica. Statements execute on
// that replica with per-statement round trips, exactly as the PHP
// application server talks to the database tier in the paper's setup.
//
// Scheduler.Run opens one Txn per attempt and retries the attempts that
// abort.
type Txn struct {
	sched    *Scheduler
	peer     replica.Peer
	rep      *replicaState // non-nil for reads (outstanding accounting)
	id       uint64
	readOnly bool
	version  vclock.Vector
	logged   []LoggedStmt
	done     bool
	deadline time.Time // caller's give-up time (zero = unbounded)
	release  func()    // admission slot release (nil without admission control)
}

// Version returns the version vector the transaction was tagged with
// (read-only transactions only; nil for updates).
func (t *Txn) Version() vclock.Vector { return t.version }

// Replica returns the id of the replica executing this transaction.
func (t *Txn) Replica() string { return t.peer.ID() }

// Exec runs one SQL statement inside the transaction.
func (t *Txn) Exec(stmt string, params ...value.Value) (*exec.Result, error) {
	res, err := t.peer.TxExec(t.id, stmt, params)
	if err != nil {
		return nil, err
	}
	if !t.readOnly && isUpdateStmt(stmt) {
		t.logged = append(t.logged, LoggedStmt{Text: stmt, Params: params})
	}
	return res, nil
}

// QueryInt is a convenience wrapper returning the first column of the first
// row as an int64 (0 if no rows).
func (t *Txn) QueryInt(stmt string, params ...value.Value) (int64, error) {
	res, err := t.Exec(stmt, params...)
	if err != nil {
		return 0, err
	}
	if len(res.Rows) == 0 {
		return 0, nil
	}
	return res.Rows[0][0].AsInt(), nil
}

// isUpdateStmt classifies a statement as a write so the scheduler logs
// exactly the update queries of each committed transaction for the
// persistence tier.
func isUpdateStmt(stmt string) bool {
	p, err := exec.Cached(stmt)
	return err == nil && !p.ReadOnly()
}

// retryable classifies errors the scheduler handles by re-running the
// transaction elsewhere (version-inconsistency aborts, node failures,
// peer deadlines before any commit was attempted) or on the same master
// (deadlock timeouts). An uncertain commit is explicitly NOT retryable:
// the update may already be applied, and replaying it could double its
// effect. Overload rejects and expired deadlines are likewise final — the
// whole point of shedding is that the scheduler stops spending capacity on
// that caller; the retry-after hint tells the client when to come back.
func retryable(err error) bool {
	if errors.Is(err, ErrCommitUncertain) {
		return false
	}
	return errors.Is(err, page.ErrVersionConflict) ||
		errors.Is(err, replica.ErrNodeDown) ||
		errors.Is(err, heap.ErrLockTimeout) ||
		errors.Is(err, replica.ErrPeerTimeout)
}

// causeOf names an abort cause for trace spans ("" for success).
func causeOf(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrCommitUncertain):
		return "commit-uncertain"
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	case errors.Is(err, replica.ErrDeadlineExpired):
		return "deadline-expired"
	case errors.Is(err, page.ErrVersionConflict):
		return "version-conflict"
	case errors.Is(err, heap.ErrLockTimeout):
		return "lock-timeout"
	case errors.Is(err, replica.ErrPeerTimeout):
		return "peer-timeout"
	case errors.Is(err, replica.ErrNodeDown):
		return "node-down"
	default:
		return "other"
	}
}

// Run executes fn as one transaction. Read-only transactions are tagged with
// the latest merged version vector and routed by version affinity; update
// transactions go to their conflict-class master. Aborted transactions
// (version conflicts, deadlock timeouts, node failures) are retried up to
// MaxRetries times — fn must therefore be idempotent up to its commit, which
// holds for the TPC-W interactions (all side effects live in the database).
func (s *Scheduler) Run(spec TxnSpec, fn func(tx *Txn) error) error {
	var lastErr error
	for attempt := 0; attempt <= s.opts.MaxRetries; attempt++ {
		if !spec.Deadline.IsZero() && time.Now().After(spec.Deadline) {
			// The caller gave up; retrying on their behalf would be pure
			// wasted capacity during exactly the overloads that cause
			// deadline misses.
			s.met.deadlineAbandoned.Inc()
			if lastErr != nil {
				return fmt.Errorf("%w: gave up after %d attempts: %v", replica.ErrDeadlineExpired, attempt, lastErr)
			}
			return fmt.Errorf("%w: before first attempt", replica.ErrDeadlineExpired)
		}
		err := s.runOnce(spec, fn)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable(err) {
			return err
		}
		if errors.Is(err, page.ErrVersionConflict) {
			s.stats.VersionAborts.Add(1)
		}
		if errors.Is(err, heap.ErrLockTimeout) {
			s.stats.LockRetries.Add(1)
		}
		if errors.Is(err, replica.ErrPeerTimeout) {
			s.met.abortPeerTimeout.Add(1)
		} else if errors.Is(err, replica.ErrNodeDown) {
			s.met.abortNodeDown.Add(1)
		}
	}
	s.met.retriesExhausted.Add(1)
	return fmt.Errorf("%w: %v", ErrRetriesExhausted, lastErr)
}

func (s *Scheduler) runOnce(spec TxnSpec, fn func(tx *Txn) error) error {
	var sp *obs.Span
	if s.tracer != nil {
		kind := "update"
		if spec.ReadOnly {
			kind = "read"
		}
		sp = s.tracer.Begin(kind)
	}
	start := time.Now()
	defer s.met.txnUS.ObserveSince(start)
	tx, err := s.begin(spec, sp)
	if err != nil {
		sp.Finish("abort", causeOf(err))
		return err
	}
	if err := fn(tx); err != nil {
		_ = tx.Rollback()
		if errors.Is(err, replica.ErrNodeDown) {
			s.reportFailure(tx.peer.ID())
		}
		sp.Mark("exec")
		sp.Finish("abort", causeOf(err))
		return err
	}
	sp.Mark("exec")
	if err := tx.Commit(); err != nil {
		sp.Finish("abort", causeOf(err))
		return err
	}
	sp.Mark("commit")
	sp.Finish("commit", "")
	return nil
}

// remainingBudget converts the spec deadline into the duration budget the
// replica call carries (0 = unbounded; an error when already expired).
func (s *Scheduler) remainingBudget(deadline time.Time) (time.Duration, error) {
	if deadline.IsZero() {
		return 0, nil
	}
	left := time.Until(deadline)
	if left <= 0 {
		s.met.deadlineAbandoned.Inc()
		return 0, fmt.Errorf("%w: expired before session begin", replica.ErrDeadlineExpired)
	}
	return left, nil
}

// begin opens one transaction session: read-only transactions are tagged
// with the latest version vector and placed by the version-aware policy;
// updates go to their conflict-class master. The caller must finish the
// session with Commit or Rollback. begin does not retry — Run adds retry
// semantics on top. The optional trace span is annotated with the
// lifecycle stages (admission, version tagging, replica selection, session
// begin). When admission control is enabled the bounded queue is the very
// first gate: an overloaded scheduler rejects here, in microseconds, before
// any version tagging or replica work is spent on the doomed transaction.
func (s *Scheduler) begin(spec TxnSpec, sp *obs.Span) (*Txn, error) {
	var release func()
	if s.admit != nil {
		class := s.admit.readClass()
		if !spec.ReadOnly {
			class = s.classFor(spec.Tables)
		}
		rel, err := s.admit.Admit(class, spec.Deadline)
		if err != nil {
			return nil, err
		}
		release = rel
		sp.Mark("admit")
	}
	fail := func(err error) (*Txn, error) {
		if release != nil {
			release()
		}
		return nil, err
	}
	if spec.ReadOnly {
		v := s.merged.Latest()
		if sp != nil {
			sp.SetVersion(v.String())
			sp.Mark("tag")
		}
		rep := s.pickReader(v)
		sp.Mark("pick")
		if rep == nil {
			return fail(ErrNoReplicas)
		}
		sp.SetReplica(rep.peer.ID())
		budget, err := s.remainingBudget(spec.Deadline)
		if err != nil {
			rep.outstanding.Add(-1)
			return fail(err)
		}
		id, err := rep.peer.TxBegin(true, v, budget, sp.Context())
		if err != nil {
			rep.outstanding.Add(-1) // pickReader incremented under its lock
			if errors.Is(err, replica.ErrNodeDown) {
				s.reportFailure(rep.peer.ID())
			}
			return fail(err)
		}
		sp.Mark("begin")
		return &Txn{sched: s, peer: rep.peer, rep: rep, id: id, readOnly: true, version: v, deadline: spec.Deadline, release: release}, nil
	}
	ci := s.classFor(spec.Tables)
	master := s.Master(ci)
	if master == nil {
		return fail(ErrNoReplicas)
	}
	sp.SetReplica(master.ID())
	budget, err := s.remainingBudget(spec.Deadline)
	if err != nil {
		return fail(err)
	}
	id, err := master.TxBegin(false, nil, budget, sp.Context())
	if err != nil {
		if errors.Is(err, replica.ErrPeerTimeout) {
			// No commit was attempted, so the retry is safe; the report
			// feeds the failure detector, which decides whether the master
			// is gray-failed or merely slow.
			s.reportFailure(master.ID())
			return fail(err)
		}
		if errors.Is(err, replica.ErrNodeDown) || errors.Is(err, replica.ErrNotMaster) {
			s.reportFailure(master.ID())
			return fail(fmt.Errorf("%w: master %s unavailable", replica.ErrNodeDown, master.ID()))
		}
		return fail(err)
	}
	sp.Mark("begin")
	return &Txn{sched: s, peer: master, id: id, deadline: spec.Deadline, release: release}, nil
}

// Commit finishes the session. Update commits report the new version vector
// to the merged clock and feed the persistence tier.
func (t *Txn) Commit() error {
	if t.done {
		return nil
	}
	t.done = true
	if t.release != nil {
		defer t.release()
	}
	s := t.sched
	if !t.readOnly && !t.deadline.IsZero() && time.Now().After(t.deadline) {
		// Commit-entry check: the caller's deadline lapsed before any commit
		// work began, so aborting here is unconditionally safe. Once the
		// commit RPC is issued, only the ErrCommitUncertain discipline below
		// applies — a deadline never interrupts a commit in flight.
		s.met.deadlineAbandoned.Inc()
		_ = t.peer.TxRollback(t.id)
		return fmt.Errorf("%w: abandoned at commit entry", replica.ErrDeadlineExpired)
	}
	if t.readOnly {
		defer t.rep.outstanding.Add(-1)
		if _, err := t.peer.TxCommit(t.id); err != nil {
			if errors.Is(err, replica.ErrNodeDown) {
				s.reportFailure(t.peer.ID())
			}
			return err
		}
		s.stats.ReadTxns.Add(1)
		return nil
	}
	// The fence spans the master commit and the version report: master
	// fail-over cannot read its rollback point between the two, so every
	// acknowledged commit's version is covered by any rollback.
	s.commitFence.RLock()
	ver, err := t.peer.TxCommit(t.id)
	if err != nil {
		s.commitFence.RUnlock()
		if errors.Is(err, replica.ErrPeerTimeout) || errors.Is(err, replica.ErrReplyLost) {
			// The reply was lost to the deadline or to a failed connection
			// after the request went out: the commit may have happened.
			// Never acknowledged, never reported — so if it did land above
			// every acknowledged version, a fail-over discard erases it;
			// if the master survives, or a later acknowledged commit
			// covers its version, the caller must reconcile. Either way, a
			// blind retry is unsafe.
			s.reportFailure(t.peer.ID())
			s.flight.Trigger(flight.CauseCommitUncertain, t.peer.ID(), err.Error())
			return fmt.Errorf("%w: %v", ErrCommitUncertain, err)
		}
		if errors.Is(err, replica.ErrNodeDown) {
			s.reportFailure(t.peer.ID())
		}
		return err
	}
	if ver != nil {
		s.merged.Report(ver)
		if s.fanout != nil {
			s.fanout(ver)
		}
	}
	s.commitFence.RUnlock()
	s.stats.UpdateTxns.Add(1)
	if s.opts.OnCommit != nil && len(t.logged) > 0 {
		s.opts.OnCommit(CommitRecord{Version: ver, Stmts: t.logged})
	}
	return nil
}

// Rollback aborts the session.
func (t *Txn) Rollback() error {
	if t.done {
		return nil
	}
	t.done = true
	if t.release != nil {
		defer t.release()
	}
	if t.rep != nil {
		defer t.rep.outstanding.Add(-1)
	}
	return t.peer.TxRollback(t.id)
}
