package main

import (
	"os"
	"strings"
	"time"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/page"
	"dmv/internal/replica"
	"dmv/internal/scheduler"
	"dmv/internal/tpcw"
	"dmv/internal/value"
	"dmv/internal/vclock"
	"dmv/internal/wal"
)

// --- tpcw.Store over the scheduler -------------------------------------------

// ack is one acknowledged update interaction, as the correctness oracle
// needs it: the key the interaction wrote and, for AdminConfirm, the values.
type ack struct {
	kind tpcw.Interaction // CustomerRegistration, BuyConfirm or AdminConfirm
	id   int64
	cost float64
	date int64
}

// schedStore is the bare adapter the timed runs use. Read-only transactions
// hand the scheduler's Txn straight to the interaction; update transactions
// pass through writeCapture so the oracle knows what was acknowledged.
type schedStore struct {
	sched *scheduler.Scheduler
	acks  *appendLog[ack]
}

func (s schedStore) Run(readOnly bool, tables []string, fn func(tpcw.Querier) error) error {
	spec := scheduler.TxnSpec{ReadOnly: readOnly, Tables: tables}
	if readOnly {
		return s.sched.Run(spec, func(tx *scheduler.Txn) error { return fn(tx) })
	}
	var w writeCapture
	err := s.sched.Run(spec, func(tx *scheduler.Txn) error {
		w = writeCapture{q: tx}
		return fn(&w)
	})
	if err == nil && w.ack.kind != 0 {
		s.acks.add(w.ack)
	}
	return err
}

// writeCapture notes the key written by the statement that identifies each
// update interaction.
type writeCapture struct {
	q   tpcw.Querier
	ack ack
}

func (w *writeCapture) Exec(stmt string, params ...value.Value) (*exec.Result, error) {
	res, err := w.q.Exec(stmt, params...)
	if err != nil {
		return res, err
	}
	switch {
	case strings.Contains(stmt, "INSERT INTO orders ("):
		w.ack = ack{kind: tpcw.BuyConfirm, id: params[0].AsInt()}
	case strings.Contains(stmt, "INSERT INTO customer ("):
		w.ack = ack{kind: tpcw.CustomerRegistration, id: params[0].AsInt()}
	case strings.Contains(stmt, "UPDATE item SET i_cost"):
		w.ack = ack{kind: tpcw.AdminConfirm, id: params[4].AsInt(), cost: params[0].AsFloat(), date: params[1].AsInt()}
	}
	return res, err
}

// tracedStore decorates a tpcw.Store: one txn span around Run, one attempt
// span per invocation of the body, one stmt span per statement. All three
// are opened on the calling goroutine and link exactly.
type tracedStore struct {
	inner   tpcw.Store
	t       *tracer
	peerIdx map[string]int8
}

func (s *tracedStore) Run(readOnly bool, tables []string, fn func(tpcw.Querier) error) error {
	t := s.t
	txn := t.open()
	start := t.now()
	window := txn >= 0
	var stmts []stmtRec
	attempts := int32(0)
	err := s.inner.Run(readOnly, tables, func(q tpcw.Querier) error {
		attempts++
		stmts = stmts[:0]
		peer := int8(0) // update bodies run on the master
		if r, ok := q.(interface{ Replica() string }); ok {
			peer = s.peerIdx[r.Replica()]
		}
		att := t.open()
		tq := &tracedQuerier{q: q, t: t, parent: att, peer: peer, update: !readOnly, stmts: &stmts}
		as := t.now()
		ferr := fn(tq)
		t.close(att, span{Kind: kAttempt, Update: !readOnly, Failed: ferr != nil, Peer: peer,
			Client: -1, Ordinal: -1, Parent: txn, Start: as, End: t.now()})
		return ferr
	})
	t.close(txn, span{Kind: kTxn, Update: !readOnly, Failed: err != nil, Peer: -1,
		Client: -1, Ordinal: -1, Parent: -1, Start: start, End: t.now(), A: attempts})
	if err == nil {
		// Only the committed attempt's statements: the replay probe must
		// not insert a retried row twice.
		t.committed(stmts, !readOnly, window)
	}
	return err
}

type tracedQuerier struct {
	q      tpcw.Querier
	t      *tracer
	parent int32
	peer   int8
	update bool
	stmts  *[]stmtRec
}

func (q *tracedQuerier) Exec(stmt string, params ...value.Value) (*exec.Result, error) {
	start := q.t.now()
	res, err := q.q.Exec(stmt, params...)
	q.t.leaf(span{Kind: kStmt, Update: q.update, Failed: err != nil, Peer: q.peer,
		Client: -1, Ordinal: -1, Parent: q.parent, Start: start, End: q.t.now()})
	*q.stmts = append(*q.stmts, stmtRec{text: stmt, params: params})
	return res, err
}

// --- replica.Peer -------------------------------------------------------------

// tracedPeer decorates a handle the scheduler holds. Every other Peer method
// is forwarded by the embedded interface; errors are returned as they came,
// because the scheduler's retry logic matches them with errors.Is.
type tracedPeer struct {
	replica.Peer
	t   *tracer
	idx int8
}

func (p *tracedPeer) call(kind spanKind, update bool, start int64, tx, ver uint64, err error) {
	p.t.leaf(span{Kind: kind, Update: update, Failed: err != nil, Peer: p.idx,
		Client: -1, Ordinal: -1, Parent: -1, Start: start, End: p.t.now(), Tx: tx, Ver: ver})
}

func (p *tracedPeer) TxBegin(readOnly bool, version vclock.Vector, deadline time.Duration, tc obs.TraceContext) (uint64, error) {
	start := p.t.now()
	id, err := p.Peer.TxBegin(readOnly, version, deadline, tc)
	p.call(kBegin, !readOnly, start, id, 0, err)
	return id, err
}

// The scheduler sends updates to the master's handle and reads to the
// slaves', so the handle's index tells the two apart.
func (p *tracedPeer) TxExec(txID uint64, stmt string, params []value.Value) (*exec.Result, error) {
	start := p.t.now()
	res, err := p.Peer.TxExec(txID, stmt, params)
	p.call(kExec, p.idx == 0, start, txID, 0, err)
	return res, err
}

func (p *tracedPeer) TxCommit(txID uint64) (vclock.Vector, error) {
	start := p.t.now()
	ver, err := p.Peer.TxCommit(txID)
	p.call(kCommit, p.idx == 0, start, txID, verSum(ver), err)
	return ver, err
}

func (p *tracedPeer) TxRollback(txID uint64) error {
	start := p.t.now()
	err := p.Peer.TxRollback(txID)
	p.call(kRollback, p.idx == 0, start, txID, 0, err)
	return err
}

// tracedSubscriber decorates a handle the master broadcasts write-sets to.
// The master serializes broadcasts under its commit mutex, so each handle
// sees one call at a time, in commit order; the first subscriber keeps the
// write-sets for the write-set replay probe.
type tracedSubscriber struct {
	replica.Peer
	t    *tracer
	idx  int8
	keep *[]*heap.WriteSet
}

func (p *tracedSubscriber) ReceiveWriteSet(ws *heap.WriteSet) error {
	if p.keep != nil {
		*p.keep = append(*p.keep, ws)
	}
	start := p.t.now()
	err := p.Peer.ReceiveWriteSet(ws)
	if p.t.on.Load() {
		pages := make(map[[2]int32]struct{}, 8)
		for _, r := range ws.Records {
			pages[[2]int32{int32(r.Table), int32(r.Page)}] = struct{}{}
		}
		p.t.spans.add(span{Kind: kWSRecv, Update: true, Failed: err != nil, Peer: p.idx,
			Client: -1, Ordinal: -1, Parent: -1, Start: start, End: p.t.now(), Tx: ws.TxID, Ver: verSum(ws.Version),
			A: int32(len(pages)), B: int32(len(ws.Records)), C: int32(ws.Size())})
	}
	return err
}

// verSum identifies a commit by the sum of its version vector: one master
// owns every table here and each commit raises at least one entry, so the
// sum is strictly increasing in commit order.
func verSum(v vclock.Vector) uint64 {
	var s uint64
	for _, x := range v {
		s += x
	}
	return s
}

// --- scheduler.Options.OnCommit ----------------------------------------------

func (t *tracer) wrapOnCommit(fn func(scheduler.CommitRecord)) func(scheduler.CommitRecord) {
	return func(rec scheduler.CommitRecord) {
		start := t.now()
		fn(rec)
		t.leaf(span{Kind: kOnCommit, Update: true, Peer: -1, Client: -1, Ordinal: -1, Parent: -1,
			Start: start, End: t.now(), Ver: verSum(rec.Version)})
	}
}

// --- wal.FS / wal.File ----------------------------------------------------------

// tracedFS decorates the filesystem under the WAL: fsync time and count,
// bytes written. Everything else is forwarded.
type tracedFS struct {
	wal.FS
	t *tracer
}

func (f tracedFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, t: f.t}, nil
}

type tracedFile struct {
	wal.File
	t *tracer
}

func (f *tracedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.t.on.Load() {
		f.t.walBytes.Add(int64(n))
	}
	return n, err
}

func (f *tracedFile) Sync() error {
	start := f.t.now()
	err := f.File.Sync()
	f.t.leaf(span{Kind: kFsync, Update: true, Failed: err != nil, Peer: -1, Client: -1, Ordinal: -1,
		Parent: -1, Start: start, End: f.t.now()})
	return err
}

// --- heap.Txn -------------------------------------------------------------------

// txnProbe decorates a storage transaction for the single-threaded
// statement-replay probe: time inside the storage engine (with the
// executor's scan callbacks taken out), calls, and rows handed up.
type txnProbe struct {
	heap.Txn
	ns    int64 // inside Fetch/Scan/IndexScan/LookupEq
	wrNs  int64 // inside Insert/Update/Delete
	calls int64
	rows  int64 // rows handed to the executor: Fetch hits and Scan rows
}

func (p *txnProbe) Fetch(table int, rid page.RowID) (value.Row, bool, error) {
	start := time.Now()
	row, ok, err := p.Txn.Fetch(table, rid)
	p.ns += int64(time.Since(start))
	p.calls++
	if ok {
		p.rows++
	}
	return row, ok, err
}

func (p *txnProbe) Scan(table int, fn func(rid page.RowID, row value.Row) bool) error {
	var inFn int64
	start := time.Now()
	err := p.Txn.Scan(table, func(rid page.RowID, row value.Row) bool {
		s := time.Now()
		more := fn(rid, row)
		inFn += int64(time.Since(s))
		p.rows++
		return more
	})
	p.ns += int64(time.Since(start)) - inFn
	p.calls++
	return err
}

func (p *txnProbe) IndexScan(table, idx int, from value.Row, fn func(key value.Row, rid page.RowID) bool) error {
	var inFn int64
	start := time.Now()
	err := p.Txn.IndexScan(table, idx, from, func(key value.Row, rid page.RowID) bool {
		s := time.Now()
		more := fn(key, rid)
		inFn += int64(time.Since(s))
		return more
	})
	p.ns += int64(time.Since(start)) - inFn
	p.calls++
	return err
}

func (p *txnProbe) LookupEq(table, idx int, key value.Row) ([]page.RowID, error) {
	start := time.Now()
	rids, err := p.Txn.LookupEq(table, idx, key)
	p.ns += int64(time.Since(start))
	p.calls++
	return rids, err
}

func (p *txnProbe) Insert(table int, row value.Row) (page.RowID, error) {
	start := time.Now()
	rid, err := p.Txn.Insert(table, row)
	p.wrNs += int64(time.Since(start))
	p.calls++
	return rid, err
}

func (p *txnProbe) Update(table int, rid page.RowID, row value.Row) error {
	start := time.Now()
	err := p.Txn.Update(table, rid, row)
	p.wrNs += int64(time.Since(start))
	p.calls++
	return err
}

func (p *txnProbe) Delete(table int, rid page.RowID) error {
	start := time.Now()
	err := p.Txn.Delete(table, rid)
	p.wrNs += int64(time.Since(start))
	p.calls++
	return err
}
