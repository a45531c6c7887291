package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"dmv/internal/value"
)

// appendLog is a fixed-capacity log that many goroutines append to without
// a lock: a slot is claimed with one atomic add and written only by its
// claimant. Entries are read after every writer has stopped. Appends past
// the capacity are counted, not stored; a traced run that dropped anything
// is reported as failed rather than silently short.
type appendLog[T any] struct {
	buf     []T
	next    atomic.Int64
	dropped atomic.Int64
}

func newAppendLog[T any](capacity int) *appendLog[T] {
	return &appendLog[T]{buf: make([]T, capacity)}
}

// reserve claims n consecutive slots and returns the first, or -1 when the
// log is full.
func (l *appendLog[T]) reserve(n int) int {
	end := l.next.Add(int64(n))
	if end > int64(len(l.buf)) {
		l.dropped.Add(int64(n))
		return -1
	}
	return int(end) - n
}

func (l *appendLog[T]) add(v T) {
	if i := l.reserve(1); i >= 0 {
		l.buf[i] = v
	}
}

func (l *appendLog[T]) items() []T {
	n := l.next.Load()
	if n > int64(len(l.buf)) {
		n = int64(len(l.buf))
	}
	return l.buf[:n]
}

// spanKind names the boundary a span was recorded at.
type spanKind uint8

const (
	kInteraction spanKind = iota // one tpcw.Workload.Do, on the client goroutine
	kTxn                         // tpcw.Store.Run = scheduler.Run incl. retries
	kAttempt                     // one invocation of the transaction body
	kStmt                        // tpcw.Querier.Exec
	kBegin                       // Peer.TxBegin on a handle the scheduler holds
	kExec                        // Peer.TxExec
	kCommit                      // Peer.TxCommit
	kRollback                    // Peer.TxRollback
	kWSRecv                      // Peer.ReceiveWriteSet on a handle the master holds
	kOnCommit                    // scheduler.Options.OnCommit (persistence tier)
	kFsync                       // wal.File.Sync
	numKinds
)

var kindNames = [numKinds]string{
	"interaction", "txn", "attempt", "stmt", "peer.begin", "peer.exec",
	"peer.commit", "peer.rollback", "peer.ws-recv", "persist.on-commit", "wal.fsync",
}

// span is one timed call at a layer boundary. It holds no pointers, so the
// log of a whole run costs the garbage collector nothing to scan.
type span struct {
	Kind    spanKind
	Update  bool  // belongs to an update transaction
	Failed  bool  // the call returned an error
	Peer    int8  // 0 master, 1.. slaves; -1 when no replica is involved
	Client  int16 // interaction id, -1 until known
	Ordinal int32
	Parent  int32 // index of the causing span, -1 when none is known
	Start   int64 // ns since the tracer's epoch
	End     int64
	Tx      uint64 // replica session id, or the write-set's transaction id
	Ver     uint64 // verSum of the commit's version vector (commit, ws-recv, on-commit)
	A, B, C int32  // txn: attempts; ws-recv: pages, mods, bytes
}

func (s span) dur() int64 { return s.End - s.Start }

// stmtRec is one statement of a committed transaction, kept for the
// statement-replay probe.
type stmtRec struct {
	text   string
	params []value.Value
}

// readSampleEvery is the share of committed read-only transactions whose
// statements are kept for replay: one in this many.
const readSampleEvery = 4

// tracer collects what the decorators see during a traced repetition.
//
// What it keeps changes what the garbage collector does: the heap goal is
// twice the live heap, so tens of megabytes of trace would make collections
// rarer and the traced repetition faster than the timed ones. Spans
// therefore live outside the Go heap, and of the statement stream only what
// the replay probe will execute is retained.
type tracer struct {
	epoch   time.Time
	on      atomic.Bool // the measured window is open
	spans   *appendLog[span]
	spanMem []byte // the mapping behind spans

	// freq counts the window's committed statements by text.
	freq sync.Map // string -> *atomic.Int64
	// reads holds the statements of every readSampleEvery-th read-only
	// transaction committed in the window; updates holds the first
	// INSERT/UPDATE statements committed since the first warm-up interaction
	// (the replay rebuilds their state from the initial image, so it needs a
	// prefix of the stream, not a sample).
	reads    *appendLog[stmtRec]
	updates  *appendLog[stmtRec]
	readTxns atomic.Int64

	walBytes atomic.Int64 // bytes written through the wal.File decorator in the window
}

// newTracer sizes the logs for a window of the given number of interactions.
func newTracer(interactions int) (*tracer, error) {
	// The ordering mix averages 14 spans per interaction, browsing 10.
	capacity := interactions*24 + 4096
	mem, err := syscall.Mmap(-1, 0, capacity*int(unsafe.Sizeof(span{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map span log: %w", err)
	}
	return &tracer{
		epoch:   time.Now(),
		spans:   &appendLog[span]{buf: unsafe.Slice((*span)(unsafe.Pointer(&mem[0])), capacity)},
		spanMem: mem,
		reads:   newAppendLog[stmtRec](interactions),
		updates: newAppendLog[stmtRec](replaySample),
	}, nil
}

// free unmaps the span log; the spans must not be used afterwards.
func (t *tracer) free() {
	if t.spanMem != nil {
		_ = syscall.Munmap(t.spanMem) // nothing to do about a failed unmap of our own mapping
		t.spans, t.spanMem = nil, nil
	}
}

// committed takes in the statements of one committed transaction.
func (t *tracer) committed(stmts []stmtRec, update, window bool) {
	if window {
		for _, s := range stmts {
			n, ok := t.freq.Load(s.text)
			if !ok {
				n, _ = t.freq.LoadOrStore(s.text, new(atomic.Int64))
			}
			n.(*atomic.Int64).Add(1)
		}
	}
	switch {
	case update:
		for _, s := range stmts {
			if !strings.HasPrefix(strings.TrimSpace(s.text), "SELECT") {
				t.updates.add(s) // once full, the prefix is long enough
			}
		}
	case window && t.readTxns.Add(1)%readSampleEvery == 0:
		if at := t.reads.reserve(len(stmts)); at >= 0 {
			copy(t.reads.buf[at:], stmts)
		}
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open claims a slot for a span whose children need its index before it
// ends; -1 while the window is closed. close fills it.
func (t *tracer) open() int32 {
	if !t.on.Load() {
		return -1
	}
	return int32(t.spans.reserve(1))
}

func (t *tracer) close(id int32, s span) {
	if id >= 0 {
		t.spans.buf[id] = s
	}
}

// leaf records a span nothing else will refer to.
func (t *tracer) leaf(s span) {
	if t.on.Load() {
		t.spans.add(s)
	}
}
