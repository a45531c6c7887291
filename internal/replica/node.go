// Package replica implements one DMV database node: a heap storage engine
// wrapped with the replication roles of the paper — master (pre-commit
// write-set broadcast, Figure 2), slave (eager buffering, lazy application),
// and spare backup (subscribed to the replication stream, kept warm for
// fail-over) — plus the reintegration protocol for stale nodes (Section 4.4)
// and the fuzzy checkpointing thread.
//
// A Node exposes the Peer interface. In-process clusters call the methods
// directly; the transport package serves the same interface over TCP.
package replica

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/obs/flight"
	"dmv/internal/page"
	"dmv/internal/scrub"
	"dmv/internal/simdisk"
	"dmv/internal/value"
	"dmv/internal/vclock"
	"dmv/internal/wal"
)

// Errors surfaced by node operations.
var (
	// ErrNodeDown reports a call on a failed (killed) node; the fail-stop
	// model makes every operation on a dead node fail this way.
	ErrNodeDown = errors.New("replica: node is down")
	// ErrNotMaster reports an update transaction routed to a non-master.
	ErrNotMaster = errors.New("replica: update transaction on non-master node")
	// ErrNoSession reports an unknown transaction session id.
	ErrNoSession = errors.New("replica: no such transaction session")
	// ErrPeerTimeout reports a peer call that exceeded its deadline: the
	// peer may be alive but slow or partitioned (a gray failure), so
	// callers treat it as suspicion evidence rather than proof of death.
	ErrPeerTimeout = errors.New("replica: peer call deadline exceeded")
	// ErrReplyLost reports a call whose request was sent but whose reply
	// was lost when the connection failed: the peer may have carried it
	// out. It comes wrapped with ErrNodeDown, so only a caller that must
	// not repeat the call (an update commit) needs to look for it.
	ErrReplyLost = errors.New("replica: request sent, reply lost")
	// ErrVersionConflict mirrors the storage-level version-inconsistency
	// abort at the replication API boundary so remote callers can match it.
	ErrVersionConflict = page.ErrVersionConflict
	// ErrDeadlineExpired reports work abandoned because the caller's
	// deadline passed before it started: the session began, executed, or
	// reached commit entry after the client had already given up. It is
	// never raised once commit work has started — a commit either runs to
	// completion or fails for its own reasons (the ErrCommitUncertain
	// discipline stays authoritative for lost commit replies).
	ErrDeadlineExpired = errors.New("replica: caller deadline expired before work started")
)

// Role is a node's current replication role.
type Role uint8

// Node roles.
const (
	RoleSlave Role = iota + 1
	RoleMaster
	RoleSpare
	RoleJoining
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleSlave:
		return "slave"
	case RoleMaster:
		return "master"
	case RoleSpare:
		return "spare"
	case RoleJoining:
		return "joining"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// Peer is the client view of a database node. *Node implements it directly;
// transport.RemoteNode implements it over TCP.
type Peer interface {
	ID() string
	Ping() error

	// Replication stream (master -> everyone else). A nil return is the
	// acknowledgment the master waits for before confirming the commit.
	ReceiveWriteSet(ws *heap.WriteSet) error

	// Transaction sessions. tc is the scheduler-side trace context; the
	// node records its server-side work as child spans under it (zero
	// context = untraced). deadline is the caller's remaining time budget
	// (0 = none): the node abandons queued statements and commit entry —
	// never commit work already started — once it elapses, so load from
	// callers that have given up stops consuming server capacity.
	TxBegin(readOnly bool, version vclock.Vector, deadline time.Duration, tc obs.TraceContext) (uint64, error)
	TxExec(txID uint64, stmt string, params []value.Value) (*exec.Result, error)
	TxCommit(txID uint64) (vclock.Vector, error)
	TxRollback(txID uint64) error

	// Control plane.
	AbortActiveSessions() (int, error)
	Promote(classTables []int) error
	Demote(to Role) error
	DiscardAbove(v vclock.Vector) error
	MaxVersions() (vclock.Vector, error)

	// Reintegration (Section 4.4). InstallDelta is the one page-install
	// path: migration deltas and scrub repair images both land through it.
	StartJoin() error
	PageVersions() (heap.PageVersionMap, error)
	InstallDelta(images []page.Image) error
	FinishJoin() error

	// Anti-entropy scrub (DESIGN.md §15): a snapshot-consistent state
	// digest at a pinned version, and the donor side of page shipping,
	// for scrub repair and reintegration alike.
	Digest(table int, version uint64, withPages bool) (scrub.TableDigest, error)
	PageImages(table int, pages []page.ID) ([]page.Image, error)

	// Buffer-cache warm-up (Section 4.5).
	WarmPages(keys []simdisk.PageKey) error
	ResidentPages(limit int) ([]simdisk.PageKey, error)
}

var _ Peer = (*Node)(nil)

// Options configure a node.
type Options struct {
	// ID names the node (unique within the cluster).
	ID string
	// Engine is the node's storage engine (schema loaded by the caller).
	Engine *heap.Engine
	// Disk, if non-nil, is the node's simulated hardware: it charges each
	// read statement and each committed update transaction its CPU demand
	// (simdisk.CostModel.Stmt and UpdateStmt), and WarmPages and
	// ResidentPages operate on its buffer cache. The whole reproduction
	// runs on one machine, so per-node capacity (what actually scales when
	// the paper adds replicas) must be modelled explicitly.
	Disk *simdisk.Disk
	// OnPeerFailure, if non-nil, is invoked (asynchronously safe) when a
	// replication broadcast to a subscriber fails.
	OnPeerFailure func(peerID string)
	// OnPeerSuspect, if non-nil, is invoked when a subscriber misses its
	// write-set ack deadline: the peer is slow, not provably dead, so the
	// failure detector gets a hint instead of a verdict.
	OnPeerSuspect func(peerID string)
	// AckTimeout bounds the wait for each subscriber's write-set
	// acknowledgment during the pre-commit broadcast. One stalled slave
	// then delays the commit by at most this long instead of forever; the
	// straggler is reported via OnPeerSuspect and its ack abandoned. Zero
	// waits indefinitely (the paper's pure fail-stop model).
	AckTimeout time.Duration
	// CheckpointDir, when set, persists fuzzy checkpoints to
	// <dir>/<id>.ckpt (temp write, fsync, atomic rename). This is real
	// local stable storage: a node object constructed after a "reboot"
	// finds its predecessor's checkpoint on disk. When empty, checkpoints
	// are kept in memory on the node object, which models the same thing
	// for in-process experiments.
	CheckpointDir string
	// DefaultDeadline bounds sessions whose TxBegin carried no deadline:
	// the node behaves as if every such client asked for this budget. Zero
	// leaves legacy sessions unbounded (cmd/dmv-node exposes it as
	// -deadline-default).
	DefaultDeadline time.Duration
	// Obs, if non-nil, receives the node's counts (transactions, aborts,
	// write-set traffic, broadcast latency); nodes sharing a registry
	// aggregate into it. Nil counts nothing.
	Obs *obs.Registry
	// Flight, if non-nil, is the node's flight recorder: its ring is served
	// to peers via the FlightDump RPC when an anomaly dump is assembled
	// anywhere in the cluster.
	Flight *flight.Recorder
}

// Node is one DMV database replica.
type Node struct {
	id   string
	eng  *heap.Engine
	disk *simdisk.Disk

	alive         atomic.Bool
	onPeerFailure func(string)
	onPeerSuspect func(string)
	ackTimeout    time.Duration

	// stallMu guards the gray-failure injection gate: while stallCh is
	// non-nil the node is "stalled" — alive, but inbound probes and
	// replication deliveries block until the channel is closed. Tests use
	// this to model a wedged-but-not-crashed process.
	stallMu sync.Mutex
	stallCh chan struct{} // guarded by stallMu

	roleMu sync.RWMutex
	role   Role // guarded by roleMu

	// commitMu serializes version ticks with write-set broadcasts so every
	// subscriber observes one ordered stream per master.
	commitMu sync.Mutex
	subsMu   sync.RWMutex
	subs     []Peer // guarded by subsMu

	sessMu   sync.Mutex
	sessions map[uint64]*session // guarded by sessMu
	sessSeq  uint64              // guarded by sessMu

	joinMu  sync.Mutex
	joining bool             // guarded by joinMu
	joinBuf []*heap.WriteSet // guarded by joinMu

	cpMu   sync.Mutex
	lastCP []byte // guarded by cpMu; encoded fuzzy checkpoint (in-memory stable storage)
	cpDir  string // when set, checkpoints live in files instead

	// defaultDeadline bounds sessions that arrive without a caller deadline
	// (immutable after NewNode; zero = unbounded).
	defaultDeadline time.Duration

	started time.Time
	reg     *obs.Registry
	tracer  *obs.Tracer
	// roleGauge is the node's labeled dmv_node_role gauge (nil without a
	// registry); updated on every role transition.
	roleGauge *obs.Gauge

	// flight is the node's optional flight recorder (nil-safe).
	flight *flight.Recorder

	met nodeMetrics
}

// nodeMetrics holds the registry handles shared by every node wired to the
// same registry (the cluster-wide aggregates the paper reports); disabled
// (all nil, enabled=false) without a registry.
type nodeMetrics struct {
	enabled     bool
	readTxns    *obs.Counter
	updateTxns  *obs.Counter
	writeSetsIn *obs.Counter
	wsBytes     *obs.Counter
}

// session is one transaction's server-side state. mu serializes the owning
// client's statement stream against an administrative abort (a scheduler
// take-over rolling back a zombie scheduler's transactions must not race a
// statement that is still in flight).
type session struct {
	mu     sync.Mutex
	readTx *heap.ReadTx   // guarded by mu
	upTx   *heap.UpdateTx // guarded by mu
	stmts  int            // guarded by mu; update-transaction statements, charged at commit
	done   bool           // guarded by mu
	sp     *obs.Span      // guarded by mu; server-side child span (nil when untraced)
	expiry time.Time      // guarded by mu; caller's give-up time (zero = unbounded)
}

// expiredLocked reports whether the caller's deadline has passed. Must be
// called with s.mu held.
func (s *session) expiredLocked() bool {
	return !s.expiry.IsZero() && time.Now().After(s.expiry)
}

// NewNode returns a live node in the slave role.
func NewNode(opts Options) *Node {
	n := &Node{
		id:            opts.ID,
		eng:           opts.Engine,
		disk:          opts.Disk,
		role:          RoleSlave,
		onPeerFailure: opts.OnPeerFailure,
		onPeerSuspect: opts.OnPeerSuspect,
		ackTimeout:    opts.AckTimeout,
		sessions:      make(map[uint64]*session, 16),

		defaultDeadline: opts.DefaultDeadline,
	}
	n.started = time.Now()
	if reg := opts.Obs; reg != nil {
		n.reg = reg
		n.tracer = reg.Tracer()
		n.met = nodeMetrics{
			enabled:     true,
			readTxns:    reg.Counter(obs.NodeReadTxns),
			updateTxns:  reg.Counter(obs.NodeUpdateTxns),
			writeSetsIn: reg.Counter(obs.NodeWriteSetsIn),
			wsBytes:     reg.Counter(obs.NodeWriteSetBytes),
		}
		n.roleGauge = reg.Gauge(obs.Labeled(obs.NodeRole, "node", opts.ID))
		n.roleGauge.Set(obs.RoleValue(RoleSlave.String()))
		obs.RegisterIdentity(reg, opts.ID, n.started)
	}
	n.flight = opts.Flight
	n.cpDir = opts.CheckpointDir
	n.alive.Store(true)
	return n
}

// ID implements Peer.
func (n *Node) ID() string { return n.id }

// Engine exposes the storage engine (cluster setup, tests).
func (n *Node) Engine() *heap.Engine { return n.eng }

// Disk exposes the buffer-cache simulator (may be nil).
func (n *Node) Disk() *simdisk.Disk { return n.disk }

// Alive reports liveness (tests).
func (n *Node) Alive() bool { return n.alive.Load() }

// Kill fail-stops the node: every subsequent call returns ErrNodeDown. The
// node's in-memory state is considered lost; only the last fuzzy checkpoint
// (local stable storage) survives for reintegration after "reboot".
func (n *Node) Kill() { n.alive.Store(false) }

func (n *Node) check() error {
	if !n.alive.Load() {
		return fmt.Errorf("%w: %s", ErrNodeDown, n.id)
	}
	return nil
}

// SetStalled injects or lifts a gray failure: a stalled node is alive but
// stops answering probes and replication deliveries until un-stalled, the
// slow-but-not-dead behavior the suspicion detector exists to catch.
// Transaction execution is deliberately left unstalled so in-process
// callers already inside the node are not wedged.
func (n *Node) SetStalled(stalled bool) {
	n.stallMu.Lock()
	defer n.stallMu.Unlock()
	if stalled && n.stallCh == nil {
		n.stallCh = make(chan struct{})
	} else if !stalled && n.stallCh != nil {
		close(n.stallCh)
		n.stallCh = nil
	}
}

// stallGate blocks while the node is stalled.
func (n *Node) stallGate() {
	n.stallMu.Lock()
	ch := n.stallCh
	n.stallMu.Unlock()
	if ch != nil {
		<-ch
	}
}

// Ping implements Peer (heartbeat probe).
func (n *Node) Ping() error {
	n.stallGate()
	return n.check()
}

// Role reports the node's replication role.
func (n *Node) Role() (Role, error) {
	if err := n.check(); err != nil {
		return 0, err
	}
	n.roleMu.RLock()
	defer n.roleMu.RUnlock()
	return n.role, nil
}

// noteRole publishes the role transition on the labeled role gauge.
func (n *Node) noteRole(r Role) {
	n.roleGauge.Set(obs.RoleValue(r.String()))
}

// SetSubscribers replaces the replication subscriber set (masters broadcast
// write-sets to these peers).
func (n *Node) SetSubscribers(peers []Peer) {
	n.subsMu.Lock()
	n.subs = make([]Peer, len(peers))
	copy(n.subs, peers)
	n.subsMu.Unlock()
}

// Subscribers returns a copy of the current subscriber list.
func (n *Node) Subscribers() []Peer {
	n.subsMu.RLock()
	defer n.subsMu.RUnlock()
	out := make([]Peer, len(n.subs))
	copy(out, n.subs)
	return out
}

// ReceiveWriteSet implements Peer: eager receipt. Joining nodes buffer; all
// others apply (publishing index entries eagerly, page mods lazily).
func (n *Node) ReceiveWriteSet(ws *heap.WriteSet) error {
	n.stallGate()
	if err := n.check(); err != nil {
		return err
	}
	if n.met.enabled {
		n.met.writeSetsIn.Inc()
		n.met.wsBytes.Add(int64(ws.Size()))
	}
	var sp *obs.Span
	if n.tracer != nil && ws.Trace.Valid() {
		sp = n.tracer.BeginChild("ws-recv", ws.Trace)
		sp.SetNode(n.id)
		sp.SetVersion(ws.Version.String())
	}
	n.joinMu.Lock()
	if n.joining {
		n.joinBuf = append(n.joinBuf, ws)
		n.joinMu.Unlock()
		sp.Mark("buffered")
		sp.Finish("commit", "")
		return nil
	}
	n.joinMu.Unlock()
	err := n.eng.ApplyWriteSet(ws)
	if err != nil {
		sp.Finish("error", err.Error())
		return err
	}
	sp.Mark("applied")
	sp.Finish("commit", "")
	return nil
}

// broadcast ships a write-set to every subscriber concurrently and waits
// for all acknowledgments (the paper's eager pre-commit flush, Figure 2:
// SendUpdate to each replica, then WaitForAcknowledgment). Failed
// subscribers are reported and skipped; the commit proceeds for the
// remaining replicas.
func (n *Node) broadcast(ws *heap.WriteSet) error {
	subs := n.Subscribers()
	if len(subs) == 0 {
		return nil
	}
	if len(subs) == 1 {
		n.shipTo(subs[0], ws)
		return nil
	}
	var wg sync.WaitGroup
	for _, p := range subs {
		wg.Add(1)
		go func(p Peer) {
			defer wg.Done()
			n.shipTo(p, ws)
		}(p)
	}
	wg.Wait()
	return nil
}

// shipTo sends one write-set to one subscriber and accounts the ack. The
// per-subscriber ship is recorded as a child span of the committing
// transaction: its Total is the ship-to-ack round trip.
//
// With AckTimeout set, the wait for the acknowledgment is bounded: a slave
// that stalls mid-ack delays this commit by at most the deadline, is
// reported suspect, and the broadcast degrades to the remaining replicas —
// the eager-ship contract holds for every peer that is actually keeping
// up. The abandoned delivery either completes late (harmless: write-set
// application is version-ordered) or dies with its connection.
func (n *Node) shipTo(p Peer, ws *heap.WriteSet) {
	var sp *obs.Span
	if n.tracer != nil && ws.Trace.Valid() {
		sp = n.tracer.BeginChild("ws-ship", ws.Trace)
		sp.SetNode(p.ID())
		sp.SetReplica(n.id)
		sp.SetVersion(ws.Version.String())
	}
	var err error
	if n.ackTimeout > 0 {
		done := make(chan error, 1)
		go func() { done <- p.ReceiveWriteSet(ws) }()
		t := time.NewTimer(n.ackTimeout)
		select {
		case err = <-done:
			t.Stop()
		case <-t.C:
			sp.Finish("abort", "ack-timeout")
			if n.onPeerSuspect != nil {
				n.onPeerSuspect(p.ID())
			}
			return
		}
	} else {
		err = p.ReceiveWriteSet(ws)
	}
	if err != nil {
		if errors.Is(err, ErrPeerTimeout) {
			// The transport already bounded the call; same verdict as a
			// local ack deadline - suspicion, not death.
			sp.Finish("abort", "ack-timeout")
			if n.onPeerSuspect != nil {
				n.onPeerSuspect(p.ID())
			}
			return
		}
		sp.Finish("abort", "node-down")
		if n.onPeerFailure != nil {
			n.onPeerFailure(p.ID())
		}
		return
	}
	sp.Mark("ack")
	sp.Finish("commit", "")
}

// --- transaction sessions ---------------------------------------------------

// TxBegin implements Peer. A valid trace context starts a server-side
// child span ("replica-read" on a slave, "master-commit" on a master) that
// lives until commit/rollback; the update transaction additionally carries
// the child's context into its write-set so ship/apply work chains onto it.
func (n *Node) TxBegin(readOnly bool, version vclock.Vector, deadline time.Duration, tc obs.TraceContext) (uint64, error) {
	if err := n.check(); err != nil {
		return 0, err
	}
	if deadline < 0 {
		// The caller gave up before the request arrived: refuse to open a
		// session at all rather than doing work nobody is waiting for.
		return 0, fmt.Errorf("%w: begin on %s", ErrDeadlineExpired, n.id)
	}
	if deadline == 0 {
		deadline = n.defaultDeadline
	}
	s := &session{}
	if deadline > 0 {
		s.expiry = time.Now().Add(deadline)
	}
	if readOnly {
		s.readTx = n.eng.BeginRead(version)
		n.met.readTxns.Inc()
		if n.tracer != nil && tc.Valid() {
			s.sp = n.tracer.BeginChild("replica-read", tc)
			s.sp.SetNode(n.id)
			s.sp.SetVersion(version.String())
		}
	} else {
		n.roleMu.RLock()
		isMaster := n.role == RoleMaster
		n.roleMu.RUnlock()
		if !isMaster {
			return 0, fmt.Errorf("%w: %s", ErrNotMaster, n.id)
		}
		s.upTx = n.eng.BeginUpdate()
		n.met.updateTxns.Inc()
		if n.tracer != nil && tc.Valid() {
			s.sp = n.tracer.BeginChild("master-commit", tc)
			s.sp.SetNode(n.id)
			s.upTx.SetTrace(s.sp.Context())
		}
	}
	n.sessMu.Lock()
	n.sessSeq++
	id := n.sessSeq
	n.sessions[id] = s
	n.sessMu.Unlock()
	return id, nil
}

func (n *Node) session(id uint64) (*session, error) {
	n.sessMu.Lock()
	defer n.sessMu.Unlock()
	s, ok := n.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d on %s", ErrNoSession, id, n.id)
	}
	return s, nil
}

func (n *Node) dropSession(id uint64) {
	n.sessMu.Lock()
	delete(n.sessions, id)
	n.sessMu.Unlock()
}

// TxExec implements Peer: runs one statement inside the session.
func (n *Node) TxExec(txID uint64, stmt string, params []value.Value) (*exec.Result, error) {
	if err := n.check(); err != nil {
		return nil, err
	}
	s, err := n.session(txID)
	if err != nil {
		return nil, err
	}
	p, err := exec.Cached(stmt)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return nil, fmt.Errorf("%w: %d on %s (aborted)", ErrNoSession, txID, n.id)
	}
	if s.expiredLocked() {
		// The caller already gave up on this session; executing the
		// statement would burn a service slot for a reply nobody reads.
		return nil, fmt.Errorf("%w: exec %d on %s", ErrDeadlineExpired, txID, n.id)
	}
	if s.readTx != nil {
		// The statement holds one CPU for its service demand and releases
		// it before executing.
		n.disk.ReadStmt()
		return p.Exec(s.readTx, params)
	}
	// Update transactions hold page locks between statements, so their CPU
	// demand is charged in one piece after commit.
	s.stmts++
	return p.Exec(s.upTx, params)
}

// TxCommit implements Peer. For update transactions it performs the
// pre-commit broadcast of Figure 2 under the commit mutex so all replicas
// see one ordered stream, then returns the new DBVersion vector that the
// master piggybacks on its commit confirmation to the scheduler.
func (n *Node) TxCommit(txID uint64) (vclock.Vector, error) {
	if err := n.check(); err != nil {
		return nil, err
	}
	s, err := n.session(txID)
	if err != nil {
		return nil, err
	}
	defer n.dropSession(txID)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return nil, fmt.Errorf("%w: %d on %s (aborted)", ErrNoSession, txID, n.id)
	}
	// Deadline check at commit ENTRY only — before any commit work starts.
	// Once the broadcast below begins there is no further deadline check:
	// a commit runs to completion or fails on its own terms, so a caller
	// deadline can never manufacture a half-committed transaction (the
	// ErrCommitUncertain discipline stays the only ambiguity).
	if s.upTx != nil && s.expiredLocked() {
		s.done = true
		s.sp.Finish("abort", "deadline-expired")
		_ = s.upTx.Rollback()
		return nil, fmt.Errorf("%w: commit entry %d on %s", ErrDeadlineExpired, txID, n.id)
	}
	s.done = true
	if s.readTx != nil {
		s.sp.Finish("commit", "")
		return nil, nil
	}
	s.sp.Mark("exec-done")
	n.commitMu.Lock()
	if err := n.check(); err != nil {
		// The node died while the transaction executed; its effects are
		// internal to the failed master and are discarded (fail-stop).
		n.commitMu.Unlock()
		s.sp.Finish("error", "node-down")
		return nil, err
	}
	ver, err := s.upTx.Commit(n.broadcast)
	n.commitMu.Unlock()
	if err != nil {
		s.sp.Finish("abort", err.Error())
		return nil, err
	}
	if s.sp != nil {
		s.sp.Mark("broadcast-acked")
		s.sp.SetVersion(ver.String())
		s.sp.Finish("commit", "")
	}
	// The transaction's CPU demand is charged after commit, outside the
	// replication mutex: locks are already released and the ordered
	// write-set stream must not wait on the CPU model.
	n.disk.UpdateStmts(s.stmts)
	return ver, nil
}

// TxRollback implements Peer.
func (n *Node) TxRollback(txID uint64) error {
	s, err := n.session(txID)
	if err != nil {
		return err
	}
	defer n.dropSession(txID)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return nil
	}
	s.done = true
	s.sp.Finish("abort", "rollback")
	if s.upTx != nil {
		return s.upTx.Rollback()
	}
	return nil
}

// --- control plane ----------------------------------------------------------

// AbortActiveSessions rolls back every open update transaction and drops
// every session. A scheduler taking over after a peer scheduler's failure
// sends this to the masters: transactions whose coordinator died must not
// keep holding page locks (Section 4.1; databases that notice the broken
// client connection do this on their own).
func (n *Node) AbortActiveSessions() (int, error) {
	if err := n.check(); err != nil {
		return 0, err
	}
	n.sessMu.Lock()
	sessions := make([]*session, 0, len(n.sessions))
	for id, s := range n.sessions {
		sessions = append(sessions, s)
		delete(n.sessions, id)
	}
	n.sessMu.Unlock()
	aborted := 0
	for _, s := range sessions {
		s.mu.Lock()
		if !s.done {
			s.sp.Finish("abort", "admin-abort")
		}
		if !s.done && s.upTx != nil {
			_ = s.upTx.Rollback()
			aborted++
		}
		s.done = true
		s.mu.Unlock()
	}
	return aborted, nil
}

// Promote implements Peer: the node becomes master for the given conflict
// class. It materializes all buffered modifications (its state must be fully
// current before executing updates) and resets insert cursors so it never
// shares an insert page with the failed master's unreplicated tail. The
// node keeps no copy of classTables: the scheduler routes the class's
// updates here, and the node serves whatever it is sent.
func (n *Node) Promote(classTables []int) error {
	if err := n.check(); err != nil {
		return err
	}
	if err := n.eng.MaterializeAll(n.eng.MaxVersions()); err != nil {
		return fmt.Errorf("promote %s: %w", n.id, err)
	}
	n.eng.ResetInsertCursors()
	n.eng.Clock().Advance(n.eng.MaxVersions())
	n.roleMu.Lock()
	n.role = RoleMaster
	n.roleMu.Unlock()
	n.noteRole(RoleMaster)
	return nil
}

// Demote implements Peer (master relinquishing its role, or a spare being
// activated into a plain slave).
func (n *Node) Demote(to Role) error {
	if err := n.check(); err != nil {
		return err
	}
	n.roleMu.Lock()
	n.role = to
	n.roleMu.Unlock()
	n.noteRole(to)
	return nil
}

// DiscardAbove implements Peer.
func (n *Node) DiscardAbove(v vclock.Vector) error {
	if err := n.check(); err != nil {
		return err
	}
	n.eng.DiscardAbove(v)
	return nil
}

// MaxVersions implements Peer.
func (n *Node) MaxVersions() (vclock.Vector, error) {
	if err := n.check(); err != nil {
		return nil, err
	}
	return n.eng.MaxVersions(), nil
}

// --- reintegration ----------------------------------------------------------

// StartJoin implements Peer: subsequent write-sets are buffered, not applied
// (the node stores new modifications "into its local queues ... without
// applying these modifications to pages").
func (n *Node) StartJoin() error {
	if err := n.check(); err != nil {
		return err
	}
	n.joinMu.Lock()
	n.joining = true
	n.joinBuf = nil
	n.joinMu.Unlock()
	n.roleMu.Lock()
	n.role = RoleJoining
	n.roleMu.Unlock()
	n.noteRole(RoleJoining)
	return nil
}

// PageVersions implements Peer.
func (n *Node) PageVersions() (heap.PageVersionMap, error) {
	if err := n.check(); err != nil {
		return nil, err
	}
	return n.eng.PageVersions(), nil
}

// InstallDelta implements Peer (joining-node side of data migration, and
// diverged-node side of changed-page repair).
func (n *Node) InstallDelta(images []page.Image) error {
	if err := n.check(); err != nil {
		return err
	}
	return n.eng.InstallDelta(images)
}

// FinishJoin implements Peer: drains the buffered write-sets through the
// normal apply path (whose per-page version guard skips anything the
// migrated images already cover) and re-enters the slave role.
func (n *Node) FinishJoin() error {
	if err := n.check(); err != nil {
		return err
	}
	for {
		n.joinMu.Lock()
		if len(n.joinBuf) == 0 {
			n.joining = false
			n.joinMu.Unlock()
			break
		}
		buf := n.joinBuf
		n.joinBuf = nil
		n.joinMu.Unlock()
		for _, ws := range buf {
			if err := n.eng.ApplyWriteSet(ws); err != nil {
				return fmt.Errorf("drain join buffer: %w", err)
			}
		}
	}
	n.roleMu.Lock()
	n.role = RoleSlave
	n.roleMu.Unlock()
	n.noteRole(RoleSlave)
	return nil
}

// Digest implements Peer: the node's snapshot-consistent state digest for
// one table at the pinned version (DESIGN.md §15).
func (n *Node) Digest(table int, version uint64, withPages bool) (scrub.TableDigest, error) {
	if err := n.check(); err != nil {
		return scrub.TableDigest{}, err
	}
	return n.eng.TableDigestAt(table, version, withPages)
}

// PageImages implements Peer (donor side of scrub repair and migration).
func (n *Node) PageImages(table int, pages []page.ID) ([]page.Image, error) {
	if err := n.check(); err != nil {
		return nil, err
	}
	return n.eng.PageImages(table, pages)
}

// --- observability ----------------------------------------------------------

// ObsSnapshot builds the node's contribution to the cluster aggregation
// plane: identity, DMV version state (applied vs. received frontiers,
// buffered-mod backlog), the full metric snapshot, and the trace ring for
// cluster-wide stitching. Served over transport as the ObsSnapshot RPC.
func (n *Node) ObsSnapshot() (obs.NodeSnapshot, error) {
	if err := n.check(); err != nil {
		return obs.NodeSnapshot{}, err
	}
	n.roleMu.RLock()
	role := n.role
	n.roleMu.RUnlock()
	return obs.NodeSnapshot{
		Registry:    n.reg.ID(),
		Node:        n.id,
		Role:        role.String(),
		StartUnix:   n.started.Unix(),
		Applied:     n.eng.AppliedVersions(),
		MaxVer:      n.eng.MaxVersions(),
		PendingMods: n.eng.PendingMods(),
		Snap:        n.reg.Snapshot(),
		Spans:       n.reg.Tracer().Dump(),
	}, nil
}

// FlightDump freezes the node's flight-recorder ring for a cluster-wide
// anomaly dump (served over transport as the FlightDump RPC). A node with
// no recorder contributes an identity-only fragment rather than an error,
// so a cluster with partial flight wiring still dumps.
func (n *Node) FlightDump() (flight.NodeDump, error) {
	if err := n.check(); err != nil {
		return flight.NodeDump{}, err
	}
	if n.flight == nil {
		return flight.NodeDump{Node: n.id}, nil
	}
	return n.flight.NodeDump(), nil
}

// --- buffer-cache warm-up ---------------------------------------------------

// WarmPages implements Peer: the spare backup touches the shipped page ids
// so they stay resident (page-id-transfer warm-up).
func (n *Node) WarmPages(keys []simdisk.PageKey) error {
	if err := n.check(); err != nil {
		return err
	}
	if n.disk == nil {
		return nil
	}
	for _, k := range keys {
		n.disk.Warm(k.Table, k.Page)
	}
	return nil
}

// ResidentPages implements Peer: an active slave reports its hottest pages.
func (n *Node) ResidentPages(limit int) ([]simdisk.PageKey, error) {
	if err := n.check(); err != nil {
		return nil, err
	}
	if n.disk == nil {
		return nil, nil
	}
	return n.disk.ResidentSet(limit), nil
}

// --- checkpointing ----------------------------------------------------------

// RunCheckpoint takes a fuzzy checkpoint and stores it on the node's local
// stable storage (survives Kill; used to restore before reintegration).
// With CheckpointDir set the flush goes to disk via write-to-temp + fsync +
// atomic rename (wal.WriteFileDurable), matching the paper's "a flush of a page and its version number is
// atomic" at checkpoint granularity.
func (n *Node) RunCheckpoint() error {
	if err := n.check(); err != nil {
		return err
	}
	cp := n.eng.FuzzyCheckpoint()
	blob, err := heap.EncodeCheckpoint(cp)
	if err != nil {
		return err
	}
	n.cpMu.Lock()
	defer n.cpMu.Unlock()
	if n.cpDir != "" {
		// Durable publish: temp write + fsync + atomic rename, so a crash
		// mid-checkpoint leaves either the old file or the new one, never a
		// torn blob under the published name.
		if err := wal.WriteFileDurable(nil, n.checkpointPath(), blob); err != nil {
			return fmt.Errorf("write checkpoint: %w", err)
		}
		return nil
	}
	n.lastCP = blob
	return nil
}

func (n *Node) checkpointPath() string {
	return filepath.Join(n.cpDir, n.id+".ckpt")
}

// LastCheckpoint returns the stored checkpoint blob (nil if none). It is
// readable even when the node is down: it is the on-disk state a rebooted
// machine finds.
func (n *Node) LastCheckpoint() []byte {
	n.cpMu.Lock()
	defer n.cpMu.Unlock()
	if n.cpDir != "" {
		blob, err := os.ReadFile(n.checkpointPath())
		if err != nil {
			return nil
		}
		return blob
	}
	return n.lastCP
}

// Checkpointer runs RunCheckpoint on a period until stopped.
type Checkpointer struct {
	stop chan struct{}
	done chan struct{}
}

// StartCheckpointer launches the node's checkpointing thread.
func (n *Node) StartCheckpointer(period time.Duration) *Checkpointer {
	c := &Checkpointer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				if err := n.RunCheckpoint(); err != nil {
					return // node died; the thread dies with it
				}
			case <-c.stop:
				return
			}
		}
	}()
	return c
}

// Stop terminates the checkpointing thread and waits for it to exit.
func (c *Checkpointer) Stop() {
	close(c.stop)
	<-c.done
}
