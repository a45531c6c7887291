// Package transport serves the replica Peer interface and the scheduler
// session API over TCP using net/rpc, enabling real multi-process
// deployments: each database node runs cmd/dmv-node, the scheduler runs
// cmd/dmv-scheduler, and the two sides exchange exactly the messages of the
// in-process cluster — write-set broadcasts with acknowledgments,
// version-tagged transaction sessions, heartbeats, page migration, and
// warm-up traffic.
//
// net/rpc runs with this package's binary codec (codec.go) instead of its
// default gob one: length-prefixed frames, hand-written binary bodies for
// the data-path messages, and gob, inside the frame, for the control-plane
// bodies that have no binary form yet.
//
// Error identity matters to the scheduler (version-conflict aborts and
// node-down errors are retried differently), and net/rpc flattens errors to
// strings; replies therefore carry an explicit error code that the client
// side converts back to the canonical sentinel errors.
package transport

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/rpc"
	"sort"
	"strings"
	"sync"
	"time"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/obs/flight"
	"dmv/internal/page"
	"dmv/internal/replica"
	"dmv/internal/scrub"
	"dmv/internal/simdisk"
	"dmv/internal/value"
	"dmv/internal/vclock"
)

// error codes carried in RPC replies. New codes append after errOther so a
// mixed-version cluster never re-reads an old code as a different sentinel.
const (
	errNone = iota
	errNodeDown
	errNotMaster
	errVersionConflict
	errLockTimeout
	errPeerTimeout
	errOther
	errDeadlineExpired
)

func encodeErr(err error) (int, string) {
	switch {
	case err == nil:
		return errNone, ""
	case errors.Is(err, replica.ErrPeerTimeout):
		// Checked before ErrNodeDown: a deadline miss is a distinct signal
		// (the peer may be alive but slow) and drives the suspicion ladder
		// rather than immediate fail-over.
		return errPeerTimeout, err.Error()
	case errors.Is(err, replica.ErrNodeDown):
		return errNodeDown, err.Error()
	case errors.Is(err, replica.ErrNotMaster):
		return errNotMaster, err.Error()
	case errors.Is(err, page.ErrVersionConflict):
		return errVersionConflict, err.Error()
	case errors.Is(err, heap.ErrLockTimeout):
		return errLockTimeout, err.Error()
	case errors.Is(err, replica.ErrDeadlineExpired):
		return errDeadlineExpired, err.Error()
	default:
		return errOther, err.Error()
	}
}

func decodeErr(code int, msg string) error {
	switch code {
	case errNone:
		return nil
	case errNodeDown:
		return fmt.Errorf("%w: %s", replica.ErrNodeDown, msg)
	case errNotMaster:
		return fmt.Errorf("%w: %s", replica.ErrNotMaster, msg)
	case errVersionConflict:
		return fmt.Errorf("%w: %s", page.ErrVersionConflict, msg)
	case errLockTimeout:
		return fmt.Errorf("%w: %s", heap.ErrLockTimeout, msg)
	case errPeerTimeout:
		return fmt.Errorf("%w: %s", replica.ErrPeerTimeout, msg)
	case errDeadlineExpired:
		return fmt.Errorf("%w: %s", replica.ErrDeadlineExpired, msg)
	default:
		return errors.New(msg)
	}
}

// --- RPC argument/reply types -------------------------------------------------

// Status is the common reply carrying an encoded error.
type Status struct {
	Code int
	Msg  string
}

func (s *Status) set(err error) { s.Code, s.Msg = encodeErr(err) }

// Err converts the status back into a sentinel-matching error.
func (s Status) Err() error { return decodeErr(s.Code, s.Msg) }

// BeginArgs opens a transaction session. Trace is the scheduler-side span
// context; the node records its work as child spans under it. DeadlineUS is
// the caller's remaining time budget in microseconds (0 = none): a duration
// rather than an absolute time, so client and server clocks never have to
// agree.
type BeginArgs struct {
	ReadOnly   bool
	Version    vclock.Vector
	DeadlineUS int64
	Trace      obs.TraceContext
}

// BeginReply returns the session id.
type BeginReply struct {
	ID uint64
	Status
}

// ExecArgs executes one statement in a session. Trace repeats the session's
// trace context on every statement so a session opened untraced (or by an
// older client) can still adopt the trace mid-flight.
// DeadlineUS, when positive, refreshes the session's remaining budget
// (microseconds left as of this statement), keeping the server-side expiry
// honest across long sessions.
// Begin, when set, opens the session before the statement runs, and TxID is
// ignored: a read-only session sends no TxBegin of its own, its first
// statement carries the begin instead.
type ExecArgs struct {
	TxID       uint64
	Stmt       string
	Params     []value.Value
	DeadlineUS int64
	Trace      obs.TraceContext
	Begin      *BeginArgs
}

// ExecReply returns the statement result. TxID is the session a carried
// begin opened (0 when none was carried or the begin failed). It is set
// even when the statement then fails, so the caller's rollback can still
// close the session.
type ExecReply struct {
	Result *exec.Result
	TxID   uint64
	Status
}

// CommitArgs commits a session. DeadlineUS, when positive, is the caller's
// remaining budget at commit time; the node checks it once at commit entry
// and never again (a started commit always runs to completion).
type CommitArgs struct {
	TxID       uint64
	DeadlineUS int64
}

// CommitReply returns the commit version vector (updates only).
type CommitReply struct {
	Version vclock.Vector
	Status
}

// VersionReply carries a version vector.
type VersionReply struct {
	Version vclock.Vector
	Status
}

// PageVersionsReply carries a node's page-version map.
type PageVersionsReply struct {
	Versions heap.PageVersionMap
	Status
}

// PagesReply carries resident page ids.
type PagesReply struct {
	Keys []simdisk.PageKey
	Status
}

// RoleReply carries a node role.
type RoleReply struct {
	Role replica.Role
	Status
}

// DigestArgs requests a snapshot-consistent table digest at a pinned
// version (anti-entropy scrub, DESIGN.md §15).
type DigestArgs struct {
	Table     int
	Version   uint64
	WithPages bool
}

// DigestReply carries one table digest.
type DigestReply struct {
	Digest scrub.TableDigest
	Status
}

// PageImagesArgs names the pages whose current images a repair or a
// migration wants shipped.
type PageImagesArgs struct {
	Table int
	Pages []page.ID
}

// ImagesReply carries current page images.
type ImagesReply struct {
	Images []page.Image
	Status
}

// NodeService exposes a replica.Node over net/rpc under the service name
// "Node".
type NodeService struct {
	node *replica.Node

	// subs are the clients behind the node's subscriber set, keyed by id, so
	// a rewire reuses the connections it keeps and closes the ones it drops.
	subMu   sync.Mutex
	subs    map[string]*RemoteNode // guarded by subMu
	subOpts ClientOptions          // guarded by subMu; how subscribers are dialed
}

// Ping implements the heartbeat probe.
func (s *NodeService) Ping(_ struct{}, reply *Status) error {
	reply.set(s.node.Ping())
	return nil
}

// ReceiveWriteSet delivers one replication message; returning is the ack.
func (s *NodeService) ReceiveWriteSet(ws *heap.WriteSet, reply *Status) error {
	reply.set(s.node.ReceiveWriteSet(ws))
	return nil
}

// TxBegin opens a session.
func (s *NodeService) TxBegin(args BeginArgs, reply *BeginReply) error {
	id, err := s.node.TxBegin(args.ReadOnly, args.Version, time.Duration(args.DeadlineUS)*time.Microsecond, args.Trace)
	reply.ID = id
	reply.set(err)
	return nil
}

// TxExec runs one statement, first opening its session when the statement
// carries the begin.
func (s *NodeService) TxExec(args ExecArgs, reply *ExecReply) error {
	id := args.TxID
	if b := args.Begin; b != nil {
		var err error
		if id, err = s.node.TxBegin(b.ReadOnly, b.Version, time.Duration(b.DeadlineUS)*time.Microsecond, b.Trace); err != nil {
			reply.set(err)
			return nil
		}
		reply.TxID = id
	} else if args.Trace.Valid() {
		s.node.AdoptTrace(id, args.Trace)
	}
	if args.DeadlineUS > 0 {
		s.node.RefreshDeadline(id, time.Duration(args.DeadlineUS)*time.Microsecond)
	}
	res, err := s.node.TxExec(id, args.Stmt, args.Params)
	reply.Result = res
	reply.set(err)
	return nil
}

// TxCommit commits a session.
func (s *NodeService) TxCommit(args CommitArgs, reply *CommitReply) error {
	if args.DeadlineUS > 0 {
		s.node.RefreshDeadline(args.TxID, time.Duration(args.DeadlineUS)*time.Microsecond)
	}
	ver, err := s.node.TxCommit(args.TxID)
	reply.Version = ver
	reply.set(err)
	return nil
}

// TxRollback aborts a session.
func (s *NodeService) TxRollback(txID uint64, reply *Status) error {
	reply.set(s.node.TxRollback(txID))
	return nil
}

// AbortReply carries the aborted-transaction count.
type AbortReply struct {
	Aborted int
	Status
}

// AbortActiveSessions rolls back sessions owned by a failed scheduler.
func (s *NodeService) AbortActiveSessions(_ struct{}, reply *AbortReply) error {
	n, err := s.node.AbortActiveSessions()
	reply.Aborted = n
	reply.set(err)
	return nil
}

// Role reports the node's replication role.
func (s *NodeService) Role(_ struct{}, reply *RoleReply) error {
	r, err := s.node.Role()
	reply.Role = r
	reply.set(err)
	return nil
}

// Promote makes the node a conflict-class master.
func (s *NodeService) Promote(classTables []int, reply *Status) error {
	reply.set(s.node.Promote(classTables))
	return nil
}

// Demote changes the node's role.
func (s *NodeService) Demote(to replica.Role, reply *Status) error {
	reply.set(s.node.Demote(to))
	return nil
}

// DiscardAbove drops buffered modifications beyond a vector.
func (s *NodeService) DiscardAbove(v vclock.Vector, reply *Status) error {
	reply.set(s.node.DiscardAbove(v))
	return nil
}

// MaxVersions reports the node's highest versions.
func (s *NodeService) MaxVersions(_ struct{}, reply *VersionReply) error {
	v, err := s.node.MaxVersions()
	reply.Version = v
	reply.set(err)
	return nil
}

// StartJoin begins write-set buffering for reintegration.
func (s *NodeService) StartJoin(_ struct{}, reply *Status) error {
	reply.set(s.node.StartJoin())
	return nil
}

// PageVersions reports per-page applied and received versions and row counts.
func (s *NodeService) PageVersions(_ struct{}, reply *PageVersionsReply) error {
	v, err := s.node.PageVersions()
	reply.Versions = v
	reply.set(err)
	return nil
}

// InstallDelta installs migrated pages (joining-node side).
func (s *NodeService) InstallDelta(images []page.Image, reply *Status) error {
	reply.set(s.node.InstallDelta(images))
	return nil
}

// FinishJoin drains the join buffer and re-enters the slave role.
func (s *NodeService) FinishJoin(_ struct{}, reply *Status) error {
	reply.set(s.node.FinishJoin())
	return nil
}

// WarmPages touches page ids (page-id-transfer warm-up).
func (s *NodeService) WarmPages(keys []simdisk.PageKey, reply *Status) error {
	reply.set(s.node.WarmPages(keys))
	return nil
}

// ResidentPages reports the node's hottest pages.
func (s *NodeService) ResidentPages(limit int, reply *PagesReply) error {
	keys, err := s.node.ResidentPages(limit)
	reply.Keys = keys
	reply.set(err)
	return nil
}

// Digest computes the node's snapshot digest for one table at a pinned
// version (anti-entropy scrub).
func (s *NodeService) Digest(args DigestArgs, reply *DigestReply) error {
	d, err := s.node.Digest(args.Table, args.Version, args.WithPages)
	reply.Digest = d
	reply.set(err)
	return nil
}

// PageImages serves current page images (donor side of scrub repair and
// migration).
func (s *NodeService) PageImages(args PageImagesArgs, reply *ImagesReply) error {
	imgs, err := s.node.PageImages(args.Table, args.Pages)
	reply.Images = imgs
	reply.set(err)
	return nil
}

// ObsSnapshotReply carries the node's observability snapshot (identity,
// version state, metrics, trace ring) for the scheduler's aggregation
// plane.
type ObsSnapshotReply struct {
	NS obs.NodeSnapshot
	Status
}

// ObsSnapshot serves the node's registry snapshot to the scraping
// scheduler.
func (s *NodeService) ObsSnapshot(_ struct{}, reply *ObsSnapshotReply) error {
	ns, err := s.node.ObsSnapshot()
	reply.NS = ns
	reply.set(err)
	return nil
}

// FlightDumpReply carries the node's frozen flight-recorder ring for a
// cluster-wide anomaly dump.
type FlightDumpReply struct {
	ND flight.NodeDump
	Status
}

// FlightDump serves the node's flight-recorder fragment to a peer
// assembling a cluster-wide anomaly dump.
func (s *NodeService) FlightDump(_ struct{}, reply *FlightDumpReply) error {
	nd, err := s.node.FlightDump()
	reply.ND = nd
	reply.set(err)
	return nil
}

// SetSubscribers re-points the node's replication stream at the given peer
// addresses (id -> address). A master node dials each subscriber itself:
// a subscriber whose id and address are unchanged keeps its client, dropped
// ones are closed, and the reachable subset is installed even when some
// dials fail — the reply then names the unreachable ones.
func (s *NodeService) SetSubscribers(addrs map[string]string, reply *Status) error {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	next := make(map[string]*RemoteNode, len(addrs))
	peers := make([]replica.Peer, 0, len(addrs))
	var failed []string
	for id, addr := range addrs {
		p := s.subs[id]
		if p == nil || p.Addr() != addr {
			var err error
			if p, err = DialNodeOpts(id, addr, s.subOpts); err != nil {
				failed = append(failed, fmt.Sprintf("%s at %s: %v", id, addr, err))
				continue
			}
		}
		next[id] = p
		peers = append(peers, p)
	}
	s.node.SetSubscribers(peers)
	for id, old := range s.subs {
		if next[id] != old {
			old.Close()
		}
	}
	s.subs = next
	if len(failed) > 0 {
		sort.Strings(failed)
		reply.set(fmt.Errorf("dial subscribers: %s", strings.Join(failed, "; ")))
	}
	return nil
}

// Server is a listening RPC endpoint for one node.
type Server struct {
	lis  net.Listener
	svc  *NodeService
	done chan struct{}

	connMu sync.Mutex
	conns  map[net.Conn]struct{} // guarded by connMu
}

// ServeNode starts serving a node's Peer interface on addr.
func ServeNode(n *replica.Node, addr string) (*Server, error) {
	return ServeNodeObs(n, addr, nil)
}

// ServeNodeObs is ServeNode with wire metrics: accepted connections are
// counted and every byte read or written on them accumulates in the
// registry (the replication-traffic quantity of the paper's Figure 7,
// measured at the receiver's socket). A nil registry serves unwrapped
// connections with no overhead.
func ServeNodeObs(n *replica.Node, addr string, reg *obs.Registry) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ServeNodeListener(n, lis, reg)
}

// ServeNodeListener serves a node's Peer interface on a caller-supplied
// listener. This is the fault-injection hook: tests hand in a
// faultnet-wrapped listener so real TCP links to this node can be
// partitioned, delayed, or reset under script control.
func ServeNodeListener(n *replica.Node, lis net.Listener, reg *obs.Registry) (*Server, error) {
	srv := rpc.NewServer()
	svc := &NodeService{node: n}
	if err := srv.RegisterName("Node", svc); err != nil {
		_ = lis.Close()
		return nil, err
	}
	var connsC, bytesIn, bytesOut *obs.Counter
	if reg != nil {
		connsC = reg.Counter(obs.TransportConns)
		bytesIn = reg.Counter(obs.TransportBytesIn)
		bytesOut = reg.Counter(obs.TransportBytesOut)
	}
	s := &Server{lis: lis, svc: svc, done: make(chan struct{}), conns: make(map[net.Conn]struct{}, 8)}
	go func() {
		defer close(s.done)
		for {
			conn, err := lis.Accept()
			if err != nil {
				return // listener closed
			}
			connsC.Inc()
			s.connMu.Lock()
			s.conns[conn] = struct{}{}
			s.connMu.Unlock()
			go func() {
				if reg != nil {
					srv.ServeCodec(newServerCodec(&countingConn{Conn: conn, in: bytesIn, out: bytesOut}))
				} else {
					srv.ServeCodec(newServerCodec(conn))
				}
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
			}()
		}
	}()
	return s, nil
}

// countingConn accumulates wire bytes into registry counters.
type countingConn struct {
	net.Conn
	in, out *obs.Counter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// DialSubscribersWith sets how the served node dials the subscribers a
// SetSubscribers call names (default: ClientOptions{}). It is the
// server-side twin of ClientOptions.Dial: fault-injection tests route the
// master's write-set broadcast through faultnet with it.
func (s *Server) DialSubscribersWith(o ClientOptions) {
	s.svc.subMu.Lock()
	s.svc.subOpts = o
	s.svc.subMu.Unlock()
}

// Close stops accepting connections and severs the established ones — a
// fail-stopped or shut-down node must look dead to its peers immediately,
// not only to new dialers.
func (s *Server) Close() {
	_ = s.lis.Close()
	s.connMu.Lock()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.connMu.Unlock()
	<-s.done
}

// Transport-wide deadline and retry defaults. Every RemoteNode call is
// bounded by default; a stalled or partitioned peer costs at most the
// configured deadline (times the retry budget for idempotent calls), never
// an indefinite hang.
const (
	DefaultCallTimeout = 5 * time.Second
	DefaultPingTimeout = 1 * time.Second
	DefaultDialTimeout = 2 * time.Second
	defaultRetries     = 2
	defaultRetryBase   = 5 * time.Millisecond
	defaultRetryCap    = 250 * time.Millisecond

	// DefaultRetryBudget bounds the total elapsed time an idempotent call
	// may spend across attempts and backoff sleeps. Attempt counts alone do
	// not bound amplification when the cluster is overloaded — long calls
	// that each burn their full deadline before failing still multiply load
	// — so the budget caps attempts x elapsed, not just attempts.
	DefaultRetryBudget = 30 * time.Second
)

// ClientOptions tunes a RemoteNode's dialing, deadlines, and retry policy.
// The zero value gets sane defaults; pass a negative CallTimeout to run
// unbounded (tests that want the raw net/rpc behavior).
type ClientOptions struct {
	// Dial replaces net.Dial for this peer — the fault-injection hook
	// (e.g. faultnet.Network.Dialer). Nil dials real TCP with DialTimeout.
	Dial func(network, addr string) (net.Conn, error)

	DialTimeout time.Duration // TCP connect bound (default 2s)
	CallTimeout time.Duration // per-RPC deadline (default 5s; <0 disables)
	PingTimeout time.Duration // heartbeat deadline (default 1s; <0 disables)

	// RetryAttempts is the number of extra attempts for idempotent calls
	// after the first fails on a transport error (default 2; <0 disables).
	RetryAttempts int
	RetryBase     time.Duration // backoff floor (default 5ms)
	RetryCap      time.Duration // backoff ceiling (default 250ms)

	// RetryBudget caps the total wall-clock a retry loop may consume across
	// all attempts and backoff sleeps (default DefaultRetryBudget; <0
	// disables). Exhaustions count on
	// dmv_transport_retry_budget_exhausted_total so an overload amplified
	// by client retries is visible, not silent.
	RetryBudget time.Duration

	// Seed drives the backoff jitter; 0 means a fixed default so tests are
	// reproducible without configuration.
	Seed int64

	// Obs receives transport client metrics (timeouts, retries, redials,
	// per-call latency). Nil disables with no overhead.
	Obs *obs.Registry
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.DialTimeout == 0 {
		o.DialTimeout = DefaultDialTimeout
	}
	switch {
	case o.CallTimeout == 0:
		o.CallTimeout = DefaultCallTimeout
	case o.CallTimeout < 0:
		o.CallTimeout = 0 //dmv:ignore(rpcdeadline) normalizer: the public <0 escape hatch maps to callOnce's internal 0 = unbounded encoding
	}
	switch {
	case o.PingTimeout == 0:
		o.PingTimeout = DefaultPingTimeout
	case o.PingTimeout < 0:
		o.PingTimeout = 0 //dmv:ignore(rpcdeadline) normalizer: the public <0 escape hatch maps to callOnce's internal 0 = unbounded encoding
	}
	switch {
	case o.RetryAttempts == 0:
		o.RetryAttempts = defaultRetries
	case o.RetryAttempts < 0:
		o.RetryAttempts = 0
	}
	if o.RetryBase == 0 {
		o.RetryBase = defaultRetryBase
	}
	if o.RetryCap == 0 {
		o.RetryCap = defaultRetryCap
	}
	switch {
	case o.RetryBudget == 0:
		o.RetryBudget = DefaultRetryBudget
	case o.RetryBudget < 0:
		o.RetryBudget = 0 // internal 0 = unbounded, mirroring the timeout knobs
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// clientMetrics are the nil-safe transport client instruments.
type clientMetrics struct {
	timeouts        *obs.Counter
	retries         *obs.Counter
	redials         *obs.Counter
	budgetExhausted *obs.Counter
	rpcUS           *obs.Histogram
}

// RemoteNode is a replica.Peer backed by an RPC client; it reconnects
// lazily (with the dial bounded) after connection loss so a rebooted node
// is reachable again, and bounds every call with a deadline so a stalled
// peer surfaces as ErrPeerTimeout instead of hanging the caller.
type RemoteNode struct {
	id   string
	addr string
	opts ClientOptions
	met  clientMetrics

	mu     sync.Mutex
	client *rpc.Client // guarded by mu
	dialed bool        // guarded by mu; a later dial is a re-dial
	closed bool        // guarded by mu; Close was called, no re-dial

	// rng drives the decorrelated-jitter retry backoff.
	rngMu sync.Mutex
	rng   *rand.Rand // guarded by rngMu

	// sessions holds the record of each open session that needs one, keyed
	// by the handle TxBegin returned; commit and rollback remove it. Every
	// read session has one: its handle is local (readHandle|readSeq) and its
	// begin waits for the first statement. An update session's handle is
	// the server's id, and it has a record only when it carries a trace or
	// a deadline.
	sessMu   sync.Mutex
	sessions map[uint64]*session // guarded by sessMu
	readSeq  uint64              // guarded by sessMu
}

// readHandle marks the handles of read sessions, which the client issues
// itself, apart from server session ids, which count up from 1.
const readHandle = 1 << 63

// session is the client's record of one open session. Only id changes
// after TxBegin, and it is read and written under RemoteNode.sessMu.
type session struct {
	id     uint64           // the server's session id; 0 until a carried begin ran
	begin  BeginArgs        // a read session's begin, carried by its first TxExec
	trace  obs.TraceContext // repeated on every statement (see ExecArgs.Trace)
	expiry time.Time        // the caller's give-up time (zero = none)
}

// remainingUS returns the session's leftover deadline budget in
// microseconds (0 = unbounded, -1 = already expired). A nil session has no
// deadline.
func (s *session) remainingUS() int64 {
	if s == nil || s.expiry.IsZero() {
		return 0
	}
	left := time.Until(s.expiry)
	if left <= 0 {
		return -1
	}
	return left.Microseconds()
}

var _ replica.Peer = (*RemoteNode)(nil)
var _ flight.Peer = (*RemoteNode)(nil)

// DialNode connects to a node served by ServeNode with default options.
func DialNode(id, addr string) (*RemoteNode, error) {
	return DialNodeOpts(id, addr, ClientOptions{})
}

// DialNodeOpts connects to a node with explicit dialing/deadline/retry
// options.
func DialNodeOpts(id, addr string, o ClientOptions) (*RemoteNode, error) {
	o = o.withDefaults()
	n := &RemoteNode{
		id:       id,
		addr:     addr,
		opts:     o,
		rng:      rand.New(rand.NewSource(o.Seed)),
		sessions: make(map[uint64]*session, 8),
	}
	if o.Obs != nil {
		n.met = clientMetrics{
			timeouts:        o.Obs.Counter(obs.TransportRPCTimeouts),
			retries:         o.Obs.Counter(obs.TransportRPCRetries),
			redials:         o.Obs.Counter(obs.TransportRedials),
			budgetExhausted: o.Obs.Counter(obs.TransportRetryBudgetExhausted),
			rpcUS:           o.Obs.Histogram(obs.TransportRPCUS),
		}
	}
	if _, err := n.conn(); err != nil {
		return nil, err
	}
	return n, nil
}

func (n *RemoteNode) conn() (*rpc.Client, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.client != nil {
		return n.client, nil
	}
	if n.closed {
		return nil, fmt.Errorf("%w: %s: client closed", replica.ErrNodeDown, n.id)
	}
	dial := n.opts.Dial
	if dial == nil {
		dial = func(network, addr string) (net.Conn, error) {
			return net.DialTimeout(network, addr, n.opts.DialTimeout)
		}
	}
	raw, err := dial("tcp", n.addr)
	if err != nil {
		if isTimeout(err) {
			return nil, fmt.Errorf("%w: dial %s: %v", replica.ErrPeerTimeout, n.addr, err)
		}
		return nil, fmt.Errorf("%w: dial %s: %v", replica.ErrNodeDown, n.addr, err)
	}
	if n.dialed {
		n.met.redials.Inc()
	}
	n.dialed = true
	n.client = rpc.NewClientWithCodec(newClientCodec(raw))
	return n.client, nil
}

func (n *RemoteNode) drop() {
	n.mu.Lock()
	if n.client != nil {
		_ = n.client.Close()
		n.client = nil
	}
	n.mu.Unlock()
}

// Close releases the connection for good: unlike a dropped client, a
// closed one never re-dials, so a call still in flight on a replaced
// subscriber handle fails instead of leaking a fresh connection.
func (n *RemoteNode) Close() {
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
	n.drop()
}

// callWait is callOnce's completion channel and deadline timer, recycled
// through callWaits so a call allocates neither. A pair goes back only when
// the reply beat the deadline and the timer stopped before firing: then
// the channel is empty (net/rpc signals a call once) and no tick is
// pending. A pair whose call timed out may still get a late reply, so it
// is dropped.
type callWait struct {
	done chan *rpc.Call
	t    *time.Timer
}

var callWaits = sync.Pool{New: func() any { return &callWait{done: make(chan *rpc.Call, 1)} }}

// call performs one deadline-bounded RPC attempt (the default path for
// non-idempotent calls, which must not be replayed blind: a lost TxCommit
// reply leaves the outcome genuinely unknown).
func (n *RemoteNode) call(method string, args, reply any) error {
	return n.callOnce(method, args, reply, n.opts.CallTimeout)
}

// callOnce performs one RPC with deadline d (0 = unbounded), mapping
// transport failures (including a *FrameError) to ErrNodeDown and
// deadline misses to ErrPeerTimeout.
// On a timeout the client is dropped: net/rpc cannot cancel an in-flight
// call, so abandoning the connection is the only way to keep a late reply
// from being confused with a fresh request, and it arms the lazy re-dial.
func (n *RemoteNode) callOnce(method string, args, reply any, d time.Duration) error {
	c, err := n.conn()
	if err != nil {
		return err
	}
	start := time.Now()
	var callErr error
	if d <= 0 {
		callErr = c.Call(method, args, reply)
	} else {
		// rpc.Client.Go writes the request in the calling goroutine, so a
		// link that blackholes writes (a partition, not a refused dial)
		// would stall here before the deadline select was ever reached.
		// Issue the send from a goroutine; on timeout, drop() closes the
		// connection, which unblocks a writer stalled on a dead link.
		w := callWaits.Get().(*callWait)
		go c.Go(method, args, reply, w.done)
		if w.t == nil {
			w.t = time.NewTimer(d)
		} else {
			w.t.Reset(d)
		}
		select {
		case call := <-w.done:
			callErr = call.Error
			if w.t.Stop() {
				callWaits.Put(w)
			}
		case <-w.t.C:
			n.drop()
			n.met.timeouts.Inc()
			n.met.rpcUS.ObserveSince(start)
			return fmt.Errorf("%w: %s %s after %v", replica.ErrPeerTimeout, n.id, method, d)
		}
	}
	n.met.rpcUS.ObserveSince(start)
	if callErr != nil {
		n.drop()
		var fe *FrameError
		if errors.Is(callErr, rpc.ErrShutdown) || errors.Is(callErr, io.EOF) ||
			errors.Is(callErr, io.ErrUnexpectedEOF) || errors.As(callErr, &fe) || isNetError(callErr) {
			return fmt.Errorf("%w: %s: %v", replica.ErrNodeDown, n.id, callErr)
		}
		return callErr
	}
	return nil
}

// callIdem is callOnce plus a bounded retry loop with decorrelated-jitter
// backoff, for calls that are safe to replay (pure reads, heartbeats, and
// naturally idempotent writes like DiscardAbove or InstallDelta). Only
// transport-level failures are retried — an error decoded from the reply
// means the peer executed the request and retrying would not change it.
func (n *RemoteNode) callIdem(method string, args, reply any, d time.Duration) error {
	start := time.Now()
	sleep := n.opts.RetryBase
	for attempt := 0; ; attempt++ {
		err := n.callOnce(method, args, reply, d)
		if err == nil || attempt >= n.opts.RetryAttempts || !transportFailure(err) {
			return err
		}
		// Elapsed-time budget: attempt counts alone let slow failures
		// (each burning a full deadline) amplify an overload; once the
		// budget is spent the loop stops even with attempts remaining.
		if n.opts.RetryBudget > 0 && time.Since(start)+sleep > n.opts.RetryBudget {
			n.met.budgetExhausted.Inc()
			return err
		}
		n.met.retries.Inc()
		// Decorrelated jitter: sleep in [base, 3*prev], capped. Spreads
		// reconnect storms without synchronizing retries across peers.
		n.rngMu.Lock()
		f := n.rng.Float64()
		n.rngMu.Unlock()
		span := 3*sleep - n.opts.RetryBase
		if span < 0 {
			span = 0
		}
		sleep = n.opts.RetryBase + time.Duration(f*float64(span))
		if sleep > n.opts.RetryCap {
			sleep = n.opts.RetryCap
		}
		time.Sleep(sleep)
	}
}

// transportFailure reports whether err came from the transport layer (the
// request may never have reached the peer) rather than from the peer's
// reply.
func transportFailure(err error) bool {
	return errors.Is(err, replica.ErrPeerTimeout) || errors.Is(err, replica.ErrNodeDown)
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func isNetError(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return strings.Contains(err.Error(), "connection")
}

// ID implements replica.Peer.
func (n *RemoteNode) ID() string { return n.id }

// Addr returns the remote address.
func (n *RemoteNode) Addr() string { return n.addr }

// Ping implements replica.Peer. Heartbeats run on the tighter PingTimeout
// so the failure detector's probe cost is bounded well below the data-path
// deadline.
func (n *RemoteNode) Ping() error {
	var st Status
	if err := n.callIdem("Node.Ping", struct{}{}, &st, n.opts.PingTimeout); err != nil {
		return err
	}
	return st.Err()
}

// ReceiveWriteSet implements replica.Peer.
func (n *RemoteNode) ReceiveWriteSet(ws *heap.WriteSet) error {
	var st Status
	if err := n.call("Node.ReceiveWriteSet", ws, &st); err != nil {
		return err
	}
	return st.Err()
}

// TxBegin implements replica.Peer. A read session sends nothing: it gets a
// local handle, and its first TxExec carries the begin. A read holds no
// latch, so a lost reply to that call strands no more than a lost TxBegin
// reply did. An update session still opens with a call of its own: a lost
// reply to a begin-carrying UPDATE would strand a page latch under an id
// the client never learned. A positive deadline is remembered, so every
// later call re-propagates what is left of it.
func (n *RemoteNode) TxBegin(readOnly bool, version vclock.Vector, deadline time.Duration, tc obs.TraceContext) (uint64, error) {
	args := BeginArgs{ReadOnly: readOnly, Version: version, Trace: tc}
	var expiry time.Time
	if deadline > 0 {
		args.DeadlineUS = deadline.Microseconds()
		expiry = time.Now().Add(deadline)
	} else if deadline < 0 {
		args.DeadlineUS = -1
	}
	if readOnly {
		n.sessMu.Lock()
		n.readSeq++
		h := readHandle | n.readSeq
		n.sessions[h] = &session{begin: args, trace: tc, expiry: expiry}
		n.sessMu.Unlock()
		return h, nil
	}
	var reply BeginReply
	if err := n.call("Node.TxBegin", args, &reply); err != nil {
		return 0, err
	}
	if err := reply.Err(); err != nil {
		return reply.ID, err
	}
	if tc.Valid() || deadline > 0 {
		n.sessMu.Lock()
		n.sessions[reply.ID] = &session{id: reply.ID, trace: tc, expiry: expiry}
		n.sessMu.Unlock()
	}
	return reply.ID, nil
}

// take removes h's record and returns the server's session id (0 for a
// read whose begin never ran) and the remaining budget, as remainingUS.
func (n *RemoteNode) take(h uint64) (uint64, int64) {
	n.sessMu.Lock()
	s, ok := n.sessions[h]
	delete(n.sessions, h)
	id := h
	if ok {
		id = s.id
	}
	n.sessMu.Unlock()
	return id, s.remainingUS()
}

// TxExec implements replica.Peer. A read session's first statement carries
// its begin, and the reply names the server session it opened.
func (n *RemoteNode) TxExec(txID uint64, stmt string, params []value.Value) (*exec.Result, error) {
	args := ExecArgs{TxID: txID, Stmt: stmt, Params: params}
	n.sessMu.Lock()
	s := n.sessions[txID]
	if s != nil {
		args.TxID, args.Trace = s.id, s.trace
		if s.id == 0 {
			args.Begin = &s.begin
		}
	}
	n.sessMu.Unlock()
	if us := s.remainingUS(); us < 0 {
		// Saves the round trip: the server would refuse anyway.
		return nil, fmt.Errorf("%w: exec %d on %s", replica.ErrDeadlineExpired, txID, n.id)
	} else if us > 0 {
		args.DeadlineUS = us
	}
	var reply ExecReply
	if err := n.call("Node.TxExec", args, &reply); err != nil {
		return nil, err
	}
	if args.Begin != nil && reply.TxID != 0 {
		n.sessMu.Lock()
		s.id = reply.TxID
		n.sessMu.Unlock()
	}
	return reply.Result, reply.Err()
}

// TxCommit implements replica.Peer. The deadline is checked here, before
// the commit request is issued — once the RPC is on the wire the commit is
// in flight and only ErrCommitUncertain semantics apply to its outcome. A
// read that ran no statement has nothing to commit on the server.
func (n *RemoteNode) TxCommit(txID uint64) (vclock.Vector, error) {
	id, us := n.take(txID)
	if us < 0 {
		// Commit work has not started, so abandoning is safe. The session
		// is rolled back here: the caller counts its transaction finished
		// once it has called TxCommit and sends no rollback of its own.
		_ = n.rollback(id)
		return nil, fmt.Errorf("%w: commit %d on %s", replica.ErrDeadlineExpired, txID, n.id)
	}
	if id == 0 {
		return nil, nil
	}
	var reply CommitReply
	if err := n.call("Node.TxCommit", CommitArgs{TxID: id, DeadlineUS: us}, &reply); err != nil {
		return nil, err
	}
	return reply.Version, reply.Err()
}

// TxRollback implements replica.Peer.
func (n *RemoteNode) TxRollback(txID uint64) error {
	id, _ := n.take(txID)
	return n.rollback(id)
}

// rollback closes server session id; 0 is a read whose begin never ran,
// with nothing to close.
func (n *RemoteNode) rollback(id uint64) error {
	if id == 0 {
		return nil
	}
	var st Status
	if err := n.call("Node.TxRollback", id, &st); err != nil {
		return err
	}
	return st.Err()
}

// AbortActiveSessions implements replica.Peer.
func (n *RemoteNode) AbortActiveSessions() (int, error) {
	var reply AbortReply
	if err := n.call("Node.AbortActiveSessions", struct{}{}, &reply); err != nil {
		return 0, err
	}
	return reply.Aborted, reply.Err()
}

// Role implements replica.Peer.
func (n *RemoteNode) Role() (replica.Role, error) {
	var reply RoleReply
	if err := n.callIdem("Node.Role", struct{}{}, &reply, n.opts.CallTimeout); err != nil {
		return 0, err
	}
	return reply.Role, reply.Err()
}

// Promote implements replica.Peer.
func (n *RemoteNode) Promote(classTables []int) error {
	var st Status
	if err := n.call("Node.Promote", classTables, &st); err != nil {
		return err
	}
	return st.Err()
}

// Demote implements replica.Peer.
func (n *RemoteNode) Demote(to replica.Role) error {
	var st Status
	if err := n.call("Node.Demote", to, &st); err != nil {
		return err
	}
	return st.Err()
}

// DiscardAbove implements replica.Peer. Discarding above the same vector
// twice is a no-op, so the fail-over path may retry through transient
// faults instead of abandoning a reachable peer.
func (n *RemoteNode) DiscardAbove(v vclock.Vector) error {
	var st Status
	if err := n.callIdem("Node.DiscardAbove", v, &st, n.opts.CallTimeout); err != nil {
		return err
	}
	return st.Err()
}

// MaxVersions implements replica.Peer.
func (n *RemoteNode) MaxVersions() (vclock.Vector, error) {
	var reply VersionReply
	if err := n.callIdem("Node.MaxVersions", struct{}{}, &reply, n.opts.CallTimeout); err != nil {
		return nil, err
	}
	return reply.Version, reply.Err()
}

// StartJoin implements replica.Peer.
func (n *RemoteNode) StartJoin() error {
	var st Status
	if err := n.call("Node.StartJoin", struct{}{}, &st); err != nil {
		return err
	}
	return st.Err()
}

// PageVersions implements replica.Peer.
func (n *RemoteNode) PageVersions() (heap.PageVersionMap, error) {
	var reply PageVersionsReply
	if err := n.callIdem("Node.PageVersions", struct{}{}, &reply, n.opts.CallTimeout); err != nil {
		return nil, err
	}
	return reply.Versions, reply.Err()
}

// InstallDelta implements replica.Peer. Installing the same page images
// twice overwrites them with identical content, so replay is safe.
func (n *RemoteNode) InstallDelta(images []page.Image) error {
	var st Status
	if err := n.callIdem("Node.InstallDelta", images, &st, n.opts.CallTimeout); err != nil {
		return err
	}
	return st.Err()
}

// FinishJoin implements replica.Peer.
func (n *RemoteNode) FinishJoin() error {
	var st Status
	if err := n.call("Node.FinishJoin", struct{}{}, &st); err != nil {
		return err
	}
	return st.Err()
}

// WarmPages implements replica.Peer. Touching a page twice is idempotent.
func (n *RemoteNode) WarmPages(keys []simdisk.PageKey) error {
	var st Status
	if err := n.callIdem("Node.WarmPages", keys, &st, n.opts.CallTimeout); err != nil {
		return err
	}
	return st.Err()
}

// ResidentPages implements replica.Peer.
func (n *RemoteNode) ResidentPages(limit int) ([]simdisk.PageKey, error) {
	var reply PagesReply
	if err := n.callIdem("Node.ResidentPages", limit, &reply, n.opts.CallTimeout); err != nil {
		return nil, err
	}
	return reply.Keys, reply.Err()
}

// Digest implements replica.Peer. A pure read at a pinned version, so it
// retries transient faults; CallTimeout bounds the sweep's wait on a slow
// or partitioned node.
func (n *RemoteNode) Digest(table int, version uint64, withPages bool) (scrub.TableDigest, error) {
	var reply DigestReply
	args := DigestArgs{Table: table, Version: version, WithPages: withPages}
	if err := n.callIdem("Node.Digest", args, &reply, n.opts.CallTimeout); err != nil {
		return scrub.TableDigest{}, err
	}
	return reply.Digest, reply.Err()
}

// PageImages implements replica.Peer. Pure read on the donor, so repair
// and migration survive transient faults via retry.
func (n *RemoteNode) PageImages(table int, pages []page.ID) ([]page.Image, error) {
	var reply ImagesReply
	if err := n.callIdem("Node.PageImages", PageImagesArgs{Table: table, Pages: pages}, &reply, n.opts.CallTimeout); err != nil {
		return nil, err
	}
	return reply.Images, reply.Err()
}

// ObsSnapshot fetches the remote node's observability snapshot (not part
// of replica.Peer; the scheduler's aggregation loop type-asserts for it).
func (n *RemoteNode) ObsSnapshot() (obs.NodeSnapshot, error) {
	var reply ObsSnapshotReply
	if err := n.callIdem("Node.ObsSnapshot", struct{}{}, &reply, n.opts.CallTimeout); err != nil {
		return obs.NodeSnapshot{}, err
	}
	return reply.NS, reply.Err()
}

// FlightDump fetches the remote node's flight-recorder fragment (not part
// of replica.Peer; the flight recorder's dump worker reaches it through the
// flight.Peer interface). A pure read, so transient transport failures
// retry; the CallTimeout deadline bounds the gather even when the peer is
// partitioned away.
func (n *RemoteNode) FlightDump() (flight.NodeDump, error) {
	var reply FlightDumpReply
	if err := n.callIdem("Node.FlightDump", struct{}{}, &reply, n.opts.CallTimeout); err != nil {
		return flight.NodeDump{}, err
	}
	return reply.ND, reply.Err()
}

// SetSubscribers re-points the remote node's replication stream.
func (n *RemoteNode) SetSubscribers(addrs map[string]string) error {
	var st Status
	if err := n.call("Node.SetSubscribers", addrs, &st); err != nil {
		return err
	}
	return st.Err()
}

// Rewire installs subs as master's replication subscriber set over RPC. It
// is cluster.Plane's rewire input for a remote tier, where every member is
// a *RemoteNode.
func Rewire(master replica.Peer, subs []replica.Peer) error {
	addrs := make(map[string]string, len(subs))
	for _, s := range subs {
		addrs[s.ID()] = s.(*RemoteNode).Addr()
	}
	return master.(*RemoteNode).SetSubscribers(addrs)
}
