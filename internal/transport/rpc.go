// Package transport serves the replica Peer interface and the scheduler
// session API over TCP, enabling real multi-process deployments: each
// database node runs cmd/dmv-node, the scheduler runs cmd/dmv-scheduler,
// and the two sides exchange exactly the messages of the in-process
// cluster — write-set broadcasts with acknowledgments, version-tagged
// transaction sessions, heartbeats, page migration, and warm-up traffic.
//
// Calls travel as frames (codec.go): length-prefixed, tagged with a seq so
// one connection carries many calls at once, with hand-written binary
// bodies for the data-path messages and for the control-plane bodies that
// hold one entry per page, and JSON, inside the frame, for the rest of the
// control plane. A RemoteNode multiplexes its calls over one connection
// (clientConn); a served connection dispatches each request by method name
// (NodeService.serve).
//
// Error identity matters to the scheduler (version-conflict aborts and
// node-down errors are retried differently), and a frame carries an error
// only as text; replies therefore carry an explicit error code (Status)
// that the client side converts back to the canonical sentinel errors.
// RemoteNode reads it in one place: call and callIdem return the error a
// reply's Status carries once the transport has succeeded.
package transport

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
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

// Err converts the status back into a sentinel-matching error.
func (s Status) Err() error { return decodeErr(s.Code, s.Msg) }

// BeginArgs opens a transaction session, and is the only message that
// carries the session's trace and deadline. Trace is the scheduler-side span
// context; the node records its work as child spans under it. DeadlineUS is
// the caller's remaining time budget in microseconds (0 = none, -1 = already
// spent): a duration rather than an absolute time, so client and server
// clocks never have to agree. The node enforces it from then on.
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

// ExecArgs executes one statement in a session. Begin, when set, opens the
// session before the statement runs, and TxID is ignored: a read-only
// session sends no TxBegin of its own, its first statement carries the
// begin instead.
type ExecArgs struct {
	TxID   uint64
	Stmt   string
	Params []value.Value
	Begin  *BeginArgs
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

// CommitReply returns the commit version vector (updates only).
type CommitReply struct {
	Version vclock.Vector
	Status
}

// Reply is a control-plane reply: the call's result and its status.
type Reply[T any] struct {
	Value T
	Status
}

// DigestArgs requests a snapshot-consistent table digest at a pinned
// version (anti-entropy scrub, DESIGN.md §15).
type DigestArgs struct {
	Table     int
	Version   uint64
	WithPages bool
}

// PageImagesArgs names the pages whose current images a repair or a
// migration wants shipped.
type PageImagesArgs struct {
	Table int
	Pages []page.ID
}

// NodeService serves a replica.Node to the connections of one Server.
type NodeService struct {
	node *replica.Node

	// subs are the clients behind the node's subscriber set, keyed by id, so
	// a rewire reuses the connections it keeps and closes the ones it drops.
	subMu   sync.Mutex
	subs    map[string]*RemoteNode // guarded by subMu
	subOpts ClientOptions          // guarded by subMu; how subscribers are dialed
}

// status is the reply of a call that returns only an error.
func status(err error) *Status {
	code, msg := encodeErr(err)
	return &Status{Code: code, Msg: msg}
}

// reply is the reply of a call that returns a value and an error.
func reply[T any](v T, err error) *Reply[T] {
	return &Reply[T]{Value: v, Status: *status(err)}
}

// serve answers the requests on conn until it fails or closes. The reader
// decodes each request's argument in arrival order and runs its handler on
// a goroutine of its own (handle). An unknown method or an argument that
// does not decode is answered with an error frame, and the connection keeps
// serving.
func (s *NodeService) serve(conn io.ReadWriteCloser) {
	c := &serverConn{svc: s, w: newWire(conn)}
	defer conn.Close()
	for {
		seq, method, err := c.w.readHeader()
		if err != nil {
			return
		}
		switch string(method) {
		case "Node.Ping":
			handle(c, seq, func(s *NodeService, _ *struct{}) any { return status(s.node.Ping()) })
		case "Node.ReceiveWriteSet":
			// Returning is the ack.
			handle(c, seq, func(s *NodeService, ws *heap.WriteSet) any { return status(s.node.ReceiveWriteSet(ws)) })
		case "Node.TxBegin":
			handle(c, seq, func(s *NodeService, a *BeginArgs) any {
				id, err := s.begin(a)
				return &BeginReply{ID: id, Status: *status(err)}
			})
		case "Node.TxExec":
			handle(c, seq, (*NodeService).txExec)
		case "Node.TxCommit":
			handle(c, seq, func(s *NodeService, id *uint64) any {
				ver, err := s.node.TxCommit(*id)
				return &CommitReply{Version: ver, Status: *status(err)}
			})
		case "Node.TxRollback":
			handle(c, seq, func(s *NodeService, id *uint64) any { return status(s.node.TxRollback(*id)) })
		case "Node.AbortActiveSessions":
			handle(c, seq, func(s *NodeService, _ *struct{}) any { return reply(s.node.AbortActiveSessions()) })
		case "Node.Promote":
			handle(c, seq, func(s *NodeService, tables *[]int) any { return status(s.node.Promote(*tables)) })
		case "Node.Demote":
			handle(c, seq, func(s *NodeService, to *replica.Role) any { return status(s.node.Demote(*to)) })
		case "Node.DiscardAbove":
			handle(c, seq, func(s *NodeService, v *vclock.Vector) any { return status(s.node.DiscardAbove(*v)) })
		case "Node.MaxVersions":
			handle(c, seq, func(s *NodeService, _ *struct{}) any { return reply(s.node.MaxVersions()) })
		case "Node.StartJoin":
			handle(c, seq, func(s *NodeService, _ *struct{}) any { return status(s.node.StartJoin()) })
		case "Node.PageVersions":
			handle(c, seq, func(s *NodeService, _ *struct{}) any { return reply(s.node.PageVersions()) })
		case "Node.InstallDelta":
			handle(c, seq, func(s *NodeService, images *[]page.Image) any { return status(s.node.InstallDelta(*images)) })
		case "Node.FinishJoin":
			handle(c, seq, func(s *NodeService, _ *struct{}) any { return status(s.node.FinishJoin()) })
		case "Node.WarmPages":
			handle(c, seq, func(s *NodeService, keys *[]simdisk.PageKey) any { return status(s.node.WarmPages(*keys)) })
		case "Node.ResidentPages":
			handle(c, seq, func(s *NodeService, limit *int) any { return reply(s.node.ResidentPages(*limit)) })
		case "Node.Digest":
			handle(c, seq, func(s *NodeService, a *DigestArgs) any {
				return reply(s.node.Digest(a.Table, a.Version, a.WithPages))
			})
		case "Node.PageImages":
			handle(c, seq, func(s *NodeService, a *PageImagesArgs) any { return reply(s.node.PageImages(a.Table, a.Pages)) })
		case "Node.ObsSnapshot":
			handle(c, seq, func(s *NodeService, _ *struct{}) any { return reply(s.node.ObsSnapshot()) })
		case "Node.FlightDump":
			handle(c, seq, func(s *NodeService, _ *struct{}) any { return reply(s.node.FlightDump()) })
		case "Node.SetSubscribers":
			handle(c, seq, (*NodeService).setSubscribers)
		default:
			_ = c.w.readBody(nil)
			c.reply(seq, fmt.Sprintf("transport: unknown method %q", method), nil)
		}
	}
}

// begin opens the session a TxBegin or a carried begin asks for.
func (s *NodeService) begin(a *BeginArgs) (uint64, error) {
	return s.node.TxBegin(a.ReadOnly, a.Version, time.Duration(a.DeadlineUS)*time.Microsecond, a.Trace)
}

// txExec runs one statement, first opening its session when the statement
// carries the begin.
func (s *NodeService) txExec(a *ExecArgs) any {
	r := &ExecReply{}
	id := a.TxID
	if a.Begin != nil {
		var err error
		if id, err = s.begin(a.Begin); err != nil {
			r.Status = *status(err)
			return r
		}
		r.TxID = id
	}
	res, err := s.node.TxExec(id, a.Stmt, a.Params)
	r.Result, r.Status = res, *status(err)
	return r
}

// setSubscribers re-points the node's replication stream at the given peer
// addresses (id -> address). A master node dials each subscriber itself:
// a subscriber whose id and address are unchanged keeps its client, dropped
// ones are closed, and the reachable subset is installed even when some
// dials fail — the reply then names the unreachable ones.
func (s *NodeService) setSubscribers(addrs *map[string]string) any {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	next := make(map[string]*RemoteNode, len(*addrs))
	peers := make([]replica.Peer, 0, len(*addrs))
	var failed []string
	for id, addr := range *addrs {
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
		return status(fmt.Errorf("dial subscribers: %s", strings.Join(failed, "; ")))
	}
	return &Status{}
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
	svc := &NodeService{node: n}
	var bytesIn, bytesOut *obs.Counter
	if reg != nil {
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
			s.connMu.Lock()
			s.conns[conn] = struct{}{}
			s.connMu.Unlock()
			go func() {
				if reg != nil {
					svc.serve(&countingConn{Conn: conn, in: bytesIn, out: bytesOut})
				} else {
					svc.serve(conn)
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
	retryBase          = 5 * time.Millisecond   // backoff floor
	retryCap           = 250 * time.Millisecond // backoff ceiling

	// DefaultRetryBudget bounds the total elapsed time an idempotent call
	// may spend across attempts and backoff sleeps. Attempt counts alone do
	// not bound amplification when the cluster is overloaded — long calls
	// that each burn their full deadline before failing still multiply load
	// — so the budget caps attempts x elapsed, not just attempts.
	DefaultRetryBudget = 30 * time.Second
)

// ClientOptions tunes a RemoteNode's dialing, deadlines, and retry policy.
// A zero or negative deadline or budget takes its default: every call is
// bounded.
type ClientOptions struct {
	// Dial replaces net.Dial for this peer — the fault-injection hook
	// (e.g. faultnet.Network.Dialer). Nil dials real TCP with DialTimeout.
	Dial func(network, addr string) (net.Conn, error)

	DialTimeout time.Duration // TCP connect bound (default 2s)
	CallTimeout time.Duration // per-RPC deadline (default 5s)
	PingTimeout time.Duration // heartbeat deadline (default 1s)

	// RetryAttempts is the number of extra attempts for idempotent calls
	// after the first fails on a transport error (default 2; <0 disables).
	RetryAttempts int

	// RetryBudget caps the total wall-clock a retry loop may consume across
	// all attempts and backoff sleeps (default DefaultRetryBudget).
	// Exhaustions count on
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
	if o.CallTimeout <= 0 {
		o.CallTimeout = DefaultCallTimeout
	}
	if o.PingTimeout <= 0 {
		o.PingTimeout = DefaultPingTimeout
	}
	switch {
	case o.RetryAttempts == 0:
		o.RetryAttempts = defaultRetries
	case o.RetryAttempts < 0:
		o.RetryAttempts = 0
	}
	if o.RetryBudget <= 0 {
		o.RetryBudget = DefaultRetryBudget
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
	cc     *clientConn // guarded by mu; dropped once a call finds it failed
	dialed bool        // guarded by mu; a later dial is a re-dial
	closed bool        // guarded by mu; Close was called, no re-dial

	// rng drives the decorrelated-jitter retry backoff.
	rngMu sync.Mutex
	rng   *rand.Rand // guarded by rngMu

	// sessions holds the record of each open read session, keyed by the
	// local handle TxBegin returned (readHandle|readSeq); commit and
	// rollback remove it. An update session's handle is the server's id,
	// and it has no record.
	sessMu   sync.Mutex
	sessions map[uint64]*session // guarded by sessMu
	readSeq  uint64              // guarded by sessMu
}

// readHandle marks the handles of read sessions, which the client issues
// itself, apart from server session ids, which count up from 1.
const readHandle = 1 << 63

// session is the client's record of one open read session. id and
// begin.DeadlineUS change after TxBegin, under RemoteNode.sessMu; begin is
// encoded outside it, which is safe because a session's calls come one at
// a time.
type session struct {
	id     uint64    // the server's session id; 0 until the carried begin ran
	begin  BeginArgs // carried by the first TxExec
	expiry time.Time // the caller's give-up time (zero = none)
}

// budgetUS is a remaining budget as BeginArgs.DeadlineUS carries it: -1 once
// less than a microsecond is left.
func budgetUS(left time.Duration) int64 {
	if left < time.Microsecond {
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

func (n *RemoteNode) conn() (*clientConn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cc != nil {
		return n.cc, nil
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
	n.cc = newClientConn(n.id, raw)
	return n.cc, nil
}

// Close releases the connection for good: unlike a failed connection, a
// closed client never re-dials, so a call still in flight on a replaced
// subscriber handle fails instead of leaking a fresh connection.
func (n *RemoteNode) Close() {
	n.mu.Lock()
	n.closed = true
	c := n.cc
	n.mu.Unlock()
	if c != nil {
		c.fail(errors.New("client closed"))
		<-c.readDone
	}
}

// statusReply is what every call answers with: a reply carrying a Status.
type statusReply interface{ Err() error }

// call performs one deadline-bounded attempt (the default path for
// non-idempotent calls, which must not be replayed blind: a lost TxCommit
// reply leaves the outcome genuinely unknown). Once the transport succeeds
// it returns the error reply's Status carries.
func (n *RemoteNode) call(method string, args any, reply statusReply) error {
	if err := n.callOnce(method, args, reply, n.opts.CallTimeout); err != nil {
		return err
	}
	return reply.Err()
}

// callOnce performs one call with deadline d. A failure of
// the connection is ErrNodeDown, and the next call re-dials; a deadline
// miss is ErrPeerTimeout, and costs the connection only when the request
// could not be written (clientConn.roundTrip). After a transport failure
// reply must not be read.
func (n *RemoteNode) callOnce(method string, args, reply any, d time.Duration) error {
	c, err := n.conn()
	if err != nil {
		return err
	}
	start := time.Now()
	err = c.roundTrip(method, args, reply, d)
	n.met.rpcUS.ObserveSince(start)
	if err != nil && c.failed() {
		n.mu.Lock()
		if n.cc == c {
			n.cc = nil // the next call re-dials
		}
		n.mu.Unlock()
	}
	if err == errDeadline {
		n.met.timeouts.Inc()
		return fmt.Errorf("%w: %s %s after %v", replica.ErrPeerTimeout, n.id, method, d)
	}
	return err
}

// callIdem is call with deadline d plus a bounded retry loop with
// decorrelated-jitter backoff, for calls that are safe to replay (pure
// reads, heartbeats, and naturally idempotent writes like DiscardAbove or
// InstallDelta). Only transport-level failures are retried — an error
// decoded from the reply means the peer executed the request and retrying
// would not change it.
func (n *RemoteNode) callIdem(method string, args any, reply statusReply, d time.Duration) error {
	start := time.Now()
	sleep := retryBase
	for attempt := 0; ; attempt++ {
		err := n.callOnce(method, args, reply, d)
		if err == nil {
			return reply.Err()
		}
		if attempt >= n.opts.RetryAttempts || !transportFailure(err) {
			return err
		}
		// Elapsed-time budget: attempt counts alone let slow failures
		// (each burning a full deadline) amplify an overload; once the
		// budget is spent the loop stops even with attempts remaining.
		if time.Since(start)+sleep > n.opts.RetryBudget {
			n.met.budgetExhausted.Inc()
			return err
		}
		n.met.retries.Inc()
		// Decorrelated jitter: sleep in [base, 3*prev], capped. Spreads
		// reconnect storms without synchronizing retries across peers.
		n.rngMu.Lock()
		f := n.rng.Float64()
		n.rngMu.Unlock()
		span := 3*sleep - retryBase
		if span < 0 {
			span = 0
		}
		sleep = min(retryBase+time.Duration(f*float64(span)), retryCap)
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

// ID implements replica.Peer.
func (n *RemoteNode) ID() string { return n.id }

// Addr returns the remote address.
func (n *RemoteNode) Addr() string { return n.addr }

// Ping implements replica.Peer. Heartbeats run on the tighter PingTimeout
// so the failure detector's probe cost is bounded well below the data-path
// deadline.
func (n *RemoteNode) Ping() error {
	return n.callIdem("Node.Ping", &struct{}{}, &Status{}, n.opts.PingTimeout)
}

// ReceiveWriteSet implements replica.Peer.
func (n *RemoteNode) ReceiveWriteSet(ws *heap.WriteSet) error {
	return n.call("Node.ReceiveWriteSet", ws, &Status{})
}

// TxBegin implements replica.Peer. A read session sends nothing: it gets a
// local handle, and its first TxExec carries the begin. A read holds no
// latch, so a lost reply to that call strands no more than a lost TxBegin
// reply did. An update session still opens with a call of its own: a lost
// reply to a begin-carrying UPDATE would strand a page latch under an id
// the client never learned. Either way the begin is the one message that
// carries the deadline and the trace; the node enforces the deadline.
func (n *RemoteNode) TxBegin(readOnly bool, version vclock.Vector, deadline time.Duration, tc obs.TraceContext) (uint64, error) {
	args := BeginArgs{ReadOnly: readOnly, Version: version, Trace: tc}
	if deadline != 0 {
		args.DeadlineUS = budgetUS(deadline)
	}
	if !readOnly {
		var reply BeginReply
		if err := n.call("Node.TxBegin", &args, &reply); err != nil {
			return 0, err
		}
		return reply.ID, nil
	}
	s := &session{begin: args}
	if deadline > 0 {
		s.expiry = time.Now().Add(deadline)
	}
	n.sessMu.Lock()
	n.readSeq++
	h := readHandle | n.readSeq
	n.sessions[h] = s
	n.sessMu.Unlock()
	return h, nil
}

// take removes a read handle's record and returns the server's session id,
// 0 for a read whose begin never ran. Any other handle is the server's id.
func (n *RemoteNode) take(h uint64) uint64 {
	if h&readHandle == 0 {
		return h
	}
	n.sessMu.Lock()
	defer n.sessMu.Unlock()
	s, ok := n.sessions[h]
	if !ok {
		return h
	}
	delete(n.sessions, h)
	return s.id
}

// TxExec implements replica.Peer. A read session's first statement carries
// its begin, with the budget left at send time, and the reply names the
// server session it opened, even when the statement then failed.
func (n *RemoteNode) TxExec(txID uint64, stmt string, params []value.Value) (*exec.Result, error) {
	args := ExecArgs{TxID: txID, Stmt: stmt, Params: params}
	var s *session
	if txID&readHandle != 0 {
		n.sessMu.Lock()
		if s = n.sessions[txID]; s != nil {
			args.TxID = s.id
			if s.id == 0 {
				if !s.expiry.IsZero() {
					s.begin.DeadlineUS = budgetUS(time.Until(s.expiry))
				}
				args.Begin = &s.begin
			}
		}
		n.sessMu.Unlock()
	}
	// callOnce rather than call: the session id is read from the reply even
	// when its Status carries an error.
	var reply ExecReply
	if err := n.callOnce("Node.TxExec", &args, &reply, n.opts.CallTimeout); err != nil {
		return nil, err
	}
	if args.Begin != nil && reply.TxID != 0 {
		n.sessMu.Lock()
		s.id = reply.TxID
		n.sessMu.Unlock()
	}
	return reply.Result, reply.Err()
}

// TxCommit implements replica.Peer. A read that ran no statement has
// nothing to commit on the server.
func (n *RemoteNode) TxCommit(txID uint64) (vclock.Vector, error) {
	id := n.take(txID)
	if id == 0 {
		return nil, nil
	}
	var reply CommitReply
	if err := n.call("Node.TxCommit", &id, &reply); err != nil {
		return nil, err
	}
	return reply.Version, nil
}

// TxRollback implements replica.Peer. A read that ran no statement has
// nothing to close on the server.
func (n *RemoteNode) TxRollback(txID uint64) error {
	id := n.take(txID)
	if id == 0 {
		return nil
	}
	return n.call("Node.TxRollback", &id, &Status{})
}

// AbortActiveSessions implements replica.Peer.
func (n *RemoteNode) AbortActiveSessions() (int, error) {
	var reply Reply[int]
	if err := n.call("Node.AbortActiveSessions", &struct{}{}, &reply); err != nil {
		return 0, err
	}
	return reply.Value, nil
}

// Promote implements replica.Peer.
func (n *RemoteNode) Promote(classTables []int) error {
	return n.call("Node.Promote", &classTables, &Status{})
}

// Demote implements replica.Peer.
func (n *RemoteNode) Demote(to replica.Role) error {
	return n.call("Node.Demote", &to, &Status{})
}

// DiscardAbove implements replica.Peer. Discarding above the same vector
// twice is a no-op, so the fail-over path may retry through transient
// faults instead of abandoning a reachable peer.
func (n *RemoteNode) DiscardAbove(v vclock.Vector) error {
	return n.callIdem("Node.DiscardAbove", &v, &Status{}, n.opts.CallTimeout)
}

// fetch runs one idempotent read and returns its reply's value.
func fetch[T any](n *RemoteNode, method string, args any) (T, error) {
	var reply Reply[T]
	if err := n.callIdem(method, args, &reply, n.opts.CallTimeout); err != nil {
		var zero T
		return zero, err
	}
	return reply.Value, nil
}

// MaxVersions implements replica.Peer.
func (n *RemoteNode) MaxVersions() (vclock.Vector, error) {
	return fetch[vclock.Vector](n, "Node.MaxVersions", &struct{}{})
}

// StartJoin implements replica.Peer.
func (n *RemoteNode) StartJoin() error {
	return n.call("Node.StartJoin", &struct{}{}, &Status{})
}

// PageVersions implements replica.Peer.
func (n *RemoteNode) PageVersions() (heap.PageVersionMap, error) {
	return fetch[heap.PageVersionMap](n, "Node.PageVersions", &struct{}{})
}

// InstallDelta implements replica.Peer. Installing the same page images
// twice overwrites them with identical content, so replay is safe.
func (n *RemoteNode) InstallDelta(images []page.Image) error {
	return n.callIdem("Node.InstallDelta", &images, &Status{}, n.opts.CallTimeout)
}

// FinishJoin implements replica.Peer.
func (n *RemoteNode) FinishJoin() error {
	return n.call("Node.FinishJoin", &struct{}{}, &Status{})
}

// WarmPages implements replica.Peer. Touching a page twice is idempotent.
func (n *RemoteNode) WarmPages(keys []simdisk.PageKey) error {
	return n.callIdem("Node.WarmPages", &keys, &Status{}, n.opts.CallTimeout)
}

// ResidentPages implements replica.Peer.
func (n *RemoteNode) ResidentPages(limit int) ([]simdisk.PageKey, error) {
	return fetch[[]simdisk.PageKey](n, "Node.ResidentPages", &limit)
}

// Digest implements replica.Peer. A pure read at a pinned version, so it
// retries transient faults; CallTimeout bounds the sweep's wait on a slow
// or partitioned node.
func (n *RemoteNode) Digest(table int, version uint64, withPages bool) (scrub.TableDigest, error) {
	return fetch[scrub.TableDigest](n, "Node.Digest", &DigestArgs{Table: table, Version: version, WithPages: withPages})
}

// PageImages implements replica.Peer. Pure read on the donor, so repair
// and migration survive transient faults via retry.
func (n *RemoteNode) PageImages(table int, pages []page.ID) ([]page.Image, error) {
	return fetch[[]page.Image](n, "Node.PageImages", &PageImagesArgs{Table: table, Pages: pages})
}

// ObsSnapshot fetches the remote node's observability snapshot (not part
// of replica.Peer; the scheduler's aggregation loop type-asserts for it).
func (n *RemoteNode) ObsSnapshot() (obs.NodeSnapshot, error) {
	return fetch[obs.NodeSnapshot](n, "Node.ObsSnapshot", &struct{}{})
}

// FlightDump fetches the remote node's flight-recorder fragment (not part
// of replica.Peer; the flight recorder's dump worker reaches it through the
// flight.Peer interface). A pure read, so transient transport failures
// retry; the CallTimeout deadline bounds the gather even when the peer is
// partitioned away.
func (n *RemoteNode) FlightDump() (flight.NodeDump, error) {
	return fetch[flight.NodeDump](n, "Node.FlightDump", &struct{}{})
}

// SetSubscribers re-points the remote node's replication stream.
func (n *RemoteNode) SetSubscribers(addrs map[string]string) error {
	return n.call("Node.SetSubscribers", &addrs, &Status{})
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
