// Package faultnet is a deterministic network fault-injection plane for
// tests. It wraps real TCP listeners and dialers so a multi-node cluster
// talking over genuine sockets can be partitioned, delayed, or reset from
// a test script, reproducibly from a single seed.
//
// Endpoints are named ("m", "s0", "sched"). A process listens through
// Network.Listen(name, addr) and dials through the function returned by
// Network.Dialer(name); the Network maps the dialed address back to the
// listener's name, so every connection knows its (from, to) route. Faults
// are per-directed-route rules:
//
//	nw.Partition("sched", "m")   // symmetric: no bytes either way
//	nw.PartitionOneWay("m", "s0")// m's sends to s0 stall; replies still flow
//	nw.Isolate("m")              // every route touching m is cut
//	nw.SetDelay("sched", "s1", 5*time.Millisecond, time.Millisecond)
//	nw.SetDrop("m", "s1", 0.01)  // seeded: each delivery may blackhole the conn
//	nw.ResetLink("sched", "m")   // mid-stream RST: both ends see a conn error
//	nw.Heal("sched", "m") / nw.HealAll()
//
// Semantics mirror a real network as seen by a stream transport: a cut
// route does not error — bytes simply stop moving until the route heals or
// the connection is closed, which is exactly the stall that RPC deadlines
// must bound. A drop decision blackholes the whole connection (a lost TCP
// segment stalls the stream; retransmits into the fault keep failing).
// Dialing across a cut fails fast with a timeout-flavored net.Error, the
// moral equivalent of a SYN timing out.
//
// Determinism: scripted faults (Partition/Heal/...) are exact, so a test
// that drives them at fixed points produces the same observable event
// order every run; the only randomness — jitter spread and drop decisions
// — comes from the Network's seeded generator.
package faultnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// route is one direction of a link: bytes flowing from -> to.
type route struct{ from, to string }

// Rule is the fault policy for one directed route. The zero Rule is a
// healthy link.
type Rule struct {
	Cut    bool          // stall all bytes until healed
	Drop   float64       // per-delivery probability of blackholing the conn
	Delay  time.Duration // fixed one-way latency
	Jitter time.Duration // uniform extra latency in [0, Jitter)
}

// Network owns the endpoint registry and the per-route fault rules.
type Network struct {
	mu    sync.Mutex
	rng   *rand.Rand        // guarded by mu; sole randomness source
	names map[string]string // guarded by mu; listen addr -> endpoint name
	rules map[route]Rule    // guarded by mu
	cut   map[string]bool   // guarded by mu; isolated endpoints
	conns map[*Conn]bool    // guarded by mu; live wrapped conns
	// change is closed and replaced on every rule mutation so conns
	// blocked on a cut route re-evaluate. Guarded by mu.
	change chan struct{}
}

// New returns a Network whose jitter and drop decisions derive only from
// seed.
func New(seed int64) *Network {
	return &Network{
		rng:    rand.New(rand.NewSource(seed)),
		names:  make(map[string]string),
		rules:  make(map[route]Rule),
		cut:    make(map[string]bool),
		conns:  make(map[*Conn]bool),
		change: make(chan struct{}),
	}
}

// errPartitioned is returned from dials across a cut route. It reports
// Timeout() true so callers treat it like a SYN that never completed.
type timeoutError struct{ msg string }

func (e *timeoutError) Error() string   { return e.msg }
func (e *timeoutError) Timeout() bool   { return true }
func (e *timeoutError) Temporary() bool { return true }

// ErrReset is the error surfaced by reads and writes on a connection torn
// down by ResetLink or a drop decision.
var ErrReset = errors.New("faultnet: connection reset by fault injection")

// Listen opens a real TCP listener for the named endpoint and registers
// its address so dials can be attributed to the route.
func (nw *Network) Listen(name, addr string) (net.Listener, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	nw.mu.Lock()
	nw.names[lis.Addr().String()] = name
	nw.mu.Unlock()
	return lis, nil
}

// Dialer returns a dial function attributed to the named endpoint,
// suitable for transport.ClientOptions.Dial. Connections it produces are
// policed on both directions of their route: writes under the from->to
// rule, reads under the to->from rule (the server side stays unwrapped,
// so each direction is applied exactly once).
func (nw *Network) Dialer(from string) func(network, addr string) (net.Conn, error) {
	return func(network, addr string) (net.Conn, error) {
		nw.mu.Lock()
		to, known := nw.names[addr]
		blocked := known && (nw.ruleLocked(from, to).Cut || nw.ruleLocked(to, from).Cut)
		nw.mu.Unlock()
		if blocked {
			return nil, &net.OpError{Op: "dial", Net: network, Err: &timeoutError{
				msg: fmt.Sprintf("faultnet: %s -> %s partitioned", from, to),
			}}
		}
		raw, err := net.DialTimeout(network, addr, 2*time.Second)
		if err != nil {
			return nil, err
		}
		if !known {
			// Unregistered destination (e.g. an external service in the
			// same test): pass through unpoliced.
			return raw, nil
		}
		c := &Conn{Conn: raw, nw: nw, from: from, to: to, closed: make(chan struct{})}
		nw.mu.Lock()
		nw.conns[c] = true
		nw.mu.Unlock()
		return c, nil
	}
}

// ruleLocked resolves the effective rule for a directed route, folding in
// endpoint isolation. Callers hold nw.mu.
func (nw *Network) ruleLocked(from, to string) Rule {
	r := nw.rules[route{from, to}]
	if nw.cut[from] || nw.cut[to] {
		r.Cut = true
	}
	return r
}

// bumpLocked wakes every conn blocked on a cut route so it re-evaluates
// the rules. Callers hold nw.mu.
func (nw *Network) bumpLocked() {
	close(nw.change)
	nw.change = make(chan struct{})
}

// Partition cuts both directions between a and b.
func (nw *Network) Partition(a, b string) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	ra, rb := nw.rules[route{a, b}], nw.rules[route{b, a}]
	ra.Cut, rb.Cut = true, true
	nw.rules[route{a, b}], nw.rules[route{b, a}] = ra, rb
	nw.bumpLocked()
}

// PartitionOneWay cuts only the from->to direction.
func (nw *Network) PartitionOneWay(from, to string) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	r := nw.rules[route{from, to}]
	r.Cut = true
	nw.rules[route{from, to}] = r
	nw.bumpLocked()
}

// Isolate cuts every route touching the named endpoint.
func (nw *Network) Isolate(name string) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.cut[name] = true
	nw.bumpLocked()
}

// Rejoin undoes Isolate.
func (nw *Network) Rejoin(name string) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	delete(nw.cut, name)
	nw.bumpLocked()
}

// Heal clears the cut in both directions between a and b (other rule
// fields are preserved).
func (nw *Network) Heal(a, b string) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	ra, rb := nw.rules[route{a, b}], nw.rules[route{b, a}]
	ra.Cut, rb.Cut = false, false
	nw.rules[route{a, b}], nw.rules[route{b, a}] = ra, rb
	nw.bumpLocked()
}

// HealAll removes every rule and isolation.
func (nw *Network) HealAll() {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.rules = make(map[route]Rule)
	nw.cut = make(map[string]bool)
	nw.bumpLocked()
}

// SetDelay adds one-way latency (plus seeded uniform jitter) to from->to.
func (nw *Network) SetDelay(from, to string, delay, jitter time.Duration) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	r := nw.rules[route{from, to}]
	r.Delay, r.Jitter = delay, jitter
	nw.rules[route{from, to}] = r
	nw.bumpLocked()
}

// SetDrop makes each from->to delivery blackhole the connection with
// probability p, decided by the seeded generator.
func (nw *Network) SetDrop(from, to string, p float64) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	r := nw.rules[route{from, to}]
	r.Drop = p
	nw.rules[route{from, to}] = r
	nw.bumpLocked()
}

// ResetLink closes every live connection between a and b mid-stream, in
// either direction; both ends observe a hard connection error, unlike a
// partition, which only stalls.
func (nw *Network) ResetLink(a, b string) {
	nw.mu.Lock()
	var victims []*Conn
	for c := range nw.conns {
		if (c.from == a && c.to == b) || (c.from == b && c.to == a) {
			victims = append(victims, c)
		}
	}
	nw.mu.Unlock()
	for _, c := range victims {
		c.reset()
	}
}

// Conn is one policed client-side connection.
type Conn struct {
	net.Conn
	nw        *Network
	from, to  string
	closeOnce sync.Once
	closed    chan struct{} // closed exactly once by Close/reset

	mu       sync.Mutex // guards wasReset and dead below
	wasReset bool       // torn down by fault injection, not by the caller
	dead     bool       // blackholed by a drop decision: stalls until closed
}

// Close releases the connection and wakes any operation stalled in a cut.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.nw.mu.Lock()
		delete(c.nw.conns, c)
		c.nw.mu.Unlock()
	})
	return c.Conn.Close()
}

func (c *Conn) reset() {
	c.mu.Lock()
	c.wasReset = true
	c.mu.Unlock()
	_ = c.Close()
}

// Write applies the from->to rule, then forwards to the real socket.
func (c *Conn) Write(p []byte) (int, error) {
	if err := c.gate(c.from, c.to, true); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

// Read forwards to the real socket, then applies the to->from rule before
// releasing the bytes: data that "arrived" during a cut is held until the
// route heals, like a queue in a partitioned switch.
func (c *Conn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil {
		c.mu.Lock()
		wasReset := c.wasReset
		c.mu.Unlock()
		if wasReset {
			return 0, ErrReset
		}
		return n, err
	}
	if gerr := c.gate(c.to, c.from, false); gerr != nil {
		return 0, gerr
	}
	return n, nil
}

// gate blocks while the directed route is cut or the conn is blackholed,
// rolls the drop dice, and charges latency. The drop dice roll only for a
// send, so one delivery is judged once.
func (c *Conn) gate(from, to string, send bool) error {
	for {
		c.nw.mu.Lock()
		c.mu.Lock()
		dead := c.dead
		c.mu.Unlock()
		r := c.nw.ruleLocked(from, to)
		if !r.Cut && !dead {
			if send && r.Drop > 0 && c.nw.rng.Float64() < r.Drop {
				// Lost segment: the stream stalls from here on.
				c.mu.Lock()
				c.dead = true
				c.mu.Unlock()
				c.nw.mu.Unlock()
				continue
			}
			sleep := r.Delay
			if r.Jitter > 0 {
				sleep += time.Duration(c.nw.rng.Int63n(int64(r.Jitter)))
			}
			c.nw.mu.Unlock()
			if sleep > 0 {
				t := time.NewTimer(sleep)
				select {
				case <-t.C:
				case <-c.closed:
					t.Stop()
					return c.closeErr()
				}
			}
			return nil
		}
		ch := c.nw.change
		c.nw.mu.Unlock()
		select {
		case <-ch: // rules changed; re-evaluate
		case <-c.closed:
			return c.closeErr()
		}
	}
}

func (c *Conn) closeErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wasReset {
		return ErrReset
	}
	return net.ErrClosed
}
