package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"dmv/internal/obs"
	"dmv/internal/replica"
	"dmv/internal/simdisk"
	"dmv/internal/value"
)

// stalledListener accepts connections and then sits on them forever: the
// TCP handshake completes (the peer looks alive to a dialer) but no call is
// ever answered — the canonical gray failure a client without deadlines
// hangs on.
func stalledListener(t *testing.T) net.Listener {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns []net.Conn
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			<-done // hold the connection open, answer nothing
		}
	}()
	t.Cleanup(func() {
		close(done)
		lis.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	})
	return lis
}

// TestClientOptionsAlwaysBounded: a negative deadline or retry budget is
// not a way to run unbounded; it takes the default, like zero. Only a
// negative RetryAttempts keeps a meaning of its own (no retries).
func TestClientOptionsAlwaysBounded(t *testing.T) {
	for _, c := range []struct {
		name string
		in   ClientOptions
		want func(ClientOptions) bool
	}{
		{"CallTimeout", ClientOptions{CallTimeout: -1}, func(o ClientOptions) bool { return o.CallTimeout == DefaultCallTimeout }},
		{"PingTimeout", ClientOptions{PingTimeout: -time.Second}, func(o ClientOptions) bool { return o.PingTimeout == DefaultPingTimeout }},
		{"RetryBudget", ClientOptions{RetryBudget: -1}, func(o ClientOptions) bool { return o.RetryBudget == DefaultRetryBudget }},
		{"RetryAttempts", ClientOptions{RetryAttempts: -1}, func(o ClientOptions) bool { return o.RetryAttempts == 0 }},
	} {
		if got := c.in.withDefaults(); !c.want(got) {
			t.Errorf("%s: withDefaults(%+v) = %+v", c.name, c.in, got)
		}
	}
}

// TestStalledPeerDeadline is the acceptance check that no transport RPC
// can outlive its configured deadline: every call that goes on the wire
// (the heartbeat, an update begin, a read's first statement, which carries
// its begin) against a peer that accepts but never answers must fail with
// ErrPeerTimeout in under twice the deadline. A read begin sends nothing,
// so it returns at once.
func TestStalledPeerDeadline(t *testing.T) {
	lis := stalledListener(t)

	const deadline = 200 * time.Millisecond
	reg := obs.New()
	rn, err := DialNodeOpts("stalled", lis.Addr().String(), ClientOptions{
		CallTimeout:   deadline,
		PingTimeout:   deadline,
		RetryAttempts: -1, // isolate the single-attempt bound
		Obs:           reg,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}

	start := time.Now()
	err = rn.Ping()
	elapsed := time.Since(start)
	if !errors.Is(err, replica.ErrPeerTimeout) {
		t.Fatalf("Ping against stalled peer: err=%v, want ErrPeerTimeout", err)
	}
	if elapsed >= 2*deadline {
		t.Fatalf("Ping took %v, want < 2x the %v deadline", elapsed, deadline)
	}

	// Non-idempotent path (single attempt, CallTimeout).
	start = time.Now()
	_, err = rn.TxBegin(false, nil, 0, obs.TraceContext{})
	elapsed = time.Since(start)
	if !errors.Is(err, replica.ErrPeerTimeout) {
		t.Fatalf("update TxBegin against stalled peer: err=%v, want ErrPeerTimeout", err)
	}
	if elapsed >= 2*deadline {
		t.Fatalf("update TxBegin took %v, want < 2x the %v deadline", elapsed, deadline)
	}

	calls := reg.Snapshot().Histograms[obs.TransportRPCUS].Count
	id, err := rn.TxBegin(true, nil, 0, obs.TraceContext{})
	if err != nil {
		t.Fatalf("read TxBegin against stalled peer: %v, want a local handle", err)
	}
	if got := reg.Snapshot().Histograms[obs.TransportRPCUS].Count; got != calls {
		t.Fatalf("read TxBegin made %d calls, want none", got-calls)
	}
	start = time.Now()
	_, err = rn.TxExec(id, `SELECT 1`, nil)
	elapsed = time.Since(start)
	if !errors.Is(err, replica.ErrPeerTimeout) {
		t.Fatalf("first read TxExec against stalled peer: err=%v, want ErrPeerTimeout", err)
	}
	if elapsed >= 2*deadline {
		t.Fatalf("first read TxExec took %v, want < 2x the %v deadline", elapsed, deadline)
	}

	if got := reg.Snapshot().Counters[obs.TransportRPCTimeouts]; got < 2 {
		t.Fatalf("timeout counter = %d, want >= 2", got)
	}
}

// TestRetryBudgetExhausted: attempt counts alone are not a bound — against
// a peer that times out every attempt, a generous attempt limit would burn
// attempts x timeout of wall clock. The elapsed-time retry budget must cut
// the loop off near the budget, well before the attempts run out, and count
// the exhaustion on its metric.
func TestRetryBudgetExhausted(t *testing.T) {
	lis := stalledListener(t)

	const budget = 250 * time.Millisecond
	reg := obs.New()
	rn, err := DialNodeOpts("stalled", lis.Addr().String(), ClientOptions{
		PingTimeout:   40 * time.Millisecond,
		CallTimeout:   40 * time.Millisecond,
		RetryAttempts: 1000, // would be ~40s of retries without the budget
		RetryBudget:   budget,
		Obs:           reg,
		Seed:          7,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}

	start := time.Now()
	err = rn.Ping()
	elapsed := time.Since(start)
	if !errors.Is(err, replica.ErrPeerTimeout) {
		t.Fatalf("Ping against stalled peer: err=%v, want ErrPeerTimeout", err)
	}
	// The loop may finish the attempt in flight when the budget trips, so
	// allow one extra attempt's timeout on top of the budget itself.
	if elapsed > 3*budget {
		t.Fatalf("Ping took %v, want near the %v retry budget", elapsed, budget)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[obs.TransportRetryBudgetExhausted]; got < 1 {
		t.Fatalf("budget-exhausted counter = %d, want >= 1", got)
	}
	if got := snap.Counters[obs.TransportRPCRetries]; got < 1 {
		t.Fatalf("retry counter = %d, want >= 1 (budget must trip after retrying, not instead of it)", got)
	}
}

// dropFirstListener kills the first accepted connection before the server
// can serve it, then behaves normally — the transient conn reset of the
// regression: a client that never re-dials is permanently dead after this.
type dropFirstListener struct {
	net.Listener
	mu      sync.Mutex
	dropped bool // guarded by mu
}

func (l *dropFirstListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	first := !l.dropped
	l.dropped = true
	l.mu.Unlock()
	if first {
		_ = c.Close()
	}
	return c, nil
}

// TestReconnectAfterConnDrop: one transient connection reset must not
// permanently kill an otherwise healthy peer — the idempotent retry path
// re-dials with backoff and the call succeeds on the fresh connection.
func TestReconnectAfterConnDrop(t *testing.T) {
	node := newTPCNode(t, "n1")
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeNodeListener(node, &dropFirstListener{Listener: raw}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := obs.New()
	rn, err := DialNodeOpts("n1", srv.Addr(), ClientOptions{
		CallTimeout: time.Second,
		Obs:         reg,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	// The first connection is already doomed; the first call fails in
	// flight and the retry loop must recover on a re-dialed client.
	if _, err := rn.MaxVersions(); err != nil {
		t.Fatalf("MaxVersions after dropped first conn: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.TransportRedials] < 1 {
		t.Fatalf("redial counter = %d, want >= 1", snap.Counters[obs.TransportRedials])
	}
	if snap.Counters[obs.TransportRPCRetries] < 1 {
		t.Fatalf("retry counter = %d, want >= 1", snap.Counters[obs.TransportRPCRetries])
	}

	// The recovered client keeps working for non-idempotent traffic too.
	if err := rn.Ping(); err != nil {
		t.Fatalf("Ping on recovered client: %v", err)
	}
}

// TestTimedOutCallKeepsConnection: a call that times out after its request
// went out costs only that call. Its late reply is discarded, and the calls
// after it run on the same connection: no re-dial.
func TestTimedOutCallKeepsConnection(t *testing.T) {
	node := newTPCNode(t, "n")
	sreg := obs.New()
	srv, err := ServeNodeObs(node, "127.0.0.1:0", sreg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := obs.New()
	rn, err := DialNodeOpts("n", srv.Addr(), ClientOptions{
		PingTimeout:   100 * time.Millisecond,
		RetryAttempts: -1,
		Obs:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()

	bytesOut := func() int64 { return sreg.Snapshot().Counters[obs.TransportBytesOut] }
	before := bytesOut()
	node.SetStalled(true)
	if err := rn.Ping(); !errors.Is(err, replica.ErrPeerTimeout) {
		node.SetStalled(false)
		t.Fatalf("Ping against a stalled node = %v, want ErrPeerTimeout", err)
	}
	node.SetStalled(false)
	if !eventually(5*time.Second, func() bool { return bytesOut() > before }) {
		t.Fatal("the stalled Ping was never answered")
	}
	if err := rn.Ping(); err != nil {
		t.Fatalf("Ping after the late reply: %v", err)
	}
	if _, err := rn.MaxVersions(); err != nil {
		t.Fatalf("MaxVersions after the late reply: %v", err)
	}
	if got := reg.Snapshot().Counters[obs.TransportRedials]; got != 0 {
		t.Fatalf("redials = %d, want 0: a timed-out call must not cost the connection", got)
	}
}

// TestLateRepliesNeverCross: concurrent calls on one client, with deadlines
// drawn around the handler's latency, each return their own reply or
// ErrPeerTimeout. A late reply is never taken for another call's, and the
// connection outlives every timeout.
func TestLateRepliesNeverCross(t *testing.T) {
	const (
		service = 20 * time.Millisecond // each statement's handler latency
		workers = 6
		calls   = 30
	)
	// Enough execution slots that a late call never queues the next one.
	node := newTPCNodeWith(t, replica.Options{ID: "n", Disk: simdisk.New(simdisk.CostModel{Stmt: service, UpdateStmt: service, CPUs: 64}, 0)})
	reg := obs.New()
	_, rn := serveDial(t, node, ClientOptions{Obs: reg})
	ver, err := rn.MaxVersions()
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	counts := map[bool]int{} // timed out -> calls
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		rng := rand.New(rand.NewSource(int64(w + 1)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, err := node.TxBegin(true, ver, 0, obs.TraceContext{})
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < calls; i++ {
				k := int64(1 + rng.Intn(20))
				d := service/2 + time.Duration(rng.Int63n(int64(2*service)))
				var reply ExecReply
				args := ExecArgs{TxID: id, Stmt: `SELECT k FROM kv WHERE k = ?`, Params: []value.Value{value.NewInt(k)}}
				err := rn.callOnce("Node.TxExec", &args, &reply, d)
				if errors.Is(err, replica.ErrPeerTimeout) {
					mu.Lock()
					counts[true]++
					mu.Unlock()
					continue
				}
				if err == nil {
					err = reply.Err()
				}
				if err != nil {
					errs <- err
					return
				}
				if r := reply.Result; r == nil || len(r.Rows) != 1 || !value.Equal(r.Rows[0][0], value.NewInt(k)) {
					errs <- fmt.Errorf("read of k=%d answered %+v", k, r)
					return
				}
				mu.Lock()
				counts[false]++
				mu.Unlock()
			}
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(time.Minute):
		t.Fatal("calls still running after a minute: a reply or a deadline was lost")
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	t.Logf("%d replies, %d timeouts", counts[false], counts[true])
	if counts[true] == 0 || counts[false] == 0 {
		t.Fatalf("%d replies and %d timeouts: the deadlines must straddle the latency", counts[false], counts[true])
	}
	if got := reg.Snapshot().Counters[obs.TransportRedials]; got != 0 {
		t.Fatalf("redials = %d, want 0", got)
	}
}
