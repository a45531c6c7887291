package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/obs/flight"
	"dmv/internal/replica"
)

// flush waits until the worker has run every action enqueued before it.
func flush(t *testing.T, p *Plane) {
	t.Helper()
	if err := p.do(func() error { return nil }); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

// park blocks the worker on an action until the returned release runs
// (release is idempotent and also runs at cleanup, before the plane's
// Close, which waits for the worker).
func park(t *testing.T, p *Plane) (release func()) {
	t.Helper()
	parked, unpark := make(chan struct{}), make(chan struct{})
	release = sync.OnceFunc(func() { close(unpark) })
	t.Cleanup(release)
	p.enqueue(func() {
		close(parked)
		<-unpark
	})
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the worker never ran the parking action")
	}
	return release
}

// eventLog renders the events of the given kinds as "kind node".
func eventLog(evs []Event, kinds ...EventKind) []string {
	var out []string
	for _, ev := range evs {
		for _, k := range kinds {
			if ev.Kind == k {
				out = append(out, ev.Kind+" "+ev.Node)
			}
		}
	}
	return out
}

// TestDecisionOrderIsTimelineOrder decides a death of slave1, a restart of
// slave1 and a suspicion of slave0, in that order, with no detector running:
// the timeline and the flight ring list them in that order.
func TestDecisionOrderIsTimelineOrder(t *testing.T) {
	rec := flight.New(flight.Options{Node: "sched"})
	defer rec.Close()
	c := newTestCluster(t, Config{Slaves: 2, HeartbeatInterval: time.Hour, Flight: rec})
	if err := c.Kill("slave1"); err != nil {
		t.Fatal(err)
	}
	c.ReportFailure("slave1")
	if err := c.Restart("slave1"); err != nil {
		t.Fatalf("restart: %v", err)
	}
	for i := 0; i < c.cfg.SuspectAfter; i++ {
		c.ReportSuspect("slave0")
	}
	flush(t, c.Plane)

	got := fmt.Sprint(eventLog(c.Events(), EventNodeFailed, EventNodeRestarted, EventNodeSuspect))
	if want := "[node-failed slave1 node-restarted slave1 node-suspect slave0]"; got != want {
		t.Errorf("timeline = %s, want %s", got, want)
	}
	var ring []string
	for _, e := range rec.Entries() {
		if e.Kind == flight.KindHealth {
			ring = append(ring, e.Health.Node+" "+e.Health.From+"->"+e.Health.To)
		}
	}
	if got, want := fmt.Sprint(ring), "[slave1 healthy->dead slave0 healthy->suspect]"; got != want {
		t.Errorf("flight ring = %s, want %s", got, want)
	}
}

// TestOneSparePerActivation decides a slave's death and an overload
// activation back to back on a tier with two spares: each activation takes
// its own spare, so both become slaves, each activated once.
func TestOneSparePerActivation(t *testing.T) {
	c := newTestCluster(t, Config{Slaves: 2, Spares: 2, HeartbeatInterval: time.Hour})
	if err := c.Kill("slave0"); err != nil {
		t.Fatal(err)
	}
	c.ReportFailure("slave0")
	c.overloaded()
	flush(t, c.Plane)

	got := fmt.Sprint(eventLog(c.Events(), EventSpareActivated))
	if want := "[spare-activated spare0 spare-activated spare1]"; got != want {
		t.Errorf("activations = %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(c.Scheduler().Slaves()), "[slave1 spare0 spare1]"; got != want {
		t.Errorf("slaves = %s, want %s", got, want)
	}
	if spares := c.Scheduler().Spares(); len(spares) != 0 {
		t.Errorf("spares = %v, want none", spares)
	}
}

// pingCounter is a plane member that counts the probes it is sent.
type pingCounter struct {
	*replica.Node
	pings atomic.Int32
}

func (c *pingCounter) Ping() error {
	c.pings.Add(1)
	return c.Node.Ping()
}

// TestReportStormIsOneConfirm: a hundred concurrent failure reports about
// a killed slave, made while the worker is busy, all return at once and
// coalesce into one pending report, which confirms the death with one
// probe and fails over once.
func TestReportStormIsOneConfirm(t *testing.T) {
	var peers []replica.Peer
	for _, id := range []string{"master0", "slave0", "slave1"} {
		eng := heap.NewEngine(heap.Options{NodeID: id})
		for _, ddl := range testDDL {
			if err := exec.ExecDDL(eng, ddl); err != nil {
				t.Fatal(err)
			}
		}
		if err := testLoad(10)(eng); err != nil {
			t.Fatal(err)
		}
		peers = append(peers, replica.NewNode(replica.Options{ID: id, Engine: eng}))
	}
	victim := &pingCounter{Node: peers[2].(*replica.Node)}
	p, err := Assemble(Config{HeartbeatInterval: time.Hour, SchemaDDL: testDDL},
		Members{Masters: peers[:1], Slaves: []replica.Peer{peers[1], victim}},
		func(master replica.Peer, subs []replica.Peer) error {
			master.(*replica.Node).SetSubscribers(subs)
			return nil
		},
		func(n replica.Peer) bool { return n.(interface{ Alive() bool }).Alive() })
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	t.Cleanup(p.Close)
	release := park(t, p)
	victim.Kill()

	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.ReportFailure("slave1")
		}()
	}
	returned := make(chan struct{})
	go func() {
		wg.Wait()
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("failure reports blocked behind the busy worker")
	}
	p.q.mu.Lock()
	pending := len(p.q.queue)
	p.q.mu.Unlock()
	if pending != 1 {
		t.Errorf("%d actions pending after 100 reports, want 1", pending)
	}
	release()
	flush(t, p)

	if n := victim.pings.Load(); n != 1 {
		t.Errorf("%d confirm pings, want 1", n)
	}
	got := fmt.Sprint(eventLog(p.Events(), EventNodeFailed, EventRecoveryDone))
	if want := "[node-failed slave1 recovery-done slave1]"; got != want {
		t.Errorf("timeline = %s, want %s", got, want)
	}
}

// TestCloseLeavesNothingRunning: a failure report still queued when Close
// begins never runs, and a Restart after Close returns ErrClosed at once.
func TestCloseLeavesNothingRunning(t *testing.T) {
	c := newTestCluster(t, Config{Slaves: 2, HeartbeatInterval: time.Hour})
	release := park(t, c.Plane)
	if err := c.Kill("slave1"); err != nil {
		t.Fatal(err)
	}
	c.ReportFailure("slave1")
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	waitFor(t, 5*time.Second, func() bool {
		c.q.mu.Lock()
		defer c.q.mu.Unlock()
		return c.q.closed
	}, "Close to refuse actions")
	release()
	<-closed

	time.Sleep(20 * time.Millisecond)
	if evs := eventLog(c.Events(), EventNodeFailed, EventRecoveryDone); len(evs) != 0 {
		t.Errorf("a report queued before Close ran: %v", evs)
	}
	if h := c.Health("slave1"); h != healthy {
		t.Errorf("slave1 is %s, want healthy (its report never ran)", h)
	}
	if err := c.Restart("slave1"); !errors.Is(err, ErrClosed) {
		t.Errorf("restart after Close = %v, want ErrClosed", err)
	}
}
