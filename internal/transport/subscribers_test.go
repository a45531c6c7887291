package transport

import (
	"net"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"dmv/internal/replica"
)

func connCount(s *Server) int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return len(s.conns)
}

func awaitConns(t *testing.T, s *Server, want int, who string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for connCount(s) != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s holds %d connections, want %d", who, connCount(s), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSetSubscribersReusesAndClosesClients rewires a served master ten
// times. The control plane rewires on every slave death, so a rewire must
// not cost a connection (and a reader goroutine) per subscriber:
// unchanged id=addr pairs keep their client, dropped ones are closed, and a
// subscriber that cannot be dialed does not keep the reachable ones from
// being installed.
func TestSetSubscribersReusesAndClosesClients(t *testing.T) {
	master := newTPCNode(t, "m")
	serve := func(id string) *Server {
		srv, err := ServeNode(newTPCNode(t, id), "127.0.0.1:0")
		if err != nil {
			t.Fatalf("serve %s: %v", id, err)
		}
		t.Cleanup(srv.Close)
		return srv
	}
	msrv, err := ServeNode(master, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve master: %v", err)
	}
	defer msrv.Close()
	s1, s2 := serve("s1"), serve("s2")
	rm, err := DialNode("m", msrv.Addr())
	if err != nil {
		t.Fatalf("dial master: %v", err)
	}
	defer rm.Close()

	both := map[string]string{"s1": s1.Addr(), "s2": s2.Addr()}
	if err := rm.SetSubscribers(both); err != nil {
		t.Fatalf("first rewire: %v", err)
	}
	awaitConns(t, s1, 1, "s1")
	awaitConns(t, s2, 1, "s2")
	before := master.Subscribers()
	goroutines := runtime.NumGoroutine()

	for i := 0; i < 10; i++ {
		if err := rm.SetSubscribers(both); err != nil {
			t.Fatalf("rewire %d: %v", i, err)
		}
	}
	if c1, c2 := connCount(s1), connCount(s2); c1 != 1 || c2 != 1 {
		t.Fatalf("after ten identical rewires s1 holds %d and s2 %d connections, want 1 each", c1, c2)
	}
	after := master.Subscribers()
	byID := func(ps []replica.Peer) { sort.Slice(ps, func(i, j int) bool { return ps[i].ID() < ps[j].ID() }) }
	byID(before)
	byID(after)
	if len(after) != 2 || after[0] != before[0] || after[1] != before[1] {
		t.Fatalf("identical rewires replaced the subscriber clients")
	}
	if g := runtime.NumGoroutine(); g > goroutines+2 {
		t.Fatalf("goroutines grew from %d to %d across ten rewires", goroutines, g)
	}

	// Dropping a subscriber closes its connection.
	if err := rm.SetSubscribers(map[string]string{"s1": s1.Addr()}); err != nil {
		t.Fatalf("dropping rewire: %v", err)
	}
	awaitConns(t, s2, 0, "dropped s2")
	awaitConns(t, s1, 1, "kept s1")

	// One unreachable subscriber: the reachable subset is installed and the
	// reply names the rest.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ghost := lis.Addr().String()
	_ = lis.Close()
	err = rm.SetSubscribers(map[string]string{"s1": s1.Addr(), "s2": s2.Addr(), "ghost": ghost})
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("rewire with an unreachable subscriber returned %v, want an error naming ghost", err)
	}
	if got := subscriberIDs(master); !reflect.DeepEqual(got, []string{"s1", "s2"}) {
		t.Fatalf("subscribers after a partial rewire = %v, want [s1 s2]", got)
	}
	awaitConns(t, s1, 1, "s1 after partial rewire")
}
