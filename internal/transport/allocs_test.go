package transport

import (
	"testing"

	"dmv/internal/obs"
	"dmv/internal/value"
)

// TestWireAllocs guards the allocations of the data-path calls over
// loopback TCP, counted process-wide (client, frame codec, call multiplexer
// and the served node together). Each ceiling is the count last measured,
// and ceilings only fall: a change that raises one has made the wire
// costlier. With a gob codec the three counts were 18, 169 and 150.
func TestWireAllocs(t *testing.T) {
	if debugBuild || raceBuild {
		t.Skip("dmvdebug seal checks and race instrumentation change allocation counts")
	}
	master := newTPCNode(t, "m")
	slave := newTPCNode(t, "s")
	if err := master.Promote([]int{0}); err != nil {
		t.Fatalf("promote: %v", err)
	}
	msrv, err := ServeNode(master, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve master: %v", err)
	}
	defer msrv.Close()
	ssrv, err := ServeNode(slave, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve slave: %v", err)
	}
	defer ssrv.Close()
	mPeer, err := DialNode("m", msrv.Addr())
	if err != nil {
		t.Fatalf("dial master: %v", err)
	}
	defer mPeer.Close()
	sPeer, err := DialNode("s", ssrv.Addr())
	if err != nil {
		t.Fatalf("dial slave: %v", err)
	}
	defer sPeer.Close()
	if err := mPeer.SetSubscribers(map[string]string{"s": ssrv.Addr()}); err != nil {
		t.Fatalf("set subscribers: %v", err)
	}
	ver, err := sPeer.MaxVersions()
	if err != nil {
		t.Fatalf("max versions: %v", err)
	}
	readParams := []value.Value{value.NewInt(10)}
	updateParams := []value.Value{value.NewString("wire"), value.NewInt(7)}

	for _, c := range []struct {
		name    string
		run     func() error
		ceiling float64
	}{
		{"ping", sPeer.Ping, 3},
		{"read txn, 10 rows", func() error {
			id, err := sPeer.TxBegin(true, ver, 0, obs.TraceContext{})
			if err != nil {
				return err
			}
			res, err := sPeer.TxExec(id, `SELECT k, v FROM kv WHERE k <= ?`, readParams)
			if err != nil {
				return err
			}
			if len(res.Rows) != 10 {
				t.Fatalf("read returned %d rows, want 10", len(res.Rows))
			}
			_, err = sPeer.TxCommit(id)
			return err
		}, 58},
		{"update txn, one TCP subscriber", func() error {
			id, err := mPeer.TxBegin(false, nil, 0, obs.TraceContext{})
			if err != nil {
				return err
			}
			if _, err := mPeer.TxExec(id, `UPDATE kv SET v = ? WHERE k = ?`, updateParams); err != nil {
				return err
			}
			_, err = mPeer.TxCommit(id)
			return err
		}, 67},
	} {
		var runErr error
		got := testing.AllocsPerRun(200, func() {
			if err := c.run(); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatalf("%s: %v", c.name, runErr)
		}
		t.Logf("%s: %.0f allocs", c.name, got)
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocs per call, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}
