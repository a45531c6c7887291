package transport

import (
	"errors"
	"testing"

	"dmv/internal/obs"
	"dmv/internal/page"
	"dmv/internal/replica"
	"dmv/internal/scrub"
	"dmv/internal/value"
)

// TestScrubRPCRoundTrip drives the anti-entropy RPCs over real TCP: a digest
// taken remotely matches the local one, diverged pages ship as images from
// the master, and InstallDelta over the wire converges the slave.
func TestScrubRPCRoundTrip(t *testing.T) {
	master := newTPCNode(t, "m")
	slave := newTPCNode(t, "s")
	if err := master.Promote([]int{0}); err != nil {
		t.Fatalf("promote: %v", err)
	}
	master.SetSubscribers([]replica.Peer{slave})

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
	sPeer, err := DialNode("s", ssrv.Addr())
	if err != nil {
		t.Fatalf("dial slave: %v", err)
	}

	// A few replicated commits so the digest covers real mutations.
	for i := 0; i < 5; i++ {
		txID, err := master.TxBegin(false, nil, 0, obs.TraceContext{})
		if err != nil {
			t.Fatalf("begin: %v", err)
		}
		if _, err := master.TxExec(txID, `UPDATE kv SET v = ? WHERE k = ?`,
			[]value.Value{value.NewString("x"), value.NewInt(int64(i + 1))}); err != nil {
			t.Fatalf("exec: %v", err)
		}
		if _, err := master.TxCommit(txID); err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
	mv, err := mPeer.MaxVersions()
	if err != nil {
		t.Fatalf("max versions: %v", err)
	}
	v := mv.Get(0)

	md, err := mPeer.Digest(0, v, true)
	if err != nil {
		t.Fatalf("master digest: %v", err)
	}
	sd, err := sPeer.Digest(0, v, true)
	if err != nil {
		t.Fatalf("slave digest: %v", err)
	}
	if md.Root != sd.Root {
		t.Fatalf("healthy replicas disagree: %x vs %x", md.Root, sd.Root)
	}
	if len(md.Pages) == 0 {
		t.Fatal("withPages digest carried no leaves over the wire")
	}
	// A digest pinned below a page's applied version must keep its sentinel
	// error identity across the wire (the sweep's retry signal): commit more,
	// materialize the slave past v with a versioned read, re-pin at v.
	txID, err := master.TxBegin(false, nil, 0, obs.TraceContext{})
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if _, err := master.TxExec(txID, `UPDATE kv SET v = ? WHERE k = 1`,
		[]value.Value{value.NewString("newer")}); err != nil {
		t.Fatalf("exec: %v", err)
	}
	v2, err := master.TxCommit(txID)
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	rID, err := sPeer.TxBegin(true, v2, 0, obs.TraceContext{})
	if err != nil {
		t.Fatalf("read begin: %v", err)
	}
	if _, err := sPeer.TxExec(rID, `SELECT v FROM kv WHERE k = 1`, nil); err != nil {
		t.Fatalf("read exec: %v", err)
	}
	if _, err := sPeer.TxCommit(rID); err != nil {
		t.Fatalf("read commit: %v", err)
	}
	if _, err := sPeer.Digest(0, v, false); !errors.Is(err, page.ErrVersionConflict) {
		t.Fatalf("stale-pin digest err = %v, want ErrVersionConflict", err)
	}
	// Re-pin the rest of the test at the new frontier.
	v = v2.Get(0)
	md, err = mPeer.Digest(0, v, true)
	if err != nil {
		t.Fatalf("master digest at v2: %v", err)
	}

	// Silent corruption on the slave, then the remote repair path.
	tbl, pg, _, err := slave.Engine().CorruptRandomRow(11)
	if err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	if tbl != 0 {
		t.Fatalf("corrupted table %d, want 0", tbl)
	}
	sd2, err := sPeer.Digest(0, v, true)
	if err != nil {
		t.Fatalf("post-corruption digest: %v", err)
	}
	diff := scrub.DiffPages(md, sd2)
	if len(diff) != 1 || diff[0] != pg {
		t.Fatalf("diff = %v, want exactly [%d]", diff, pg)
	}
	imgs, err := mPeer.PageImages(0, diff)
	if err != nil || len(imgs) != 1 {
		t.Fatalf("page images = %d, %v", len(imgs), err)
	}
	if err := sPeer.InstallDelta(imgs); err != nil {
		t.Fatalf("repair: %v", err)
	}
	sd3, err := sPeer.Digest(0, v, false)
	if err != nil {
		t.Fatalf("post-repair digest: %v", err)
	}
	if sd3.Root != md.Root {
		t.Fatalf("repair over the wire did not converge: %x vs %x", sd3.Root, md.Root)
	}
}
