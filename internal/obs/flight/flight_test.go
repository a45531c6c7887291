package flight

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmv/internal/obs"
)

// fakeClock is a deterministic, concurrency-safe clock: every read advances
// one microsecond, so timestamps are unique and runs are reproducible.
type fakeClock struct{ n int64 }

func (c *fakeClock) Now() time.Time {
	return time.Unix(0, atomic.AddInt64(&c.n, 1000))
}

// TestRingWraparoundConcurrent hammers the ring from many goroutines and
// checks the wrap bookkeeping: nothing lost silently, retention exactly the
// last ringCap entries in sequence order.
func TestRingWraparoundConcurrent(t *testing.T) {
	t.Parallel()
	const (
		cap     = 64
		writers = 16
		each    = 200
	)
	reg := obs.New()
	r := New(Options{Node: "n0", Reg: reg, RingCap: cap, Now: (&fakeClock{}).Now})
	defer r.Close()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.RecordHealth(fmt.Sprintf("peer%d", w), "healthy", "suspect")
			}
		}(w)
	}
	wg.Wait()

	total, dropped := r.Stats()
	if want := uint64(writers * each); total != want {
		t.Fatalf("total = %d, want %d", total, want)
	}
	if want := uint64(writers*each - cap); dropped != want {
		t.Fatalf("dropped = %d, want %d", dropped, want)
	}
	entries := r.Entries()
	if len(entries) != cap {
		t.Fatalf("retained %d entries, want %d", len(entries), cap)
	}
	// Seq is assigned under the same mutex as insertion, so the retained
	// window is the contiguous top of the sequence space, oldest first.
	for i, e := range entries {
		if want := uint64(writers*each-cap) + uint64(i); e.Seq != want {
			t.Fatalf("entry %d: seq = %d, want %d", i, e.Seq, want)
		}
	}
	if got := reg.Snapshot().Counter(obs.Labeled(obs.ObsRingDropped, "ring", "flight")); got != int64(dropped) {
		t.Fatalf("drop counter = %d, want %d", got, dropped)
	}
}

// scriptRecorder replays one fixed sequence of ring activity and a trigger,
// returning the dump delivered via OnDump.
func scriptRecorder(t *testing.T, dir string) Dump {
	t.Helper()
	reg := obs.New()
	dumpCh := make(chan Dump, 1)
	r := New(Options{
		Node: "sched", Reg: reg, Dir: dir, RingCap: 32,
		Now:    (&fakeClock{}).Now,
		OnDump: func(_ string, d Dump) { dumpCh <- d },
	})
	reg.Counter(obs.FlightTriggers) // ensure a stable metric set
	r.RecordHealth("m", "healthy", "suspect")
	r.RecordEvent(obs.Event{Time: time.Unix(0, 1), Kind: "node-failed", Node: "m"})
	r.RecordSpan(obs.Span{TraceID: 7, SpanID: 9, Kind: "update", Node: "sched",
		Start: time.Unix(0, 2), Outcome: "commit", Total: 5 * time.Millisecond})
	r.RecordHealth("m", "suspect", "dead")
	r.Trigger(CauseFailover, "m", "node confirmed dead")
	r.Close()
	select {
	case d := <-dumpCh:
		return d
	default:
		t.Fatal("no dump produced")
		return Dump{}
	}
}

// TestDumpDeterminism runs the same scripted schedule twice and requires
// byte-identical dumps modulo Meta.
func TestDumpDeterminism(t *testing.T) {
	t.Parallel()
	d1 := StripMeta(scriptRecorder(t, t.TempDir()))
	d2 := StripMeta(scriptRecorder(t, t.TempDir()))
	b1, err := Marshal(d1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Marshal(d2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("dumps differ across identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", b1, b2)
	}
	if d1.Trigger.Cause != CauseFailover || d1.Trigger.Node != "m" {
		t.Fatalf("trigger = %+v", d1.Trigger)
	}
}

// TestDumpWrittenAndParses checks the on-disk artifact: durably written,
// schema-checked by Parse, filename carries the cause.
func TestDumpWrittenAndParses(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	d := scriptRecorder(t, dir)
	if d.Schema != SchemaVersion {
		t.Fatalf("schema = %d", d.Schema)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "flight-*-"+CauseFailover+".json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("dump files = %v, err = %v", matches, err)
	}
	blob, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Trigger.Cause != CauseFailover {
		t.Fatalf("parsed trigger = %+v", parsed.Trigger)
	}
	if len(parsed.Nodes) != 1 || parsed.Nodes[0].Node != "sched" {
		t.Fatalf("nodes = %+v", parsed.Nodes)
	}
}

type fakePeer struct {
	id  string
	nd  NodeDump
	err error
}

func (p fakePeer) ID() string                    { return p.id }
func (p fakePeer) FlightDump() (NodeDump, error) { return p.nd, p.err }

// TestPeerGather checks dump assembly over a peer set: reachable rings are
// merged (sorted, deduped), unreachable peers land in Meta.PeerErrors
// instead of failing the dump.
func TestPeerGather(t *testing.T) {
	t.Parallel()
	reg := obs.New()
	dumpCh := make(chan Dump, 1)
	r := New(Options{
		Node: "sched", Reg: reg, Now: (&fakeClock{}).Now,
		OnDump: func(_ string, d Dump) { dumpCh <- d },
	})
	r.SetPeers([]Peer{
		fakePeer{id: "s1", nd: NodeDump{Node: "s1"}},
		fakePeer{id: "m", err: errors.New("connection refused")},
		fakePeer{id: "s1-dup", nd: NodeDump{Node: "s1"}}, // deduped by node id
	})
	r.Trigger(CauseSuspicion, "m", "probe misses")
	r.Close()
	d := <-dumpCh
	if len(d.Nodes) != 2 || d.Nodes[0].Node != "s1" || d.Nodes[1].Node != "sched" {
		t.Fatalf("nodes = %+v", d.Nodes)
	}
	if len(d.Meta.PeerErrors) != 1 || d.Meta.PeerErrors[0] != "m: connection refused" {
		t.Fatalf("peer errors = %v", d.Meta.PeerErrors)
	}
	if got := reg.Snapshot().Counter(obs.FlightPeerErrors); got != 1 {
		t.Fatalf("peer error counter = %d", got)
	}
}

// TestCooldownSuppression: a second trigger of the same cause inside the
// cooldown window is counted as suppressed and writes no dump.
func TestCooldownSuppression(t *testing.T) {
	t.Parallel()
	reg := obs.New()
	var dumps atomic.Int64
	r := New(Options{
		Node: "sched", Reg: reg, Now: (&fakeClock{}).Now,
		Cooldown: time.Hour,
		OnDump:   func(string, Dump) { dumps.Add(1) },
	})
	r.Trigger(CauseWALFatal, "", "fsync failed")
	r.Trigger(CauseWALFatal, "", "fsync failed again")
	r.Close()
	if got := dumps.Load(); got != 1 {
		t.Fatalf("dumps = %d, want 1 (cooldown)", got)
	}
	snap := reg.Snapshot()
	if got := snap.Counter(obs.FlightSuppressed); got != 1 {
		t.Fatalf("suppressed counter = %d, want 1", got)
	}
	// A different cause is admitted independently.
	if got := snap.Counter(obs.FlightTriggers); got != 2 {
		t.Fatalf("triggers counter = %d, want 2", got)
	}
}

// TestRegistryAutoCapture: spans finished on the registry tracer and events
// recorded on its timeline shadow into the ring without explicit wiring.
func TestRegistryAutoCapture(t *testing.T) {
	t.Parallel()
	reg := obs.New()
	r := New(Options{Node: "n0", Reg: reg, Now: (&fakeClock{}).Now})
	defer r.Close()
	sp := reg.Tracer().Begin("update")
	sp.Finish("commit", "")
	reg.Timeline().Record(obs.Event{Kind: "checkpoint", Node: "n0"})
	var spans, events int
	for _, e := range r.Entries() {
		switch e.Kind {
		case KindSpan:
			spans++
		case KindEvent:
			events++
		}
	}
	if spans != 1 || events != 1 {
		t.Fatalf("captured spans=%d events=%d, want 1/1", spans, events)
	}
}
