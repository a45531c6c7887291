package cluster

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/page"
	"dmv/internal/replica"
	"dmv/internal/scheduler"
	"dmv/internal/scrub"
)

// hookedPeer decorates a plane member: onInstall runs before each
// InstallDelta, and while conflicts is positive each Digest call consumes
// one and fails with page.ErrVersionConflict, as a frontier that keeps
// losing the race to new commits does.
type hookedPeer struct {
	replica.Peer
	onInstall func()
	conflicts atomic.Int32
}

func (h *hookedPeer) InstallDelta(images []page.Image) error {
	if h.onInstall != nil {
		h.onInstall()
	}
	return h.Peer.InstallDelta(images)
}

func (h *hookedPeer) Digest(table int, version uint64, withPages bool) (scrub.TableDigest, error) {
	if h.conflicts.Load() > 0 {
		h.conflicts.Add(-1)
		return scrub.TableDigest{}, page.ErrVersionConflict
	}
	return h.Peer.Digest(table, version, withPages)
}

// newHookedPlane builds a one-master, two-slave plane over in-process nodes
// loaded with the scrub schema, slave0 behind a hookedPeer. The detector
// never probes on its own and nothing sweeps but the test, which drives
// both.
func newHookedPlane(t *testing.T) (*Plane, *hookedPeer, *replica.Node) {
	t.Helper()
	var nodes []*replica.Node
	for _, id := range []string{"master0", "slave0", "slave1"} {
		eng := heap.NewEngine(heap.Options{NodeID: id})
		for _, ddl := range scrubDDL {
			if err := exec.ExecDDL(eng, ddl); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
		}
		if err := scrubLoad(eng); err != nil {
			t.Fatalf("load %s: %v", id, err)
		}
		nodes = append(nodes, replica.NewNode(replica.Options{ID: id, Engine: eng}))
	}
	ref := nodes[0].Engine()
	sched, err := scheduler.New(scheduler.Options{Seed: 1}, ref.NumTables(), ref.TableID)
	if err != nil {
		t.Fatalf("scheduler: %v", err)
	}
	p := NewPlane(Config{HeartbeatInterval: time.Hour}, []*scheduler.Scheduler{sched},
		func(master replica.Peer, subs []replica.Peer) error {
			master.(*replica.Node).SetSubscribers(subs)
			return nil
		}, nil)
	hooked := &hookedPeer{Peer: nodes[1]}
	if err := p.AddMaster(0, nodes[0]); err != nil {
		t.Fatalf("promote: %v", err)
	}
	p.AddSlave(hooked)
	p.AddSlave(nodes[2])
	p.Start()
	t.Cleanup(p.Close)
	return p, hooked, nodes[1]
}

// corruptArchive flips a bit in page 0 of the node's archive table, which
// no write ever touches.
func corruptArchive(t *testing.T, n *replica.Node) {
	t.Helper()
	tid, ok := n.Engine().TableID("archive")
	if !ok {
		t.Fatal("no archive table")
	}
	if _, err := n.Engine().CorruptPage(tid, 0, 12345); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
}

// suspect walks slave0 up the detector's ladder without a probe.
func suspect(t *testing.T, p *Plane) {
	t.Helper()
	for i := 0; i < p.cfg.SuspectAfter; i++ {
		p.ReportSuspect("slave0")
	}
	if h := p.Health("slave0"); h != healthSuspect {
		t.Fatalf("slave0 is %s, want suspect", h)
	}
}

func assertQuarantined(t *testing.T, p *Plane, want []string, why string) {
	t.Helper()
	if got := p.Scheduler().Quarantined(); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: quarantined = %v, want %v", why, got, want)
	}
}

// TestScrubQuarantineOwnership pins that read quarantine is the OR of the
// detector's and the sweep's inputs: neither path lifts the other's.
func TestScrubQuarantineOwnership(t *testing.T) {
	t.Run("repair of a suspect", func(t *testing.T) {
		p, _, slave := newHookedPlane(t)
		suspect(t, p)
		corruptArchive(t, slave)
		rep := p.Sweep()
		if !reflect.DeepEqual(rep.Repaired, []string{"slave0"}) {
			t.Fatalf("sweep report = %+v, want slave0 repaired", rep)
		}
		if h := p.Health("slave0"); h != healthSuspect {
			t.Fatalf("slave0 is %s after the sweep, want suspect", h)
		}
		assertQuarantined(t, p, []string{"slave0"}, "scrub repair of a suspect")
	})

	t.Run("clear during repair", func(t *testing.T) {
		p, hooked, slave := newHookedPlane(t)
		var fired atomic.Bool
		hooked.onInstall = func() {
			if !fired.CompareAndSwap(false, true) {
				return // the cleared suspect's own catch-up install
			}
			// Mid-repair: the detector suspects slave0, then a probe
			// answers and clears it; its catch-up migration then drops
			// the detector's input.
			suspect(t, p)
			p.probeAll()
			waitFor(t, 2*time.Second, func() bool {
				p.mu.Lock()
				defer p.mu.Unlock()
				return !p.members["slave0"].suspected
			}, "the cleared suspect's catch-up")
			assertQuarantined(t, p, []string{"slave0"}, "detector clear mid-repair")
		}
		corruptArchive(t, slave)
		rep := p.Sweep()
		if !fired.Load() {
			t.Fatal("the repair installed nothing")
		}
		if !reflect.DeepEqual(rep.Repaired, []string{"slave0"}) {
			t.Fatalf("sweep report = %+v, want slave0 repaired", rep)
		}
		if h := p.Health("slave0"); h != healthy {
			t.Fatalf("slave0 is %s, want healthy", h)
		}
		assertQuarantined(t, p, nil, "repaired and cleared")
	})
}

// TestFailedRepairReleasedByNextSweep: a repair whose verification fails
// (here every re-check loses its frontier race until the retries run out)
// leaves the node quarantined, and the next sweep that finds its tables
// equal to the master's releases it.
func TestFailedRepairReleasedByNextSweep(t *testing.T) {
	p, hooked, slave := newHookedPlane(t)
	hooked.onInstall = func() { hooked.conflicts.Store(scrubFrontierRetries + 1) }
	corruptArchive(t, slave)

	rep := p.Sweep()
	if !reflect.DeepEqual(rep.Failed, []string{"slave0"}) {
		t.Fatalf("first sweep = %+v, want slave0's repair failed", rep)
	}
	assertQuarantined(t, p, []string{"slave0"}, "after the failed verification")

	rep = p.Sweep()
	if len(rep.Diverged) != 0 || len(rep.Failed) != 0 {
		t.Fatalf("second sweep = %+v, want clean", rep)
	}
	assertQuarantined(t, p, nil, "after a clean sweep")
	want := []string{"scrub-divergence slave0 tables=1 pages=1", "scrub-repaired slave0 pages=1 ok=false"}
	if got := scrubEventLog(p.Events()); !reflect.DeepEqual(got, want) {
		t.Fatalf("scrub events = %v, want %v", got, want)
	}
}
