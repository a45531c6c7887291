package cluster

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"dmv/internal/obs/flight"
	"dmv/internal/replica"
)

// TestDeadNodeFailoverDumpEnqueued parks confirmDead right after a node's
// dead state becomes visible and closes the flight recorder there: the
// fail-over dump must already be enqueued, so Close writes it, and it must
// carry the node's healthy -> dead transition. It covers a slave and a
// master, whose fail-over the scheduler completes.
func TestDeadNodeFailoverDumpEnqueued(t *testing.T) {
	for _, victim := range []string{"slave1", "master0"} {
		t.Run(victim, func(t *testing.T) {
			dir := t.TempDir()
			rec := flight.New(flight.Options{Node: "sched", Dir: dir})
			defer rec.Close()
			parked := make(chan struct{})
			release := make(chan struct{})
			hook := func(id string) {
				if id == victim {
					close(parked)
					<-release
				}
			}
			deadPublished.Store(&hook)
			defer deadPublished.Store(nil)
			defer close(release)

			c := newTestCluster(t, Config{Slaves: 2, Flight: rec})
			if err := c.Kill(victim); err != nil {
				t.Fatal(err)
			}
			select {
			case <-parked:
			case <-time.After(5 * time.Second):
				t.Fatalf("%s never declared dead", victim)
			}
			if h := c.Health(victim); h != healthDead {
				t.Fatalf("health = %q while parked after publication, want dead", h)
			}
			rec.Close()

			matches, err := filepath.Glob(filepath.Join(dir, "flight-*-"+flight.CauseFailover+".json"))
			if err != nil || len(matches) != 1 {
				t.Fatalf("fail-over dumps with %s seen dead = %v, err = %v", victim, matches, err)
			}
			blob, err := os.ReadFile(matches[0])
			if err != nil {
				t.Fatal(err)
			}
			d, err := flight.Parse(blob)
			if err != nil {
				t.Fatal(err)
			}
			for _, nd := range d.Nodes {
				for _, e := range nd.Entries {
					if e.Kind == flight.KindHealth && e.Health.Node == victim &&
						e.Health.From == healthy && e.Health.To == healthDead {
						return
					}
				}
			}
			t.Fatalf("dump lacks %s: healthy -> dead", victim)
		})
	}
}

// TestSuspicionRecordedBeforeDeath: the flight recorder holds a node's
// transitions in the order the detector decided them, even when a
// suspicion's side effects run after a later verdict has confirmed the
// node dead.
func TestSuspicionRecordedBeforeDeath(t *testing.T) {
	rec := flight.New(flight.Options{Node: "sched"})
	defer rec.Close()
	c := newTestCluster(t, Config{Slaves: 2, HeartbeatInterval: time.Hour, Flight: rec})
	n, _ := c.Peer("slave1")
	c.note(n, 0, replica.ErrPeerTimeout)
	suspicion := c.note(n, 0, replica.ErrPeerTimeout)
	c.applyHealth("slave1", c.note(n, 0, replica.ErrNodeDown))
	c.applyHealth("slave1", suspicion)

	var chain []string
	for _, e := range rec.Entries() {
		if e.Kind == flight.KindHealth && e.Health.Node == "slave1" {
			chain = append(chain, e.Health.From+"->"+e.Health.To)
		}
	}
	if want := []string{"healthy->suspect", "suspect->dead"}; len(chain) != 2 || chain[0] != want[0] || chain[1] != want[1] {
		t.Fatalf("slave1's recorded transitions = %v, want %v", chain, want)
	}
}
