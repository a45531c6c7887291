package transport

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"dmv/internal/cluster"
	"dmv/internal/faultnet"
	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/replica"
	"dmv/internal/scheduler"
	"dmv/internal/scrub"
	"dmv/internal/simdisk"
	"dmv/internal/value"
)

// newSpareTier is the remote tier with a spare: master0, slave0 and spare0
// over faultnet loopback, each with a buffer cache and the given statement
// service time, under a tier assembled from cfg, whose scheduler admits
// with cfg.Admission, as cmd/dmv-scheduler assembles it.
func newSpareTier(t *testing.T, cfg cluster.Config, service time.Duration) *remoteTier {
	t.Helper()
	const seed = 7
	tr := &remoteTier{nw: faultnet.New(seed), nodes: make(map[string]*replica.Node, 3)}
	var peers []replica.Peer
	for _, id := range []string{"master0", "slave0", "spare0"} {
		n := newAcctNodeWith(t, replica.Options{
			ID:   id,
			Disk: simdisk.New(simdisk.CostModel{Stmt: service, UpdateStmt: service, CPUs: 1}, 256),
		})
		peers = append(peers, tr.serve(t, n, seed))
	}
	tr.assemble(t, remoteTierConfig(cfg, seed), cluster.Members{Masters: peers[:1], Slaves: peers[1:2], Spares: peers[2:]})
	return tr
}

// newSpareTwin builds the in-process tier of newSpareTier's shape with
// cluster.New.
func newSpareTwin(t *testing.T, cfg cluster.Config, service time.Duration) *cluster.Cluster {
	t.Helper()
	cfg.Slaves, cfg.Spares = 1, 1
	cfg.Costs = simdisk.CostModel{Stmt: service, UpdateStmt: service, CPUs: 1}
	cfg.CachePages = 256
	cfg.SchemaDDL = []string{`CREATE TABLE acct (id INT PRIMARY KEY, bal INT)`}
	cfg.Load = func(e *heap.Engine) error {
		tid, _ := e.TableID("acct")
		return e.Load(tid, []value.Row{{value.NewInt(1), value.NewInt(0)}})
	}
	// The remote nodes' page size, so the two tiers' digests compare.
	cfg.EngineOptions = func(id string) heap.Options { return heap.Options{PageCap: 8} }
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// readAcct runs one read-only transaction on the acct row.
func readAcct(run func(scheduler.TxnSpec, func(*scheduler.Txn) error) error) error {
	return run(scheduler.TxnSpec{ReadOnly: true}, func(tx *scheduler.Txn) error {
		_, err := tx.QueryInt(`SELECT bal FROM acct WHERE id = 1`)
		return err
	})
}

// eventually polls cond every 5ms for up to d.
func eventually(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// spareWarmed waits for page-id transfer to make pages resident in the
// spare's buffer cache. Reads are routed to the one slave only, and
// nothing commits, so nothing else can fault a page into the spare.
func spareWarmed(t *testing.T, run func(scheduler.TxnSpec, func(*scheduler.Txn) error) error, spare *replica.Node) bool {
	t.Helper()
	for i := 0; i < 5; i++ {
		if err := readAcct(run); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	return eventually(2*time.Second, func() bool { return spare.Disk().ResidentCount() > 0 })
}

// stampede runs concurrent readers until spare0 is a read replica of
// sched or 10s have passed.
func stampede(run func(scheduler.TxnSpec, func(*scheduler.Txn) error) error, sched func() *scheduler.Scheduler) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if readAcct(run) != nil {
					time.Sleep(time.Millisecond) // a shed read must not spin
				}
			}
		}()
	}
	eventually(10*time.Second, func() bool {
		for _, id := range sched().Slaves() {
			if id == "spare0" {
				return true
			}
		}
		return false
	})
	close(stop)
	wg.Wait()
}

// upkeepLines renders the plane's overload and spare-activation events.
func upkeepLines(p *cluster.Plane) []string {
	var out []string
	for _, ev := range p.Events() {
		switch ev.Kind {
		case cluster.EventOverload:
			out = append(out, ev.Kind)
		case cluster.EventMigrationDone, cluster.EventSpareActivated:
			out = append(out, ev.Kind+":"+ev.Node)
		}
	}
	return out
}

// TestRemotePlaneSpareUpkeep runs spare upkeep over TCP: page-id transfer
// warms the spare's buffer cache, and a read stampede that saturates the
// scheduler's admission queue activates the spare as a slave. The plane
// records the same activation sequence as an in-process tier of the same
// shape, and counts its events on its registry.
func TestRemotePlaneSpareUpkeep(t *testing.T) {
	want := []string{"overload", "migration-done:spare0", "spare-activated:spare0"}
	const service = 5 * time.Millisecond
	cfg := planeTestConfig
	cfg.PageIDTransfer = 10 * time.Millisecond
	cfg.OverloadWindow = 50 * time.Millisecond
	cfg.Admission = scheduler.AdmissionOptions{Slots: 1}

	remoteCfg := cfg
	remoteCfg.Obs = obs.New()
	tr := newSpareTier(t, remoteCfg, service)
	if !spareWarmed(t, tr.sched.Run, tr.nodes["spare0"]) {
		t.Errorf("remote spare0 has no resident pages: page ids were never shipped")
	}
	stampede(tr.sched.Run, func() *scheduler.Scheduler { return tr.sched })
	remote := upkeepLines(tr.plane)
	if !reflect.DeepEqual(remote, want) {
		t.Errorf("remote upkeep events = %v, want %v; all events: %+v", remote, want, tr.plane.Events())
	}
	if n := remoteCfg.Obs.Counter(obs.ClusterEvents).Load(); n == 0 {
		t.Errorf("%s = 0 on the plane's registry after %d events", obs.ClusterEvents, len(tr.plane.Events()))
	}
	if t.Failed() {
		return
	}

	c := newSpareTwin(t, cfg, service)
	spare, _ := c.Node("spare0")
	if !spareWarmed(t, c.Run, spare) {
		t.Errorf("in-process spare0 has no resident pages: page ids were never shipped")
	}
	stampede(c.Run, c.Scheduler)
	if local := upkeepLines(c.Plane); !reflect.DeepEqual(local, remote) {
		t.Fatalf("in-process upkeep events = %v, remote = %v", local, remote)
	}
}

// acctDigest is the node's acct digest root at version v.
func acctDigest(t *testing.T, e *heap.Engine, v uint64) scrub.Hash {
	t.Helper()
	tid, _ := e.TableID("acct")
	d, err := e.TableDigestAt(tid, v, false)
	if err != nil {
		t.Fatalf("digest: %v", err)
	}
	return d.Root
}

// staleRefreshed commits increments, then waits for the stale spare to
// match the master at the master's frontier, and returns that digest.
func staleRefreshed(t *testing.T, run func(scheduler.TxnSpec, func(*scheduler.Txn) error) error, master, spare *replica.Node, period time.Duration) (scrub.Hash, bool) {
	t.Helper()
	for i := 0; i < 5; i++ {
		if err := increment(run); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	tid, _ := master.Engine().TableID("acct")
	v := master.Engine().MaxVersions().Get(tid)
	want := acctDigest(t, master.Engine(), v)
	ok := eventually(10*period, func() bool { return acctDigest(t, spare.Engine(), v) == want })
	return want, ok
}

// TestRemotePlaneStaleSpareRefresh runs stale-spare refresh over TCP: a
// stale spare receives no write-set, yet within a few refresh periods
// after the commits its pages match the master's at the master's
// frontier, as an in-process tier's stale spare does.
func TestRemotePlaneStaleSpareRefresh(t *testing.T) {
	cfg := planeTestConfig
	cfg.SpareMode = cluster.SpareStale
	cfg.StaleRefresh = 100 * time.Millisecond

	tr := newSpareTier(t, cfg, 0)
	master := tr.nodes["master0"]
	remote, ok := staleRefreshed(t, tr.sched.Run, master, tr.nodes["spare0"], cfg.StaleRefresh)
	if got := subscriberIDs(master); !reflect.DeepEqual(got, []string{"slave0"}) {
		t.Fatalf("master subscribers = %v, want [slave0]: a stale spare gets no write-set", got)
	}
	if !ok {
		t.Fatalf("remote stale spare0 does not match the master within %v", 10*cfg.StaleRefresh)
	}

	c := newSpareTwin(t, cfg, 0)
	m, _ := c.Node("master0")
	spare, _ := c.Node("spare0")
	local, ok := staleRefreshed(t, c.Run, m, spare, cfg.StaleRefresh)
	if !ok {
		t.Fatalf("in-process stale spare0 does not match the master within %v", 10*cfg.StaleRefresh)
	}
	if local != remote {
		t.Fatalf("in-process digest %x, remote %x", local, remote)
	}
}
