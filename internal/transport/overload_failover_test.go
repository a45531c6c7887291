package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmv/internal/cluster"
	"dmv/internal/exec"
	"dmv/internal/faultnet"
	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/replica"
	"dmv/internal/scheduler"
	"dmv/internal/value"
)

// TestOverloadDuringPartitionedFailover is the stampede chaos test: a
// cluster driven well past its admission capacity loses its master to a
// partition mid-overload, fails over, and keeps absorbing the stampede.
// The assertions are the two properties overload must never cost:
//
//   - zero acked-commit loss — every increment acknowledged to a caller is
//     in the surviving master's state after fail-over, even though most
//     arrivals were being shed or abandoned around it, and nothing beyond
//     the increments whose commit came back uncertain (ErrCommitUncertain:
//     the master may have applied them and shipped them on before the
//     partition) is there either;
//   - bounded queue memory — the admission queue depth never exceeds its
//     configured cap while the stampede piles onto a dead master.
func TestOverloadDuringPartitionedFailover(t *testing.T) {
	const seed = 911
	nw := faultnet.New(seed)

	mk := func(id string) (*replica.Node, string) {
		e := heap.NewEngine(heap.Options{PageCap: 8})
		if err := exec.ExecDDL(e, `CREATE TABLE acct (id INT PRIMARY KEY, bal INT)`); err != nil {
			t.Fatalf("ddl: %v", err)
		}
		tid, _ := e.TableID("acct")
		if err := e.Load(tid, []value.Row{{value.NewInt(1), value.NewInt(0)}}); err != nil {
			t.Fatalf("load: %v", err)
		}
		n := replica.NewNode(replica.Options{ID: id, Engine: e, AckTimeout: 100 * time.Millisecond})
		lis, err := nw.Listen(id, "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen %s: %v", id, err)
		}
		srv, err := ServeNodeListener(n, lis, nil)
		if err != nil {
			t.Fatalf("serve %s: %v", id, err)
		}
		t.Cleanup(srv.Close)
		srv.DialSubscribersWith(ClientOptions{
			Dial:        nw.Dialer(id),
			DialTimeout: 200 * time.Millisecond,
			CallTimeout: 300 * time.Millisecond,
			Seed:        seed,
		})
		return n, srv.Addr()
	}
	_, mAddr := mk("m")
	_, s1Addr := mk("s1")
	_, s2Addr := mk("s2")

	cOpts := ClientOptions{
		Dial:        nw.Dialer("sched"),
		DialTimeout: 200 * time.Millisecond,
		CallTimeout: 300 * time.Millisecond,
		PingTimeout: 80 * time.Millisecond,
		Seed:        seed,
	}
	rm, err := DialNodeOpts("m", mAddr, cOpts)
	if err != nil {
		t.Fatalf("dial m: %v", err)
	}
	rs1, err := DialNodeOpts("s1", s1Addr, cOpts)
	if err != nil {
		t.Fatalf("dial s1: %v", err)
	}
	rs2, err := DialNodeOpts("s2", s2Addr, cOpts)
	if err != nil {
		t.Fatalf("dial s2: %v", err)
	}
	// Admission sized far below the worker count: 2 slots + 2 queued, 12
	// stampeding workers. Most arrivals must shed; the queue must stay at
	// or under its cap throughout the partition.
	const slots, queueCap, workers = 2, 2, 12
	reg := obs.New()
	plane, err := cluster.Assemble(remoteTierConfig(cluster.Config{
		HeartbeatInterval: 25 * time.Millisecond,
		PingTimeout:       80 * time.Millisecond,
		Admission:         scheduler.AdmissionOptions{Slots: slots, QueueCap: queueCap, TargetSojourn: 2 * time.Millisecond, Interval: 20 * time.Millisecond},
		Obs:               reg,
	}, seed), cluster.Members{Masters: []replica.Peer{rm}, Slaves: []replica.Peer{rs1, rs2}}, Rewire, nil)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	sched := plane.Scheduler()
	plane.Start()
	defer plane.Close()

	increment := func() error {
		return sched.Run(scheduler.TxnSpec{
			Tables:   []string{"acct"},
			Deadline: time.Now().Add(300 * time.Millisecond),
		}, func(tx *scheduler.Txn) error {
			_, err := tx.Exec(`UPDATE acct SET bal = bal + 1 WHERE id = 1`)
			return err
		})
	}

	var (
		ackedN     atomic.Int64
		uncertainN atomic.Int64
		shedSeen   atomic.Int64
		stop       = make(chan struct{})
		wg         sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := increment()
				switch {
				case err == nil:
					ackedN.Add(1)
				case errors.Is(err, scheduler.ErrCommitUncertain):
					uncertainN.Add(1)
				case errors.Is(err, scheduler.ErrOverloaded):
					shedSeen.Add(1)
					// Honor the fast-reject hint, as a real client must: a
					// shed caller that spins defeats the point of shedding.
					var oe *scheduler.OverloadError
					if errors.As(err, &oe) && oe.RetryAfter > 0 {
						time.Sleep(oe.RetryAfter)
					}
				}
			}
		}()
	}

	// A watchdog samples the queue-depth gauge through the whole run — the
	// bounded-memory property must hold during the partition window, when
	// every queued waiter is doomed to time out against the dead master.
	var maxDepth atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if d := reg.Gauge(obs.SchedAdmitQueueDepth).Load(); d > maxDepth.Load() {
				maxDepth.Store(d)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	waitDeadline := time.Now().Add(5 * time.Second)
	for ackedN.Load() < 10 {
		if time.Now().After(waitDeadline) {
			t.Fatal("workload never reached 10 acked commits")
		}
		time.Sleep(2 * time.Millisecond)
	}
	nw.Isolate("m")

	newMaster := awaitNewMaster(t, plane)

	// Keep the stampede on the new master long enough to prove it admits
	// again, then stop.
	postDeadline := time.Now().Add(5 * time.Second)
	post := ackedN.Load()
	for ackedN.Load() < post+10 {
		if time.Now().After(postDeadline) {
			t.Fatal("no commits admitted after fail-over")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	acked, uncertain := ackedN.Load(), uncertainN.Load()

	txID, err := newMaster.TxBegin(true, nil, 0, obs.TraceContext{})
	if err != nil {
		t.Fatalf("audit begin: %v", err)
	}
	res, err := newMaster.TxExec(txID, `SELECT bal FROM acct WHERE id = 1`, nil)
	if err != nil {
		t.Fatalf("audit read: %v", err)
	}
	if _, err := newMaster.TxCommit(txID); err != nil {
		t.Fatalf("audit commit: %v", err)
	}
	final := res.Rows[0][0].AsInt()

	t.Logf("%d acknowledged, %d uncertain, %d applied", acked, uncertain, final)
	if final < acked || final > acked+uncertain {
		t.Fatalf("acked-commit loss or phantom under overload: %d acknowledged, %d uncertain, %d applied", acked, uncertain, final)
	}
	if shedSeen.Load() == 0 {
		t.Fatalf("admission never shed: %d workers against %d slots should overload", workers, slots)
	}
	if d := maxDepth.Load(); d > queueCap {
		t.Fatalf("admission queue grew past its cap: depth %d > %d", d, queueCap)
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.SchedAdmitShed] == 0 {
		t.Fatal("shed counter never moved")
	}
}
