// Command dmv-scheduler runs the version-aware scheduler against a set of
// dmv-node processes. Role assignment, replication wiring, heartbeat
// failure detection, master/slave fail-over, spare activation and the
// scrub loop are the shared control plane (cluster.Plane) over RemoteNode
// peers — the same code the in-process cluster and every chaos test run.
// Spares are hot backups: subscribed to the replication stream, activated
// as slaves on a slave or master failure and, with -admit-queue, when the
// admission queue stays saturated. The binary can also drive the TPC-W
// workload against the tier, so a complete multi-process demonstration
// needs only it plus N dmv-nodes.
//
// Example (four shells):
//
//	dmv-node -id master0 -addr :7101
//	dmv-node -id slave0  -addr :7102
//	dmv-node -id slave1  -addr :7103
//	dmv-node -id spare0  -addr :7104
//	dmv-scheduler -master master0=127.0.0.1:7101 \
//	              -slave slave0=127.0.0.1:7102 -slave slave1=127.0.0.1:7103 \
//	              -spare spare0=127.0.0.1:7104 \
//	              -drive shopping -duration 15s -clients 8
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"dmv/internal/cluster"
	"dmv/internal/harness"
	"dmv/internal/obs"
	"dmv/internal/obs/flight"
	"dmv/internal/persist"
	"dmv/internal/scheduler"
	"dmv/internal/tpcw"
	"dmv/internal/transport"
	"dmv/internal/wal"
)

type nodeList []string

func (n *nodeList) String() string     { return strings.Join(*n, ",") }
func (n *nodeList) Set(s string) error { *n = append(*n, s); return nil }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dmv-scheduler:", err)
		os.Exit(1)
	}
}

func parseNode(spec string) (id, addr string, err error) {
	id, addr, ok := strings.Cut(spec, "=")
	if !ok {
		return "", "", fmt.Errorf("bad node spec %q (want id=host:port)", spec)
	}
	return id, addr, nil
}

func run() error {
	var (
		masterSpec = flag.String("master", "", "master node as id=host:port")
		slaveSpecs nodeList
		spareSpecs nodeList
		heartbeat  = flag.Duration("heartbeat", 50*time.Millisecond, "failure-detection probe period")
		drive      = flag.String("drive", "", "drive a TPC-W mix (browsing|shopping|ordering); empty = idle")
		duration   = flag.Duration("duration", 15*time.Second, "workload duration when driving")
		clients    = flag.Int("clients", 8, "emulated browsers when driving")
		items      = flag.Int("items", 1000, "TPC-W items (must match the nodes)")
		customers  = flag.Int("customers", 500, "TPC-W customers (must match the nodes)")
		metrics    = flag.String("metrics-addr", "", "serve /metrics, /trace, /stitch, /timeline, /cluster on this address (empty = off)")
		scrape     = flag.Duration("scrape", 500*time.Millisecond, "node ObsSnapshot scrape period for /cluster")
		rpcTimeout = flag.Duration("rpc-timeout", transport.DefaultCallTimeout, "per-RPC deadline for peer calls")
		pingTO     = flag.Duration("ping-timeout", transport.DefaultPingTimeout, "heartbeat probe deadline")
		rpcRetries = flag.Int("rpc-retries", 0, "extra attempts for idempotent peer calls (0 = transport default, <0 = off)")
		suspectAt  = flag.Int("suspect-misses", 2, "consecutive probe misses before a node is quarantined as suspect")
		deadAt     = flag.Int("dead-misses", 4, "consecutive probe misses before a suspect is declared dead")
		seed       = flag.Int64("seed", 1, "seed for retry jitter and scheduler randomness")
		walDir     = flag.String("wal-dir", "", "append committed update queries to a crash-durable WAL in this directory (empty = off)")
		walFlush   = flag.String("wal-flush", "always", "WAL fsync policy: always (group commit), interval, never")
		walEvery   = flag.Duration("wal-flush-interval", 5*time.Millisecond, "background fsync period for -wal-flush=interval")
		pprofOn    = flag.Bool("pprof", false, "mount /debug/pprof/ on the metrics address")
		flightDir  = flag.String("flight-dir", "flight", "write anomaly-triggered cluster flight dumps here (empty = off)")
		flightSamp = flag.Duration("flight-sample", time.Second, "runtime-health sample period for the flight recorder (0 = off)")
		admitQ     = flag.Int("admit-queue", 0, "admission-control slots per conflict class (0 = off); queued arrivals beyond 4x this are fast-rejected")
		admitTgt   = flag.Duration("admit-target-sojourn", 5*time.Millisecond, "CoDel target queue sojourn; sustained waits above it for an interval engage shed mode")
		deadlineD  = flag.Duration("deadline-default", 0, "deadline attached to driven transactions lacking one (0 = none)")
		scrubEvery = flag.Duration("scrub-interval", 0, "anti-entropy digest sweep period across all replicas (0 = off)")
		scrubTabs  = flag.String("scrub-tables", "", "comma-separated TPC-W table names to scrub (empty = all)")
	)
	flag.Var(&slaveSpecs, "slave", "slave node as id=host:port (repeatable)")
	flag.Var(&spareSpecs, "spare", "hot spare backup node as id=host:port (repeatable)")
	flag.Parse()

	if *masterSpec == "" || len(slaveSpecs) == 0 {
		return errors.New("need -master and at least one -slave")
	}

	var reg *obs.Registry
	var rec *flight.Recorder
	agg := &obs.Aggregator{}
	if *metrics != "" {
		reg = obs.New()
		obs.RegisterIdentity(reg, "scheduler", time.Now())
		// The scheduler's recorder is the dump coordinator: on an anomaly
		// trigger it freezes its own ring, gathers every node's ring over
		// the FlightDump RPC, and writes one cluster-wide dump file.
		rec = flight.New(flight.Options{Node: "scheduler", Reg: reg, Dir: *flightDir})
		defer rec.Close()
		if *flightSamp > 0 {
			rec.StartSampler(*flightSamp)
		}
		mln, err := obs.ServeWith(*metrics, reg, obs.ServeOptions{Cluster: agg.Current, Pprof: *pprofOn})
		if err != nil {
			return err
		}
		defer mln.Close()
		log.Printf("metrics on http://%s/metrics (also /trace, /stitch, /timeline, /cluster)", mln.Addr())
	}

	// Dial every node with per-RPC deadlines: a gray node (reachable but
	// unresponsive) can then never wedge the scheduler, only slow it by one
	// deadline per call.
	cOpts := transport.ClientOptions{
		CallTimeout:   *rpcTimeout,
		PingTimeout:   *pingTO,
		RetryAttempts: *rpcRetries,
		Seed:          *seed,
		Obs:           reg,
	}
	var all []*transport.RemoteNode
	for _, spec := range append(append([]string{*masterSpec}, slaveSpecs...), spareSpecs...) {
		id, addr, err := parseNode(spec)
		if err != nil {
			return err
		}
		n, err := transport.DialNodeOpts(id, addr, cOpts)
		if err != nil {
			return fmt.Errorf("dial %s: %w", id, err)
		}
		all = append(all, n)
	}
	master, slaves, spares := all[0], all[1:1+len(slaveSpecs)], all[1+len(slaveSpecs):]
	if rec != nil {
		peers := make([]flight.Peer, 0, len(all))
		for _, n := range all {
			peers = append(peers, n)
		}
		rec.SetPeers(peers)
	}

	// The scheduler is configured from the TPC-W schema; table ids are the
	// schema creation order, identical on every node.
	names := tpcw.TableNames()
	tableID := func(name string) (int, bool) {
		for i, n := range names {
			if n == name {
				return i, true
			}
		}
		return 0, false
	}
	// Durable commit log: every committed update transaction is appended to
	// the WAL (group-committed under -wal-flush=always) before the client
	// sees the ack, so a scheduler crash loses no acknowledged commits —
	// the recovered log seeds a fresh tier or replays onto rebuilt nodes.
	var onCommit func(scheduler.CommitRecord)
	if *walDir != "" {
		policy, perr := wal.ParsePolicy(*walFlush)
		if perr != nil {
			return perr
		}
		rlog, lerr := persist.OpenLog(persist.DurableConfig{
			Dir:           *walDir,
			Policy:        policy,
			FlushInterval: *walEvery,
			Obs:           reg,
			Flight:        rec,
		})
		if lerr != nil {
			return fmt.Errorf("wal: %w", lerr)
		}
		log.Printf("wal: %s recovered %d records (base %d, %d torn bytes truncated), policy %s",
			*walDir, len(rlog.Records), rlog.Base, rlog.TruncatedBytes, policy)
		tier := persist.NewTier(persist.Options{
			Log:    rlog,
			Obs:    reg,
			Flight: rec,
			OnError: func(err error) {
				log.Printf("wal: durability error: %v", err)
			},
		})
		defer tier.Close()
		onCommit = tier.OnCommit
	}
	var scrubIDs []int
	if *scrubTabs != "" {
		for _, name := range strings.Split(*scrubTabs, ",") {
			id, ok := tableID(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("-scrub-tables: unknown table %q", name)
			}
			scrubIDs = append(scrubIDs, id)
		}
	}
	var plane *cluster.Plane
	sched, err := scheduler.New(scheduler.Options{
		VersionAffinity: true,
		MaxRetries:      30,
		Seed:            *seed,
		Obs:             reg,
		OnCommit:        onCommit,
		OnPeerFailure:   func(id string) { go plane.ReportFailure(id) },
		Flight:          rec,
		Admission: scheduler.AdmissionOptions{
			Slots:         *admitQ,
			TargetSojourn: *admitTgt,
		},
	}, len(names), tableID)
	if err != nil {
		return err
	}

	// The control plane: it promotes the master, wires the replication
	// subscriptions, and from then on owns failure detection (suspicion
	// ladder with RTT accrual, quarantine, commit-fenced master fail-over,
	// dead-slave removal), spare activation on fail-over or a saturated
	// admission queue, and the anti-entropy scrub loop (DESIGN.md §10,
	// §15). Its timeline events are this daemon's log lines.
	plane = cluster.NewPlane(cluster.Config{
		HeartbeatInterval: *heartbeat,
		PingTimeout:       *pingTO,
		SuspectAfter:      *suspectAt,
		DeadAfter:         *deadAt,
		ScrubInterval:     *scrubEvery,
		ScrubTables:       scrubIDs,
		Obs:               reg,
		Flight:            rec,
	}, []*scheduler.Scheduler{sched}, transport.Rewire, nil)
	plane.OnEvent(func(ev obs.Event) {
		log.Printf("%s node=%q detail=%q took=%s", ev.Kind, ev.Node, ev.Detail, ev.Duration)
	})
	if err := plane.AddMaster(0, master); err != nil {
		return fmt.Errorf("promote %s: %w", master.ID(), err)
	}
	for _, s := range slaves {
		plane.AddSlave(s)
	}
	for _, s := range spares {
		if err := plane.AddSpare(s); err != nil {
			return fmt.Errorf("spare %s: %w", s.ID(), err)
		}
	}
	plane.Start()
	defer plane.Close()
	log.Printf("tier up: master=%s slaves=%v spares=%v", master.ID(), sched.Slaves(), sched.Spares())

	// Aggregation plane: scrape every node's registry over the ObsSnapshot
	// RPC and merge into one labeled cluster snapshot served at /cluster.
	// The scheduler's merged version vector floors the commit frontier, so
	// a freshly acknowledged commit shows as lag even before any node
	// reports the new version back.
	if reg != nil {
		stopScrape := make(chan struct{})
		defer close(stopScrape)
		go func() {
			ticker := time.NewTicker(*scrape)
			defer ticker.Stop()
			for {
				select {
				case <-stopScrape:
					return
				case <-ticker.C:
					var nss []obs.NodeSnapshot
					for _, n := range all {
						ns, err := n.ObsSnapshot()
						if err != nil {
							continue // dead or unreachable; the snapshot just omits it
						}
						nss = append(nss, ns)
					}
					cs := obs.MergeSnapshots(nss, sched.Latest())
					for i := range cs.Nodes {
						cs.Nodes[i].Health = plane.Health(cs.Nodes[i].Node)
					}
					agg.Update(cs)
				}
			}
		}()
	}

	if *drive == "" {
		log.Printf("idle; press Ctrl-C to exit")
		select {}
	}

	mix, ok := tpcw.MixByName(*drive)
	if !ok {
		return fmt.Errorf("unknown mix %q", *drive)
	}
	store := schedStore{sched: sched, deadline: *deadlineD}
	w := tpcw.NewWorkload(store, tpcw.Scale{Items: *items, Customers: *customers})
	log.Printf("driving %s mix with %d clients for %s", mix.Name, *clients, *duration)
	res := harness.Run(harness.RunConfig{
		Workload: w,
		Mix:      mix,
		Clients:  *clients,
		Duration: *duration,
		Warmup:   time.Second,
	})
	fmt.Printf("\nWIPS: %.1f  avg latency: %s  p95: %s  errors: %d/%d\n",
		res.WIPS, res.AvgLatency, res.P95Latency, res.Errors, res.Total)
	st := sched.Stats()
	fmt.Printf("reads: %d  updates: %d  version aborts: %d  failovers: %d\n",
		st.ReadTxns.Load(), st.UpdateTxns.Load(), st.VersionAborts.Load(), st.Failovers.Load())
	if reg != nil {
		fmt.Printf("aborts by cause: version=%d lock-timeout=%d node-down=%d peer-timeout=%d retries-exhausted=%d\n",
			reg.Counter(obs.SchedAbortVersion).Load(),
			reg.Counter(obs.SchedAbortLockTimeout).Load(),
			reg.Counter(obs.SchedAbortNodeDown).Load(),
			reg.Counter(obs.SchedAbortPeerTimeout).Load(),
			reg.Counter(obs.SchedRetriesExhausted).Load())
		fmt.Printf("transport: rpc-timeouts=%d retries=%d redials=%d\n",
			reg.Counter(obs.TransportRPCTimeouts).Load(),
			reg.Counter(obs.TransportRPCRetries).Load(),
			reg.Counter(obs.TransportRedials).Load())
		txn := reg.Histogram(obs.SchedTxnUS).Snapshot().Summary()
		fmt.Printf("txn latency (us): p50=%d p95=%d p99=%d over %d attempts\n",
			txn.P50, txn.P95, txn.P99, txn.Count)
	}
	fmt.Println(harness.AsciiChart("throughput", res.Timeline.Series(), 10))
	ixNames := make([]string, 0, len(res.ByInteraction))
	for name := range res.ByInteraction {
		ixNames = append(ixNames, name)
	}
	sort.Strings(ixNames)
	fmt.Printf("%-22s %8s %8s %12s\n", "interaction", "count", "errors", "avg latency")
	for _, name := range ixNames {
		ist := res.ByInteraction[name]
		fmt.Printf("%-22s %8d %8d %12s\n", name, ist.Count, ist.Errors, ist.AvgLatency.Round(time.Microsecond))
	}
	return nil
}

// schedStore adapts the scheduler to the TPC-W workload interface.
type schedStore struct {
	sched    *scheduler.Scheduler
	deadline time.Duration // -deadline-default: attached to every driven txn
}

// Run implements tpcw.Store.
func (s schedStore) Run(readOnly bool, tables []string, fn func(tpcw.Querier) error) error {
	spec := scheduler.TxnSpec{ReadOnly: readOnly, Tables: tables}
	if s.deadline > 0 {
		spec.Deadline = time.Now().Add(s.deadline)
	}
	return s.sched.Run(spec, func(tx *scheduler.Txn) error {
		return fn(tx)
	})
}
