// Command dmv-scheduler runs the version-aware scheduler against a set of
// dmv-node processes. Role assignment, replication wiring, heartbeat
// failure detection, master/slave fail-over, spare activation and the
// scrub loop are the shared control plane (cluster.Plane) over RemoteNode
// peers, put together by cluster.Assemble — the same code the in-process
// cluster and every chaos test run.
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
	"slices"
	"sort"
	"strings"
	"time"

	"dmv/internal/cluster"
	"dmv/internal/harness"
	"dmv/internal/obs"
	"dmv/internal/obs/flight"
	"dmv/internal/persist"
	"dmv/internal/replica"
	"dmv/internal/scheduler"
	"dmv/internal/simdisk"
	"dmv/internal/tpcw"
	"dmv/internal/transport"
	"dmv/internal/wal"
)

type nodeList []string

func (n *nodeList) String() string     { return strings.Join(*n, ",") }
func (n *nodeList) Set(s string) error { *n = append(*n, s); return nil }

func main() {
	if err := run(os.Args[1:]); err != nil {
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

func run(args []string) error {
	fs := flag.NewFlagSet("dmv-scheduler", flag.ExitOnError)
	var (
		masterSpec = fs.String("master", "", "master node as id=host:port")
		slaveSpecs nodeList
		spareSpecs nodeList
		heartbeat  = fs.Duration("heartbeat", 50*time.Millisecond, "failure-detection probe period")
		drive      = fs.String("drive", "", "drive a TPC-W mix (browsing|shopping|ordering); empty = idle")
		duration   = fs.Duration("duration", 15*time.Second, "workload duration when driving")
		clients    = fs.Int("clients", 8, "emulated browsers when driving")
		items      = fs.Int("items", 1000, "TPC-W items (must match the nodes)")
		customers  = fs.Int("customers", 500, "TPC-W customers (must match the nodes)")
		metrics    = fs.String("metrics-addr", "", "serve /metrics, /trace, /stitch, /timeline, /cluster on this address (empty = off)")
		scrape     = fs.Duration("scrape", 500*time.Millisecond, "cluster-view scrape period for /cluster")
		rpcTimeout = fs.Duration("rpc-timeout", transport.DefaultCallTimeout, "per-RPC deadline for peer calls")
		pingTO     = fs.Duration("ping-timeout", transport.DefaultPingTimeout, "heartbeat probe deadline")
		rpcRetries = fs.Int("rpc-retries", 0, "extra attempts for idempotent peer calls (0 = transport default, <0 = off)")
		suspectAt  = fs.Int("suspect-misses", 2, "consecutive probe misses before a node is quarantined as suspect")
		deadAt     = fs.Int("dead-misses", 4, "consecutive probe misses before a suspect is declared dead")
		seed       = fs.Int64("seed", 1, "seed for retry jitter and scheduler randomness")
		walDir     = fs.String("wal-dir", "", "append committed update queries to a crash-durable WAL in this directory (empty = off)")
		walFlush   = fs.String("wal-flush", "always", "WAL fsync policy: always (group commit), interval, never")
		walEvery   = fs.Duration("wal-flush-interval", 5*time.Millisecond, "background fsync period for -wal-flush=interval")
		pprofOn    = fs.Bool("pprof", false, "mount /debug/pprof/ on the metrics address")
		flightDir  = fs.String("flight-dir", "flight", "write anomaly-triggered cluster flight dumps here (empty = off)")
		flightSamp = fs.Duration("flight-sample", time.Second, "runtime-health sample period for the flight recorder (0 = off)")
		admitQ     = fs.Int("admit-queue", 0, "admission-control slots per conflict class (0 = off); queued arrivals beyond 4x this are fast-rejected")
		admitTgt   = fs.Duration("admit-target-sojourn", 5*time.Millisecond, "CoDel target queue sojourn; sustained waits above it for an interval engage shed mode")
		deadlineD  = fs.Duration("deadline-default", 0, "deadline attached to driven transactions lacking one (0 = none)")
		scrubEvery = fs.Duration("scrub-interval", 0, "anti-entropy digest sweep period across all replicas (0 = off)")
		scrubTabs  = fs.String("scrub-tables", "", "comma-separated TPC-W table names to scrub (empty = all)")
	)
	fs.Var(&slaveSpecs, "slave", "slave node as id=host:port (repeatable)")
	fs.Var(&spareSpecs, "spare", "hot spare backup node as id=host:port (repeatable)")
	_ = fs.Parse(args) // ExitOnError: Parse exits on a bad flag

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
		mln, err := obs.Serve(*metrics, reg, obs.ServeOptions{Cluster: agg.Current, Pprof: *pprofOn})
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
	var members cluster.Members
	for _, role := range []struct {
		specs []string
		peers *[]replica.Peer
	}{
		{[]string{*masterSpec}, &members.Masters},
		{slaveSpecs, &members.Slaves},
		{spareSpecs, &members.Spares},
	} {
		for _, spec := range role.specs {
			id, addr, err := parseNode(spec)
			if err != nil {
				return err
			}
			n, err := transport.DialNodeOpts(id, addr, cOpts)
			if err != nil {
				return fmt.Errorf("dial %s: %w", id, err)
			}
			all = append(all, n)
			*role.peers = append(*role.peers, n)
		}
	}
	if rec != nil {
		peers := make([]flight.Peer, 0, len(all))
		for _, n := range all {
			peers = append(peers, n)
		}
		rec.SetPeers(peers)
	}

	// Durable commit log: every committed update transaction is appended to
	// the WAL (group-committed under -wal-flush=always) before the client
	// sees the ack, so the log keeps every acknowledged commit across a
	// scheduler crash. A restart reopens the log and appends to it; the
	// nodes are dmv-node processes, which load the initial image, so
	// nothing is replayed into them.
	var onCommit func(scheduler.CommitRecord)
	if *walDir != "" {
		policy, perr := wal.ParsePolicy(*walFlush)
		if perr != nil {
			return perr
		}
		tier, _, terr := persist.Open(persist.DurableConfig{
			Dir:           *walDir,
			Policy:        policy,
			FlushInterval: *walEvery,
			Obs:           reg,
			Flight:        rec,
		}, persist.Options{
			Obs:    reg,
			Flight: rec,
			OnError: func(err error) {
				log.Printf("wal: durability error: %v", err)
			},
		}, 0, simdisk.CostModel{}, nil, nil)
		if terr != nil {
			return fmt.Errorf("wal: %w", terr)
		}
		defer tier.Close()
		log.Printf("wal: %s holds %d commits, policy %s", *walDir, tier.LogLen(), policy)
		onCommit = tier.OnCommit
	}
	var scrubIDs []int
	if *scrubTabs != "" {
		for _, name := range strings.Split(*scrubTabs, ",") {
			id := slices.Index(tpcw.TableNames(), strings.TrimSpace(name))
			if id < 0 {
				return fmt.Errorf("-scrub-tables: unknown table %q", name)
			}
			scrubIDs = append(scrubIDs, id)
		}
	}

	// The tier, put together as every deployment is (cluster.Assemble): a
	// version-aware scheduler over the TPC-W schema, and the control plane
	// that promotes the master, wires the replication subscriptions, and
	// from then on owns failure detection (suspicion ladder with RTT
	// accrual, quarantine, commit-fenced master fail-over, dead-slave
	// removal), spare activation on fail-over or a saturated admission
	// queue, and the anti-entropy scrub loop (DESIGN.md §10, §15). Its
	// timeline events are this daemon's log lines.
	plane, err := cluster.Assemble(cluster.Config{
		SchemaDDL:         tpcw.SchemaDDL(),
		MaxRetries:        30,
		Seed:              *seed,
		Admission:         scheduler.AdmissionOptions{Slots: *admitQ, TargetSojourn: *admitTgt},
		OnCommit:          onCommit,
		HeartbeatInterval: *heartbeat,
		PingTimeout:       *pingTO,
		SuspectAfter:      *suspectAt,
		DeadAfter:         *deadAt,
		ScrubInterval:     *scrubEvery,
		ScrubTables:       scrubIDs,
		Obs:               reg,
		Flight:            rec,
	}, members, transport.Rewire, nil)
	if err != nil {
		return err
	}
	plane.OnEvent(func(ev obs.Event) {
		log.Printf("%s node=%q detail=%q took=%s", ev.Kind, ev.Node, ev.Detail, ev.Duration)
	})
	plane.Start()
	defer plane.Close()
	log.Printf("tier up: master=%s slaves=%v spares=%v", plane.MasterID(0), plane.Scheduler().Slaves(), plane.Spares())

	// Aggregation plane: the control plane builds the cluster view (every
	// node's registry over the ObsSnapshot RPC plus this daemon's own) on
	// each scrape tick, and /cluster serves the latest one.
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
					agg.Update(plane.ClusterSnapshot())
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
	w := tpcw.NewWorkload(harness.DMVStore{P: plane, Deadline: *deadlineD}, tpcw.Scale{Items: *items, Customers: *customers})
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
	st := plane.Scheduler().Stats()
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
