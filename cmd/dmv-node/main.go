// Command dmv-node runs one DMV database replica as a standalone process,
// serving the replication/transaction Peer interface over TCP. Point a
// dmv-scheduler at a set of these to form a real multi-process tier.
//
// Every node loads the same deterministic TPC-W image at startup (the
// paper's nodes mmap a shared on-disk database), so a fresh node is a valid
// stale replica that the scheduler can reintegrate.
//
// Usage:
//
//	dmv-node -id slave0 -addr :7101 [-items 1000] [-customers 500]
//	         [-checkpoint 30s] [-cache-pages 0] [-page-fault 5ms]
//	         [-metrics-addr :9101] [-ack-timeout 150ms]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/obs/flight"
	"dmv/internal/replica"
	"dmv/internal/simdisk"
	"dmv/internal/tpcw"
	"dmv/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dmv-node:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id         = flag.String("id", "node0", "node id (unique in the cluster)")
		addr       = flag.String("addr", "127.0.0.1:7101", "listen address")
		items      = flag.Int("items", 1000, "TPC-W items to load")
		customers  = flag.Int("customers", 500, "TPC-W customers to load")
		checkpoint = flag.Duration("checkpoint", 0, "fuzzy checkpoint period (0 = off)")
		ckptDir    = flag.String("checkpoint-dir", "", "directory for on-disk checkpoints (default: memory)")
		cachePages = flag.Int("cache-pages", 0, "buffer-cache capacity in pages (0 = unbounded)")
		pageFault  = flag.Duration("page-fault", 5*time.Millisecond, "cache-miss penalty")
		pageCap    = flag.Int("page-cap", 64, "rows per page")
		metrics    = flag.String("metrics-addr", "", "serve /metrics, /trace, /timeline on this address (empty = off)")
		ackTimeout = flag.Duration("ack-timeout", 0, "bound on each subscriber's write-set ack during broadcast (0 = wait forever)")
		pprofOn    = flag.Bool("pprof", false, "mount /debug/pprof/ on the metrics address")
		flightDir  = flag.String("flight-dir", "", "write anomaly-triggered flight dumps to this directory (empty = ring only, served to the scheduler over FlightDump)")
		flightSamp = flag.Duration("flight-sample", time.Second, "runtime-health sample period for the flight recorder (0 = off)")
		deadlineD  = flag.Duration("deadline-default", 0, "deadline applied to transactions that arrive without one (0 = unbounded); expired sessions abandon queued statements and commit entry, never a commit in flight")
		corruptIn  = flag.Duration("corrupt-after", 0, "flip one bit in one resident row this long after startup (scrub chaos demo; 0 = never)")
		corruptSd  = flag.Int64("corrupt-seed", 1, "seed picking the victim page/row/bit for -corrupt-after")
	)
	flag.Parse()

	var reg *obs.Registry
	var rec *flight.Recorder
	if *metrics != "" {
		reg = obs.New()
		// Always-on flight recorder: the bounded ring costs a few hundred
		// entries of memory and is served to the scheduler's anomaly dumps
		// via the FlightDump RPC even when this node never writes a dump
		// itself (-flight-dir empty).
		rec = flight.New(flight.Options{Node: *id, Reg: reg, Dir: *flightDir})
		defer rec.Close()
		if *flightSamp > 0 {
			rec.StartSampler(*flightSamp)
		}
	}
	var disk *simdisk.Disk
	opts := heap.Options{PageCap: *pageCap, Obs: reg, NodeID: *id}
	if *cachePages > 0 {
		disk = simdisk.New(simdisk.InMemory(*pageFault), *cachePages)
		opts.Observer = disk
	}
	eng := heap.NewEngine(opts)
	for _, ddl := range tpcw.SchemaDDL() {
		if err := exec.ExecDDL(eng, ddl); err != nil {
			return err
		}
	}
	scale := tpcw.Scale{Items: *items, Customers: *customers}
	log.Printf("loading TPC-W image (items=%d customers=%d)...", *items, *customers)
	if err := scale.Load(eng); err != nil {
		return err
	}

	node := replica.NewNode(replica.Options{
		ID: *id, Engine: eng, Disk: disk, CheckpointDir: *ckptDir, Obs: reg,
		AckTimeout: *ackTimeout, Flight: rec, DefaultDeadline: *deadlineD,
	})
	if reg != nil {
		// The scheduler derives per-table version lag from the ObsSnapshot
		// RPC; the local backlog gauge gives this node's /metrics the same
		// staleness signal without a scheduler round trip.
		reg.GaugeFunc(obs.Labeled(obs.ReplicaApplyBacklog, "node", *id), func() float64 {
			return float64(eng.PendingMods())
		})
	}
	if *checkpoint > 0 {
		cp := node.StartCheckpointer(*checkpoint)
		defer cp.Stop()
	}
	srv, err := transport.ServeNodeObs(node, *addr, reg)
	if err != nil {
		return err
	}
	defer srv.Close()
	if reg != nil {
		mln, err := obs.Serve(*metrics, reg, obs.ServeOptions{Pprof: *pprofOn})
		if err != nil {
			return err
		}
		defer mln.Close()
		extra := ""
		if *pprofOn {
			extra = ", /debug/pprof/"
		}
		log.Printf("metrics on http://%s/metrics (also /trace, /timeline%s)", mln.Addr(), extra)
	}
	log.Printf("node %s serving on %s (slave role; scheduler assigns masters)", *id, srv.Addr())

	// Scripted divergence for the multi-process scrub demo: silently damage
	// one row so the scheduler's next digest sweep has something real to
	// detect, quarantine, and repair.
	if *corruptIn > 0 {
		timer := time.AfterFunc(*corruptIn, func() {
			table, pg, rid, err := eng.CorruptRandomRow(*corruptSd)
			if err != nil {
				log.Printf("corrupt-after: %v", err)
				return
			}
			log.Printf("corrupt-after: flipped a bit in table %d page %d row %d (seed %d)", table, pg, rid, *corruptSd)
		})
		defer timer.Stop()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("node %s shutting down", *id)
	return nil
}
