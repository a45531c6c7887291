// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6). Each Figure* function is self-contained: it builds
// the tiers, drives the TPC-W workload, injects the faults, and returns the
// measured summary. cmd/dmv-bench prints these results and the package's
// shape tests assert each figure's shape on them, so the numbers in
// EXPERIMENTS.md and the guarded shapes come from one code path.
package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dmv/internal/cluster"
	"dmv/internal/harness"
	"dmv/internal/heap"
	"dmv/internal/innodb"
	"dmv/internal/scheduler"
	"dmv/internal/simdisk"
	"dmv/internal/tpcw"
	"dmv/internal/value"
)

// Durations describes the compressed-time envelope of one experiment run.
// The paper runs for tens of minutes; all effects here are ratios, which a
// uniformly compressed run preserves (see DESIGN.md, substitutions).
type Durations struct {
	Warmup  time.Duration
	Measure time.Duration
	Window  time.Duration
	FaultAt time.Duration // offset into the measured period
	Clients int
	// Seed drives every per-client random stream of the run (0 = the
	// harness default).
	Seed int64
}

// QuickDurations is dmv-bench's -quick envelope (seconds per figure).
func QuickDurations() Durations {
	return Durations{
		Warmup:  time.Second,
		Measure: 4 * time.Second,
		Window:  200 * time.Millisecond,
		FaultAt: 1500 * time.Millisecond,
		Clients: 12,
	}
}

// FullDurations is dmv-bench's default envelope (tens of seconds per
// figure, with cleaner timelines).
func FullDurations() Durations {
	return Durations{
		Warmup:  time.Second,
		Measure: 10 * time.Second,
		Window:  500 * time.Millisecond,
		FaultAt: 3 * time.Second,
		Clients: 20,
	}
}

// Calibrated per-node model shared by all experiments: each node is a
// single-CPU machine taking serviceTime per statement; the on-disk baseline
// additionally pays the DefaultCosts disk charges. Absolute values are
// arbitrary — the figures compare shapes and ratios.
const (
	// serviceTime is one in-memory node's CPU demand per statement. The
	// reproduction host may have very few cores (CI boxes often have one),
	// so per-node capacity is expressed entirely as modelled service time —
	// sleeps scale across simulated nodes even on a single core — and the
	// bench database is kept small enough that real executor compute stays
	// far below the model.
	serviceTime = 3 * time.Millisecond
	// innodbServiceTime is the on-disk engine's CPU demand per statement:
	// the paper's in-memory heap engine is substantially faster per query
	// than InnoDB (buffer-pool management, serializable locking), which is
	// why a performance jump appears even in the smallest DMV configuration.
	innodbServiceTime = 6 * time.Millisecond
	// updateServiceTime is the CPU demand of one update-transaction
	// statement: TPC-W updates are single-row changes, far cheaper than the
	// read interactions' joins.
	updateServiceTime = 1 * time.Millisecond
	serviceWidth      = 1 // single-CPU nodes in the model
	lockTimeout       = 50 * time.Millisecond
	benchPageCap      = 8 // fine pages: the hot set spans enough pages to avoid
	// artificial writer serialization at this reduced database scale
)

// nodeCPU is an in-memory node's hardware: a CPU taking serviceTime per
// read statement and updateServiceTime per update statement.
var nodeCPU = simdisk.CostModel{Stmt: serviceTime, UpdateStmt: updateServiceTime, CPUs: serviceWidth}

// innodbCosts is the on-disk baseline's hardware: the DefaultCosts disk
// behind a CPU taking innodbServiceTime per read statement and twice
// updateServiceTime per update statement.
func innodbCosts() simdisk.CostModel {
	m := innodb.DefaultCosts()
	m.Stmt, m.UpdateStmt, m.CPUs = innodbServiceTime, 2*updateServiceTime, serviceWidth
	return m
}

// --- Figure 3: throughput scaling vs. stand-alone InnoDB ---------------------

// Fig3Row is one bar of Figure 3.
type Fig3Row struct {
	Mix      string
	Config   string // "innodb", "dmv-1", "dmv-2", ...
	WIPS     float64
	AbortPct float64 // read-only aborts due to version inconsistency
	Speedup  float64 // vs. the innodb row of the same mix
}

// Fig3Opts parameterize the scaling experiment.
type Fig3Opts struct {
	Scale       tpcw.Scale
	Dur         Durations
	SlaveCounts []int
	Mixes       []tpcw.Mix
}

// DefaultFig3Opts mirrors the paper's configurations: 1, 2, 4 and 8 slaves
// against a stand-alone InnoDB, for all three mixes, at the database size
// EXPERIMENTS.md's Figure 3 table was recorded at.
func DefaultFig3Opts(d Durations) Fig3Opts {
	return Fig3Opts{
		Scale:       tpcw.Scale{Items: 2000, Customers: 1000},
		Dur:         d,
		SlaveCounts: []int{1, 2, 4, 8},
		Mixes:       []tpcw.Mix{tpcw.BrowsingMix, tpcw.ShoppingMix, tpcw.OrderingMix},
	}
}

// Figure3 measures peak throughput for a stand-alone on-disk database and
// for DMV tiers of increasing size, per mix.
func Figure3(opts Fig3Opts) ([]Fig3Row, error) {
	var rows []Fig3Row
	for _, mix := range opts.Mixes {
		// Baseline: fine-tuned stand-alone InnoDB (serializable).
		db, err := innodb.Open("inno", innodb.Config{
			Costs:       innodbCosts(),
			LockTimeout: lockTimeout,
			PageCap:     benchPageCap,
		}, tpcw.SchemaDDL(), opts.Scale.Load)
		if err != nil {
			return nil, err
		}
		w := tpcw.NewWorkload(harness.InnoDBStore{DB: db}, opts.Scale)
		base := harness.Run(harness.RunConfig{
			Workload: w,
			Mix:      mix,
			Clients:  opts.Dur.Clients,
			Duration: opts.Dur.Measure,
			Warmup:   opts.Dur.Warmup,
			Window:   opts.Dur.Window,
			Seed:     opts.Dur.Seed,
		})
		rows = append(rows, Fig3Row{Mix: mix.Name, Config: "innodb", WIPS: base.WIPS, Speedup: 1})

		for _, n := range opts.SlaveCounts {
			c, err := cluster.New(cluster.Config{
				Slaves:     n,
				SchemaDDL:  tpcw.SchemaDDL(),
				Load:       opts.Scale.Load,
				MaxRetries: 30,
				Costs:      nodeCPU,
				EngineOptions: func(string) heap.Options {
					return heap.Options{PageCap: benchPageCap, LockTimeout: lockTimeout}
				},
			})
			if err != nil {
				return nil, err
			}
			w := tpcw.NewWorkload(harness.DMVStore{C: c}, opts.Scale)
			// Closed loop: clients scale with tier size so the larger tiers
			// are offered enough load without queueing so deep that version
			// drains stall (the paper ramps 100..1000 clients and reports
			// the peak).
			res := harness.Run(harness.RunConfig{
				Workload: w,
				Mix:      mix,
				Clients:  6 * (n + 1),
				Duration: opts.Dur.Measure,
				Warmup:   opts.Dur.Warmup,
				Window:   opts.Dur.Window,
				Seed:     opts.Dur.Seed,
			})
			st := c.Scheduler().Stats()
			abortPct := 0.0
			if reads := st.ReadTxns.Load(); reads > 0 {
				abortPct = 100 * float64(st.VersionAborts.Load()) / float64(reads+st.VersionAborts.Load())
			}
			rows = append(rows, Fig3Row{
				Mix:      mix.Name,
				Config:   fmt.Sprintf("dmv-%d", n),
				WIPS:     res.WIPS,
				AbortPct: abortPct,
				Speedup:  harness.Speedup(res.WIPS, base.WIPS),
			})
			c.Close()
		}
	}
	return rows, nil
}

// --- fail-over experiment plumbing (Figures 4-9) ------------------------------

// FailoverResult is the outcome of one fault-injection run.
type FailoverResult struct {
	Name     string
	Baseline float64 // mean WIPS before the fault
	DipMin   float64 // lowest bucket after the fault
	PostMean float64 // mean WIPS in the second after the fault
	Recovery time.Duration
	Events   []cluster.Event
	Stages   map[string]time.Duration // fig 6 breakdown
	// SpareResident is the number of pages resident in spare0's buffer
	// cache just before the fault (0 without a spare): the cache the spare
	// takes over with in Figures 7-9.
	SpareResident int
}

// StageBreakdown folds a cluster's obs event timeline into the paper's
// fail-over stage durations (Figure 6 naming). Stage-completion events carry
// the duration measured by the cluster's fail-over pipeline; repeated stages
// (e.g. two reintegrations) accumulate. This is the single place the event
// kinds are mapped to stage labels; nothing times stages itself.
func StageBreakdown(events []cluster.Event) map[string]time.Duration {
	label := map[cluster.EventKind]string{
		cluster.EventRecoveryDone:   "Recovery",
		cluster.EventMigrationDone:  "DB Update",
		cluster.EventReintegrated:   "Reintegration",
		cluster.EventNodeRestarted:  "Restart",
		cluster.EventSpareActivated: "Spare Activation",
	}
	stages := map[string]time.Duration{}
	for _, ev := range events {
		if name, ok := label[ev.Kind]; ok && ev.Duration > 0 {
			stages[name] += ev.Duration
		}
	}
	return stages
}

func analyze(name string, res *harness.RunResult, window, faultAt time.Duration, events []cluster.Event) *FailoverResult {
	series := res.Timeline.Series()
	// The final bucket is partial (measurement stops mid-bucket) and reads
	// artificially low; drop it so it cannot masquerade as degradation.
	if len(series) > 1 {
		series = series[:len(series)-1]
	}
	// Skip the first second of the measured period when estimating the
	// baseline: the closed loop is still settling after the warm-up cut.
	baseStart := time.Second
	if baseStart >= faultAt {
		baseStart = 0
	}
	baseline := harness.Mean(series, window, baseStart, faultAt)
	dip := baseline
	for i := int(faultAt / window); i < len(series); i++ {
		if series[i].Throughput < dip {
			dip = series[i].Throughput
		}
	}
	return &FailoverResult{
		Name:     name,
		Baseline: baseline,
		DipMin:   dip,
		PostMean: harness.Mean(series, window, faultAt, faultAt+time.Second),
		Recovery: harness.RecoveryTime(series, window, faultAt, baseline, 0.75),
		Events:   events,
		Stages:   StageBreakdown(events),
	}
}

// dmvFailoverConfig builds a DMV cluster with bounded per-node buffer caches
// so the cache-warm-up effects of Figures 7-9 are visible. pageCap is kept
// small so the database spans enough pages for the cache to matter.
type dmvFailoverConfig struct {
	slaves    int
	spares    int
	spareMode cluster.SpareMode
	refresh   time.Duration
	warmShare float64
	pageIDs   time.Duration
	cachePct  float64 // cache capacity as a fraction of total pages
	checkpt   time.Duration
}

func buildDMV(scale tpcw.Scale, fc dmvFailoverConfig) (*cluster.Cluster, error) {
	const (
		pageCap = 8
		// pageFault is the cost of swapping one page into a cold buffer
		// cache (a 2007-era disk read); it must dominate the per-statement
		// service time or warm-up effects would be invisible.
		pageFault = 10 * time.Millisecond
	)
	// Estimate total pages to size the cache.
	sc := scale
	totalRows := sc.Items + sc.Customers*3 + sc.NumOrders()*(1+1) + sc.NumOrders()*3
	totalPages := totalRows / pageCap
	cachePages := int(float64(totalPages) * fc.cachePct)
	if cachePages < 16 {
		cachePages = 16
	}

	// Each node's simdisk: the CPU model plus a buffer cache faulting
	// pages in at pageFault.
	costs := nodeCPU
	costs.PageMiss = pageFault
	return cluster.New(cluster.Config{
		Slaves:           fc.slaves,
		Spares:           fc.spares,
		SpareMode:        fc.spareMode,
		StaleRefresh:     fc.refresh,
		SchemaDDL:        tpcw.SchemaDDL(),
		Load:             scale.Load,
		MaxRetries:       50,
		WarmupShare:      fc.warmShare,
		PageIDTransfer:   fc.pageIDs,
		CheckpointPeriod: fc.checkpt,
		Costs:            costs,
		CachePages:       cachePages,
		EngineOptions: func(id string) heap.Options {
			return heap.Options{PageCap: pageCap, LockTimeout: lockTimeout}
		},
	})
}

// runDMVFailover drives the workload, fires fault at FaultAt, and analyzes.
func runDMVFailover(name string, scale tpcw.Scale, fc dmvFailoverConfig, d Durations, fault func(c *cluster.Cluster)) (*FailoverResult, error) {
	c, err := buildDMV(scale, fc)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	var spare *simdisk.Disk
	if n, ok := c.Node("spare0"); ok {
		spare = n.Disk()
	}
	w := tpcw.NewWorkload(harness.DMVStore{C: c}, scale)
	var spareResident int
	done := make(chan struct{})
	go func() {
		defer close(done)
		harness.RealClock{}.Sleep(d.Warmup + d.FaultAt)
		if spare != nil {
			spareResident = spare.ResidentCount()
		}
		fault(c)
	}()
	res := harness.Run(harness.RunConfig{
		Workload: w,
		Mix:      tpcw.ShoppingMix,
		Clients:  d.Clients,
		Duration: d.Measure,
		Warmup:   d.Warmup,
		Window:   d.Window,
		Seed:     d.Seed,
	})
	<-done
	r := analyze(name, res, d.Window, d.FaultAt, c.Events())
	r.SpareResident = spareResident
	return r, nil
}

// --- Figure 4: node reintegration --------------------------------------------

// Figure4 kills the master mid-run, lets the cluster fail over, then
// "reboots" the failed node after downtime and reintegrates it as a slave
// (the paper's worst case: all modifications since the run's start are
// migrated because the checkpoint is older than the run).
func Figure4(scale tpcw.Scale, d Durations, downtime time.Duration) (*FailoverResult, error) {
	fc := dmvFailoverConfig{
		slaves:   4,
		cachePct: 1.0,       // Figure 4 measures migration, not cache effects
		checkpt:  time.Hour, // worst case: no useful checkpoint lands mid-run
	}
	var killed string
	return runDMVFailover("fig4-reintegration", scale, fc, d, func(c *cluster.Cluster) {
		killed = c.MasterID(0)
		_ = c.Kill(killed)
		go func() {
			harness.RealClock{}.Sleep(downtime)
			_ = c.Restart(killed)
		}()
	})
}

// --- Figure 5: fail-over onto a stale backup ----------------------------------

// Figure5DMV reproduces 5(c,d): master + two active slaves + one stale
// spare; the master is killed (worst case, includes master reconfiguration).
func Figure5DMV(scale tpcw.Scale, d Durations) (*FailoverResult, error) {
	fc := dmvFailoverConfig{
		slaves:    2,
		spares:    1,
		spareMode: cluster.SpareStale,
		cachePct:  0.5,
	}
	return runDMVFailover("fig5-dmv-stale", scale, fc, d, func(c *cluster.Cluster) {
		_ = c.KillMaster()
	})
}

// Figure5InnoDB reproduces 5(a,b): a replicated on-disk tier with two
// actives and a periodically refreshed spare; one active is killed and the
// spare catches up by replaying the on-disk log.
func Figure5InnoDB(scale tpcw.Scale, d Durations) (*FailoverResult, error) {
	// Bounded buffer pool: the promoted spare must warm its cache too, just
	// like the DMV backups in Figures 7-9.
	totalRows := scale.Items + scale.Customers*3 + scale.NumOrders()*2 + scale.NumOrders()*3
	cachePages := totalRows / benchPageCap / 2
	tier, err := innodb.NewTier(innodb.TierConfig{
		Actives:      2,
		WithSpare:    true,
		SpareRefresh: time.Hour, // stale for the whole run
		DB: innodb.Config{
			Costs:         innodbCosts(),
			CacheCapacity: cachePages,
			PageCap:       benchPageCap,
			LockTimeout:   lockTimeout,
		},
		DDL:  tpcw.SchemaDDL(),
		Load: scale.Load,
	})
	if err != nil {
		return nil, err
	}
	defer tier.Close()
	w := tpcw.NewWorkload(harness.InnoDBTierStore{T: tier}, scale)
	done := make(chan struct{})
	go func() {
		defer close(done)
		harness.RealClock{}.Sleep(d.Warmup + d.FaultAt)
		tier.KillActive(1)
	}()
	res := harness.Run(harness.RunConfig{
		Workload: w,
		Mix:      tpcw.ShoppingMix,
		Clients:  d.Clients,
		Duration: d.Measure,
		Warmup:   d.Warmup,
		Window:   d.Window,
		Seed:     d.Seed,
	})
	<-done
	out := analyze("fig5-innodb-stale", res, d.Window, d.FaultAt, nil)
	out.Stages = map[string]time.Duration{}
	for _, st := range tier.Stages() {
		out.Stages["DB Update (log replay)"] = st.Replay
	}
	return out, nil
}

// --- Figure 6: fail-over stage weights ----------------------------------------

// Fig6Row is one bar group of Figure 6.
type Fig6Row struct {
	System  string
	Stage   string
	Seconds float64
}

// Figure6 derives the stage breakdown from fresh Figure 5 runs: recovery
// (abort partials + election), data migration (DB update), and cache warm-up
// (rest of the throughput dip).
func Figure6(scale tpcw.Scale, d Durations) ([]Fig6Row, *FailoverResult, *FailoverResult, error) {
	dmv, err := Figure5DMV(scale, d)
	if err != nil {
		return nil, nil, nil, err
	}
	inno, err := Figure5InnoDB(scale, d)
	if err != nil {
		return nil, nil, nil, err
	}
	var rows []Fig6Row
	recovery := dmv.Stages["Recovery"]
	migration := dmv.Stages["DB Update"]
	warmup := dmv.Recovery - recovery - migration
	if warmup < 0 {
		warmup = 0
	}
	rows = append(rows,
		Fig6Row{System: "DMV", Stage: "Recovery", Seconds: recovery.Seconds()},
		Fig6Row{System: "DMV", Stage: "DB Update", Seconds: migration.Seconds()},
		Fig6Row{System: "DMV", Stage: "Cache Warmup", Seconds: warmup.Seconds()},
	)
	replay := inno.Stages["DB Update (log replay)"]
	innoWarm := inno.Recovery - replay
	if innoWarm < 0 {
		innoWarm = 0
	}
	rows = append(rows,
		Fig6Row{System: "InnoDB", Stage: "Recovery", Seconds: 0},
		Fig6Row{System: "InnoDB", Stage: "DB Update", Seconds: replay.Seconds()},
		Fig6Row{System: "InnoDB", Stage: "Cache Warmup", Seconds: innoWarm.Seconds()},
	)
	return rows, dmv, inno, nil
}

// --- Figures 7-9: up-to-date backups, cold vs. warm ----------------------------

// Figure7 kills the active slave with an up-to-date but cache-cold spare.
func Figure7(scale tpcw.Scale, d Durations) (*FailoverResult, error) {
	fc := dmvFailoverConfig{
		slaves:    1,
		spares:    1,
		spareMode: cluster.SpareHot,
		cachePct:  0.55, // cache holds the working set but not the whole database
	}
	return runDMVFailover("fig7-cold-backup", scale, fc, d, func(c *cluster.Cluster) {
		_ = c.Kill("slave0")
	})
}

// Figure8 is Figure 7 plus the 1%-of-reads warm-up scheme.
func Figure8(scale tpcw.Scale, d Durations) (*FailoverResult, error) {
	fc := dmvFailoverConfig{
		slaves:    1,
		spares:    1,
		spareMode: cluster.SpareHot,
		cachePct:  0.55,
		// The paper routes <1% of reads to the spare over a 17-minute run;
		// in this compressed-time run the share is scaled up so the spare
		// receives a comparable number of warm-up queries before the fault.
		warmShare: 0.05,
	}
	return runDMVFailover("fig8-warm-1pct-queries", scale, fc, d, func(c *cluster.Cluster) {
		_ = c.Kill("slave0")
	})
}

// Figure9 is Figure 7 plus the page-id-transfer warm-up scheme.
func Figure9(scale tpcw.Scale, d Durations) (*FailoverResult, error) {
	fc := dmvFailoverConfig{
		slaves:    1,
		spares:    1,
		spareMode: cluster.SpareHot,
		cachePct:  0.55,
		pageIDs:   100 * time.Millisecond,
	}
	return runDMVFailover("fig9-warm-pageids", scale, fc, d, func(c *cluster.Cluster) {
		_ = c.Kill("slave0")
	})
}

// --- ablations (DESIGN.md section 5) ------------------------------------------

// AblationVersionAffinity measures read aborts with and without the
// version-aware replica selection.
func AblationVersionAffinity(scale tpcw.Scale, d Durations) (withPct, withoutPct float64, err error) {
	run := func(noAffinity bool) (float64, error) {
		c, err := cluster.New(cluster.Config{
			Slaves:            3,
			SchemaDDL:         tpcw.SchemaDDL(),
			Load:              scale.Load,
			MaxRetries:        50,
			NoVersionAffinity: noAffinity,
			Costs:             nodeCPU,
		})
		if err != nil {
			return 0, err
		}
		defer c.Close()
		w := tpcw.NewWorkload(harness.DMVStore{C: c}, scale)
		harness.Run(harness.RunConfig{
			Workload: w,
			Mix:      tpcw.OrderingMix, // write-heavy: versions move fast
			Clients:  d.Clients,
			Duration: d.Measure,
			Warmup:   d.Warmup,
			Window:   d.Window,
			Seed:     d.Seed,
		})
		st := c.Scheduler().Stats()
		reads := st.ReadTxns.Load() + st.VersionAborts.Load()
		if reads == 0 {
			return 0, nil
		}
		return 100 * float64(st.VersionAborts.Load()) / float64(reads), nil
	}
	if withPct, err = run(false); err != nil {
		return 0, 0, err
	}
	if withoutPct, err = run(true); err != nil {
		return 0, 0, err
	}
	return withPct, withoutPct, nil
}

// AblationConflictClasses compares a single update master against two
// conflict-class masters. TPC-W itself cannot be split — BuyConfirm touches
// both the order-entry tables and the customer balance, so its transactions
// span any table partition and the paper's fallback ("all update
// transactions are scheduled on a single node designated as master")
// applies. The ablation therefore uses a synthetic workload of two
// independent update streams over disjoint tables, the situation conflict
// classes are designed for.
func AblationConflictClasses(d Durations) (single, multi float64, err error) {
	ddl := []string{
		`CREATE TABLE t0 (id INT PRIMARY KEY, v INT)`,
		`CREATE TABLE t1 (id INT PRIMARY KEY, v INT)`,
	}
	load := func(e *heap.Engine) error {
		for _, name := range []string{"t0", "t1"} {
			tid, _ := e.TableID(name)
			rows := make([]value.Row, 200)
			for i := range rows {
				rows[i] = value.Row{value.NewInt(int64(i + 1)), value.NewInt(0)}
			}
			if err := e.Load(tid, rows); err != nil {
				return err
			}
		}
		return nil
	}
	run := func(classes []scheduler.ConflictClass) (float64, error) {
		c, err := cluster.New(cluster.Config{
			Slaves:     1,
			Classes:    classes,
			SchemaDDL:  ddl,
			Load:       load,
			MaxRetries: 50,
			Costs:      nodeCPU,
		})
		if err != nil {
			return 0, err
		}
		defer c.Close()
		stop := make(chan struct{})
		var committed atomic.Int64
		var workers sync.WaitGroup
		for w := 0; w < d.Clients; w++ {
			workers.Add(1)
			go func(w int) {
				defer workers.Done()
				table := fmt.Sprintf("t%d", w%2)
				stmt := `UPDATE ` + table + ` SET v = v + 1 WHERE id = ?`
				i := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					i++
					err := c.Run(scheduler.TxnSpec{Tables: []string{table}}, func(tx *scheduler.Txn) error {
						_, err := tx.Exec(stmt, value.NewInt(int64(i%200+1)))
						return err
					})
					if err == nil {
						committed.Add(1)
					}
				}
			}(w)
		}
		harness.RealClock{}.Sleep(d.Warmup)
		committed.Store(0)
		harness.RealClock{}.Sleep(d.Measure)
		total := committed.Load()
		close(stop)
		workers.Wait()
		return float64(total) / d.Measure.Seconds(), nil
	}
	if single, err = run(nil); err != nil {
		return 0, 0, err
	}
	multi, err = run([]scheduler.ConflictClass{
		{Name: "c0", Tables: []string{"t0"}},
		{Name: "c1", Tables: []string{"t1"}},
	})
	if err != nil {
		return 0, 0, err
	}
	return single, multi, nil
}
