package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"dmv/internal/exec"
	"dmv/internal/obs"
	"dmv/internal/sql"
)

// replaySample is how many statements of each class the statement-replay
// probe times; pingCalls is the transport probe's call count.
const (
	replaySample = 2000
	pingCalls    = 2000
	parseRounds  = 20
	parseBatches = 5
)

// schedulerSide are the Peer calls the scheduler makes on a client's behalf;
// they sit back to back on the interaction's blocking path.
var schedulerSide = []spanKind{kBegin, kExec, kCommit, kRollback}

// breakdown is where one transaction of a class spends its time, as means
// per transaction over the traced window: the README's table is printed
// from it. Ack wait lies inside commit, fsync inside on-commit.
type breakdown struct {
	Class       string  `json:"class"`
	Txns        int64   `json:"txns"`
	TotalUS     float64 `json:"total_us"`
	SchedulerUS float64 `json:"scheduler_us"`
	BeginUS     float64 `json:"begin_us"`
	ExecUS      float64 `json:"exec_us"`
	Stmts       float64 `json:"stmts"`
	CommitUS    float64 `json:"commit_us"`
	AckWaitUS   float64 `json:"ack_wait_us"`
	RollbackUS  float64 `json:"rollback_us"`
	OnCommitUS  float64 `json:"on_commit_us"`
	FsyncUS     float64 `json:"fsync_us"`
}

type agg struct {
	n  int64
	ns int64
}

func (a agg) meanUS() float64 { return ratio(float64(a.ns)/1e3, float64(a.n)) }

// account turns one traced repetition into the per-layer metrics. Every
// mean is a ratio of two aggregate sums over the window, so no metric
// depends on joining a span to its parent.
func account(top *topology, w workload, seed int64, res *repResult, before, after obs.Snapshot,
	ping pingProbe, lagMax int) error {

	spans := top.tr.spans.items()
	var by [numKinds][2]agg // [kind][update]
	var attempts, committed [2]int64
	readBegins := make([]int64, len(top.nodes))
	ackWait := make(map[uint64]int64, 1024) // write-set tx id -> slowest subscriber
	var wsPages, wsMods, wsBytes, wsSeen int64
	for _, s := range spans {
		u := 0
		if s.Update {
			u = 1
		}
		by[s.Kind][u].n++
		by[s.Kind][u].ns += s.dur()
		switch s.Kind {
		case kTxn:
			attempts[u] += int64(s.A)
			if !s.Failed {
				committed[u]++
			}
		case kBegin:
			if !s.Update {
				readBegins[s.Peer]++
			}
		case kWSRecv:
			if d := s.dur(); d > ackWait[s.Tx] {
				ackWait[s.Tx] = d
			}
			if s.Peer == 1 { // one subscriber sees each write-set once
				wsSeen++
				wsPages += int64(s.A)
				wsMods += int64(s.B)
				wsBytes += int64(s.C)
			}
		}
	}
	both := func(k spanKind) agg {
		return agg{by[k][0].n + by[k][1].n, by[k][0].ns + by[k][1].ns}
	}
	interactions := float64(both(kInteraction).n)
	txns := both(kTxn)
	onCommit := both(kOnCommit)
	fsync := both(kFsync)
	wsRecv := both(kWSRecv)

	m := make(map[string]float64, 64)

	// scheduler
	var peerCalls agg
	for _, k := range schedulerSide {
		peerCalls.n += both(k).n
		peerCalls.ns += both(k).ns
	}
	m["scheduler.txn_us"] = txns.meanUS()
	m["scheduler.self_us"] = ratio(float64(txns.ns-peerCalls.ns-onCommit.ns)/1e3, float64(txns.n))
	m["scheduler.attempts_per_txn"] = ratio(float64(attempts[0]+attempts[1]), float64(committed[0]+committed[1]))
	delta := func(name string) float64 { return float64(after.Counter(name) - before.Counter(name)) }
	m["scheduler.abort_version_pct"] = 100 * ratio(delta(obs.SchedAbortVersion), float64(attempts[0]))
	m["scheduler.abort_lock_pct"] = 100 * ratio(delta(obs.SchedAbortLockTimeout), float64(attempts[1]))
	var maxBegins, allBegins int64
	for _, n := range readBegins {
		allBegins += n
		if n > maxBegins {
			maxBegins = n
		}
	}
	m["scheduler.read_skew"] = ratio(float64(maxBegins), float64(allBegins))

	// replica (the wire is inside these on the tcp workload)
	m["replica.begin_us"] = both(kBegin).meanUS()
	m["replica.exec_read_us"] = by[kExec][0].meanUS()
	m["replica.exec_update_us"] = by[kExec][1].meanUS()
	m["replica.commit_read_us"] = by[kCommit][0].meanUS()
	m["replica.commit_update_us"] = by[kCommit][1].meanUS()
	var ackNs int64
	for _, d := range ackWait {
		ackNs += d
	}
	m["replica.ack_wait_us"] = ratio(float64(ackNs)/1e3, float64(len(ackWait)))
	m["replica.commit_self_us"] = m["replica.commit_update_us"] - m["replica.ack_wait_us"]
	m["replica.ws_recv_us"] = wsRecv.meanUS()
	m["replica.ws_pages_per_commit"] = ratio(float64(wsPages), float64(wsSeen))
	m["replica.ws_mods_per_commit"] = ratio(float64(wsMods), float64(wsSeen))
	m["replica.ws_bytes_per_commit"] = ratio(float64(wsBytes), float64(wsSeen))

	// transport: zero unless the peers are remote
	for _, name := range []string{"transport.rtt_floor_us", "transport.allocs_per_call",
		"transport.calls_per_interaction", "transport.bytes_per_interaction", "transport.wire_us_per_interaction"} {
		m[name] = 0
	}
	if w.tcp {
		m["transport.rtt_floor_us"] = ping.rttUS
		m["transport.allocs_per_call"] = ping.allocs
		m["transport.calls_per_interaction"] = float64(peerCalls.n+wsRecv.n) / interactions
		m["transport.bytes_per_interaction"] = (delta(obs.TransportBytesIn) + delta(obs.TransportBytesOut)) / interactions
	}
	res.calls = map[string]float64{
		"replica.begin_us":         float64(both(kBegin).n),
		"replica.exec_read_us":     float64(by[kExec][0].n),
		"replica.exec_update_us":   float64(by[kExec][1].n),
		"replica.commit_read_us":   float64(by[kCommit][0].n),
		"replica.commit_update_us": float64(by[kCommit][1].n),
	}
	res.residualPct = 100 * ratio(float64(both(kInteraction).ns-txns.ns), float64(both(kInteraction).ns))
	for u, class := range []string{"read", "update"} {
		per := func(a agg) float64 { return ratio(float64(a.ns)/1e3, float64(by[kTxn][u].n)) }
		peers := agg{}
		for _, k := range schedulerSide {
			peers.ns += by[k][u].ns
		}
		b := breakdown{Class: class, Txns: by[kTxn][u].n, TotalUS: per(by[kTxn][u]), BeginUS: per(by[kBegin][u]),
			ExecUS: per(by[kExec][u]), CommitUS: per(by[kCommit][u]), RollbackUS: per(by[kRollback][u]),
			Stmts: ratio(float64(by[kExec][u].n), float64(by[kTxn][u].n))}
		if u == 1 {
			b.AckWaitUS = ratio(float64(ackNs)/1e3, float64(by[kTxn][u].n))
			b.OnCommitUS, b.FsyncUS = per(onCommit), per(fsync)
		}
		b.SchedulerUS = b.TotalUS - per(peers) - b.OnCommitUS
		res.breakdown = append(res.breakdown, b)
	}

	// registry reads (existing names only)
	histSum := func(name string) float64 {
		return float64(after.Histograms[name].Sum - before.Histograms[name].Sum)
	}
	m["heap.lock_wait_us_per_update"] = ratio(histSum(obs.HeapLockWaitUS), float64(committed[1]))
	m["heap.lazy_mods_per_read"] = ratio(histSum(obs.HeapLazyApplyDist), float64(committed[0]))

	// persist / wal: zero unless a persistence tier acks the commit
	m["persist.on_commit_us"] = onCommit.meanUS()
	m["persist.self_us"] = ratio(float64(onCommit.ns-fsync.ns)/1e3, float64(onCommit.n))
	m["wal.fsync_us"] = fsync.meanUS()
	m["wal.fsyncs_per_commit"] = ratio(float64(fsync.n), float64(onCommit.n))
	m["wal.bytes_per_commit"] = ratio(float64(top.tr.walBytes.Load()), float64(onCommit.n))
	m["persist.apply_lag_max"] = float64(lagMax)
	m["persist.drain_s"] = res.DrainS

	m["runtime.gc_cpu_pct"] = res.GCCPUPct
	m["runtime.gc_cycles_per_kilo_interaction"] = res.GCPerKilo

	res.layers = m
	if err := probeStatements(top, seed, m, interactions); err != nil {
		return err
	}
	return probeWriteSets(top, m)
}

// pingProbe is the idle cost of one round trip on the run's own connection.
type pingProbe struct {
	rttUS  float64
	allocs float64
}

// probeTransport pings one slave over the scheduler's connection from a
// single goroutine while nothing else runs. Client and server share the
// process, so the allocation count covers both ends.
func probeTransport(top *topology) (pingProbe, error) {
	r := top.remotes[1]
	lat := make([]float64, pingCalls)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range lat {
		t := time.Now()
		if err := r.Ping(); err != nil {
			return pingProbe{}, fmt.Errorf("ping %s: %w", r.ID(), err)
		}
		lat[i] = float64(time.Since(t)) / 1e3
	}
	runtime.ReadMemStats(&m1)
	sort.Float64s(lat)
	return pingProbe{rttUS: percentile(lat, 0.5), allocs: float64(m1.Mallocs-m0.Mallocs) / pingCalls}, nil
}

// probeStatements works on the statements the tracer kept, outside the tier
// and single-threaded: what parsing and preparing would cost if no cache
// held the statement, and how a statement's time splits between the
// executor and the storage engine under it.
func probeStatements(top *topology, seed int64, m map[string]float64, interactions float64) error {
	tr := top.tr
	prepared := make(map[string]*exec.Prepared, 64)
	prepare := func(text string) (*exec.Prepared, error) {
		if p, ok := prepared[text]; ok {
			return p, nil
		}
		p, err := exec.Prepare(text)
		if err != nil {
			return nil, fmt.Errorf("prepare %q: %w", text, err)
		}
		prepared[text] = p
		return p, nil
	}

	// Frequency-weighted cost of a parse and of a prepare. Each is timed in
	// a few batches and the median batch kept, so a collection that lands in
	// one batch does not pass for parsing.
	costNs := func(f func(string) error, text string) (float64, error) {
		batches := make([]float64, parseBatches)
		for b := range batches {
			t := time.Now()
			for i := 0; i < parseRounds; i++ {
				if err := f(text); err != nil {
					return 0, err
				}
			}
			batches[b] = float64(time.Since(t)) / parseRounds
		}
		return median(batches), nil
	}
	var parseNs, prepNs, stmts float64
	distinct := 0
	var perr error
	tr.freq.Range(func(k, v any) bool {
		text, n := k.(string), float64(v.(*atomic.Int64).Load())
		var parse, prep float64
		parse, perr = costNs(func(s string) error { _, err := sql.Parse(s); return err }, text)
		if perr == nil {
			prep, perr = costNs(func(s string) error { _, err := exec.Prepare(s); return err }, text)
		}
		parseNs += parse * n
		prepNs += prep * n
		stmts += n
		distinct++
		return perr == nil
	})
	if perr != nil {
		return perr
	}
	m["sql.parse_us_per_stmt"] = ratio(parseNs/1e3, stmts)
	m["exec.prepare_us_per_stmt"] = ratio(prepNs/1e3, stmts)
	m["sql.distinct_stmts"] = float64(distinct)
	m["exec.stmts_per_interaction"] = stmts / interactions

	// Reads: a seeded sample of the kept read-only statements, on the
	// master's engine at its final version.
	reads := append([]stmtRec(nil), tr.reads.items()...)
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
	if len(reads) > replaySample {
		reads = reads[:replaySample]
	}
	eng := top.nodes[0].Engine()
	var stmtNs, heapNs, calls, fetched, returned int64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, s := range reads {
		p, err := prepare(s.text)
		if err != nil {
			return err
		}
		probe := &txnProbe{Txn: eng.BeginRead(eng.MaxVersions())}
		t := time.Now()
		out, err := p.Exec(probe, s.params)
		stmtNs += int64(time.Since(t))
		if err != nil {
			return fmt.Errorf("replay read %q: %w", s.text, err)
		}
		heapNs += probe.ns
		calls += probe.calls
		fetched += probe.rows
		returned += int64(len(out.Rows))
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(reads))
	m["exec.self_us_per_read_stmt"] = ratio(float64(stmtNs-heapNs)/1e3, n)
	m["exec.allocs_per_read_stmt"] = ratio(float64(m1.Mallocs-m0.Mallocs), n)
	m["exec.alloc_kb_per_read_stmt"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/1024, n)
	m["heap.read_us_per_read_stmt"] = ratio(float64(heapNs)/1e3, n)
	m["heap.calls_per_read_stmt"] = ratio(float64(calls), n)
	m["heap.rows_fetched_per_row_returned"] = ratio(float64(fetched), float64(returned))

	// Updates: the stream's first INSERT/UPDATE statements in commit order,
	// each committed on a fresh engine holding the initial image. They cannot
	// be replayed on the master, which already holds the keys they insert.
	fresh, err := newEngine(engineOptions)
	if err != nil {
		return err
	}
	stmtNs, heapNs = 0, 0
	var wrNs int64
	updates := tr.updates.items()
	for _, s := range updates {
		p, err := prepare(s.text)
		if err != nil {
			return err
		}
		tx := fresh.BeginUpdate()
		probe := &txnProbe{Txn: tx}
		t := time.Now()
		_, err = p.Exec(probe, s.params)
		stmtNs += int64(time.Since(t))
		if err != nil {
			_ = tx.Rollback() // the error below is the one reported
			return fmt.Errorf("replay update %q: %w", s.text, err)
		}
		if _, err := tx.Commit(nil); err != nil {
			return fmt.Errorf("replay update commit: %w", err)
		}
		heapNs += probe.ns
		wrNs += probe.wrNs
	}
	m["exec.self_us_per_update_stmt"] = ratio(float64(stmtNs-heapNs-wrNs)/1e3, float64(len(updates)))
	m["heap.write_us_per_update_stmt"] = ratio(float64(wrNs)/1e3, float64(len(updates)))
	return nil
}

// probeWriteSets replays every write-set the master shipped, in commit
// order, into a fresh engine the way a slave receives them: buffering
// (index entries published, page modifications queued), then applying the
// whole backlog at once.
func probeWriteSets(top *topology, m map[string]float64) error {
	m["heap.ws_buffer_us_per_ws"], m["heap.lazy_apply_us_per_mod"] = 0, 0
	if len(top.writeSets) == 0 {
		return nil
	}
	fresh, err := newEngine(engineOptions)
	if err != nil {
		return err
	}
	mods := 0
	t := time.Now()
	for _, ws := range top.writeSets {
		if err := fresh.ApplyWriteSet(ws); err != nil {
			return fmt.Errorf("replay write-set %d: %w", ws.TxID, err)
		}
		mods += len(ws.Records)
	}
	m["heap.ws_buffer_us_per_ws"] = float64(time.Since(t)) / 1e3 / float64(len(top.writeSets))
	t = time.Now()
	if err := fresh.MaterializeAll(fresh.MaxVersions()); err != nil {
		return fmt.Errorf("materialize replayed write-sets: %w", err)
	}
	m["heap.lazy_apply_us_per_mod"] = ratio(float64(time.Since(t))/1e3, float64(mods))
	return nil
}
