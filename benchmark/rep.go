package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"dmv/internal/obs"
	"dmv/internal/tpcw"
)

// config is what one run is made of.
type config struct {
	seed    int64
	n       int // measured interactions per client per repetition
	reps    int
	scratch string // directory for the durable workload's WAL
}

func (c config) warm() int { return c.n / 4 }

// repResult is one repetition: a freshly built topology, warm-up, then the
// measured window of exactly clients*n interactions.
type repResult struct {
	SetupS    float64
	WallS     float64
	Attempted int
	Failed    int
	FirstErr  string
	ReadUS    []float64 // latencies of measured interactions that returned nil
	UpdateUS  []float64
	UpdateOf  []tpcw.Interaction // the interaction behind each UpdateUS sample
	CPUUS     float64            // process user+sys CPU over the window, per interaction
	Allocs    float64            // heap objects allocated over the window, per interaction
	AllocKB   float64
	LiveMB    float64 // heap in use after a forced GC at the end of the window
	GCCPUPct  float64
	GCPerKilo float64
	DrainS    float64 // durable only: Tier.Flush after the last interaction

	// traced repetitions only
	layers      map[string]float64
	calls       map[string]float64 // scheduler-side Peer calls behind each replica.*_us mean
	residualPct float64            // share of interaction latency outside scheduler.Run
	breakdown   []breakdown
	tr          *tracer
}

// release frees what a traced repetition holds outside the Go heap.
func (r *repResult) release() {
	if r.tr != nil {
		r.tr.free()
	}
}

func (r *repResult) wips() float64 {
	return ratio(float64(r.Attempted-r.Failed), r.WallS)
}

// procSnapshot is the process-wide state read at both edges of the window.
type procSnapshot struct {
	cpu      time.Duration
	mallocs  uint64
	bytes    uint64
	gcCycles uint64
	gcCPU    float64
}

func readProc() procSnapshot {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return procSnapshot{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCPU:    s[0].Value.Float64(),
		gcCycles: s[1].Value.Uint64(),
	}
}

type client struct {
	sess     *tpcw.Session
	warm     []tpcw.Interaction
	deck     []tpcw.Interaction
	lat      []int64 // ns; -1 for an interaction that returned an error
	warmErrs int
	firstErr error
}

// newClients makes the per-client generators. The seed is their only input.
func newClients(w workload, cfg config, wl *tpcw.Workload) []*client {
	cs := make([]*client, clients)
	for c := range cs {
		r := rand.New(rand.NewSource(clientSeed(cfg.seed, c)))
		cs[c] = &client{
			sess: wl.NewSession(r.Int63()),
			warm: deck(w.mix, cfg.warm(), r),
			deck: deck(w.mix, cfg.n, r),
			lat:  make([]int64, cfg.n),
		}
	}
	return cs
}

// setupOnly builds a topology the way a repetition does, tears it down and
// returns the build time.
func setupOnly(w workload, cfg config) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	top, err := build(w, cfg.seed, nil, cfg.scratch, 1)
	if err != nil {
		return 0, err
	}
	wl := tpcw.NewWorkload(top.store, scale)
	newClients(w, cfg, wl)
	s := time.Since(t0).Seconds()
	top.close()
	return s, nil
}

// runRep builds a topology, drives the fixed work through it, checks the
// outputs and tears it down. A traced repetition decorates the seams and
// runs the replay probes.
func runRep(w workload, cfg config, traced bool) (*repResult, error) {
	var tr *tracer
	if traced {
		var err error
		if tr, err = newTracer(clients * cfg.n); err != nil {
			return nil, err
		}
	}
	done := false
	defer func() {
		if !done && tr != nil {
			tr.free()
		}
	}()
	runtime.GC()
	t0 := time.Now()
	top, err := build(w, cfg.seed, tr, cfg.scratch, clients*(cfg.n+cfg.warm()))
	if err != nil {
		return nil, err
	}
	defer top.close()
	wl := tpcw.NewWorkload(top.store, scale)
	cs := newClients(w, cfg, wl)
	res := &repResult{SetupS: time.Since(t0).Seconds(), Attempted: clients * cfg.n, tr: tr}

	var ping pingProbe
	if traced && w.tcp {
		if ping, err = probeTransport(top); err != nil {
			return nil, err
		}
	}

	var ready, finished sync.WaitGroup
	start := make(chan struct{})
	for c, cl := range cs {
		ready.Add(1)
		finished.Add(1)
		go func(c int, cl *client) {
			defer finished.Done()
			for _, it := range cl.warm {
				if err := wl.Do(cl.sess, it); err != nil {
					cl.warmErrs++
				}
			}
			ready.Done()
			<-start
			for i, it := range cl.deck {
				id := int32(-1)
				if tr != nil {
					id = tr.open()
				}
				t := time.Now()
				err := wl.Do(cl.sess, it)
				d := time.Since(t)
				if tr != nil {
					// The same two clock readings as the latency, so the span
					// encloses everything recorded inside the interaction.
					from := int64(t.Sub(tr.epoch))
					tr.close(id, span{Kind: kInteraction, Update: it.IsUpdate(), Failed: err != nil, Peer: -1,
						Client: int16(c), Ordinal: int32(i), Parent: -1, Start: from, End: from + int64(d)})
				}
				cl.lat[i] = int64(d)
				if err != nil {
					cl.lat[i] = -1
					if cl.firstErr == nil {
						cl.firstErr = fmt.Errorf("client %d interaction %d (%s): %w", c, i, it, err)
					}
				}
			}
		}(c, cl)
	}
	ready.Wait()

	// The window: both clients are parked, caches are warm.
	runtime.GC()
	var regBefore obs.Snapshot
	var lag *lagSampler
	if traced {
		regBefore = top.reg.Snapshot()
		if w.durable {
			lag = startLagSampler(top)
		}
		tr.on.Store(true)
	}
	before := readProc()
	ws := time.Now()
	close(start)
	finished.Wait()
	res.WallS = time.Since(ws).Seconds()
	after := readProc()
	if traced {
		tr.on.Store(false)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	res.LiveMB = float64(ms.HeapAlloc) / (1 << 20)

	warmErrs := 0
	for _, cl := range cs {
		warmErrs += cl.warmErrs
		for i, ns := range cl.lat {
			switch {
			case ns < 0:
				res.Failed++
			case cl.deck[i].IsUpdate():
				res.UpdateUS = append(res.UpdateUS, float64(ns)/1e3)
				res.UpdateOf = append(res.UpdateOf, cl.deck[i])
			default:
				res.ReadUS = append(res.ReadUS, float64(ns)/1e3)
			}
		}
		if cl.firstErr != nil && res.FirstErr == "" {
			res.FirstErr = cl.firstErr.Error()
		}
	}
	n := float64(res.Attempted)
	res.CPUUS = float64((after.cpu - before.cpu).Microseconds()) / n
	res.Allocs = float64(after.mallocs-before.mallocs) / n
	res.AllocKB = float64(after.bytes-before.bytes) / 1024 / n
	res.GCCPUPct = 100 * ratio(after.gcCPU-before.gcCPU, (after.cpu-before.cpu).Seconds())
	res.GCPerKilo = 1000 * float64(after.gcCycles-before.gcCycles) / n

	lagMax := 0
	if lag != nil {
		lagMax = lag.stop()
	}
	if top.tier != nil {
		t := time.Now()
		top.tier.Flush()
		res.DrainS = time.Since(t).Seconds()
	}
	select {
	case err := <-top.tierErr:
		return nil, fmt.Errorf("%s: persistence tier: %w", w.name, err)
	default:
	}

	var regAfter obs.Snapshot
	if traced {
		regAfter = top.reg.Snapshot() // before the oracle's own reads move the counters
	}
	if err := verify(top, w, res.Failed+warmErrs); err != nil {
		return nil, fmt.Errorf("%s: correctness oracle: %w", w.name, err)
	}
	if traced {
		if dropped := tr.spans.dropped.Load() + tr.reads.dropped.Load(); dropped > 0 {
			return nil, fmt.Errorf("%s: trace buffers overflowed, %d records dropped", w.name, dropped)
		}
		if err := account(top, w, cfg.seed, res, regBefore, regAfter, ping, lagMax); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", w.name, err)
		}
	}
	done = true
	return res, nil
}

// lagSampler watches the persistence tier's background debt at 10 Hz.
type lagSampler struct {
	quit chan struct{}
	done chan struct{}
	max  int
}

func startLagSampler(top *topology) *lagSampler {
	s := &lagSampler{quit: make(chan struct{}), done: make(chan struct{})}
	tier, backend := top.tier, top.backend
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				if lag := tier.LogLen() - backend.Applied(); lag > s.max {
					s.max = lag
				}
			}
		}
	}()
	return s
}

// stop ends the sampler and returns the largest lag it saw.
func (s *lagSampler) stop() int {
	close(s.quit)
	<-s.done
	return s.max
}
