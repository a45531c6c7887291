package harness

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dmv/internal/replica"
	"dmv/internal/scheduler"
)

// OpenLoopConfig drives one open-loop (arrival-driven) run: interactions
// arrive on a seeded Poisson process regardless of how many are still in
// flight, the load pattern that actually produces stampedes. A closed loop
// self-throttles — every stalled client is one fewer offering load — so it
// can never push a system past saturation; an open loop keeps offering and
// exposes whether admission control sheds or latency collapses.
type OpenLoopConfig struct {
	// Do runs one interaction. A goroutine is spawned per arrival, so Do
	// must be safe for concurrent use. The per-arrival RNG is derived from
	// Seed and the arrival index.
	Do func(r *rand.Rand) error
	// Rate is the mean offered arrival rate per second.
	Rate float64
	// Duration is how long arrivals are generated.
	Duration time.Duration
	Seed     int64
	// Burst episodes: every BurstEvery, the arrival rate multiplies by
	// BurstFactor for BurstLen (0 disables bursts). Bursts model the
	// stampede — a flash crowd on top of the base Poisson process.
	BurstEvery  time.Duration
	BurstLen    time.Duration
	BurstFactor float64
	// Clock paces the arrival process (nil = RealClock).
	Clock Clock
}

// OpenLoopResult summarizes one open-loop run. Latency quantiles cover
// admitted work only — shed arrivals fail in microseconds by design and
// would make the quantiles meaningless.
type OpenLoopResult struct {
	Offered  int64   // arrivals generated
	Done     int64   // completed successfully
	Shed     int64   // fast-rejected by admission control (ErrOverloaded)
	Expired  int64   // abandoned by caller deadline (ErrDeadlineExpired)
	Errors   int64   // other failures
	Goodput  float64 // successful completions per second
	ShedRate float64 // shed / offered
	Elapsed  time.Duration

	AvgLatency time.Duration
	P50Latency time.Duration
	P95Latency time.Duration
	P99Latency time.Duration
}

// burstRate returns the offered rate at elapsed time t.
func burstRate(cfg *OpenLoopConfig, t time.Duration) float64 {
	rate := cfg.Rate
	if cfg.BurstEvery > 0 && cfg.BurstLen > 0 {
		if t%cfg.BurstEvery < cfg.BurstLen {
			f := cfg.BurstFactor
			if f <= 0 {
				f = 4
			}
			rate *= f
		}
	}
	return rate
}

// quantile returns the q-quantile of a sorted duration slice.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted)) * q)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// RunOpenLoop executes the arrival-driven client emulation against live
// work. The arrival schedule is fully determined by Seed — the dispatcher
// draws inter-arrival gaps from one seeded RNG on a single goroutine — but
// completions race real concurrency, so only the schedule (not the
// outcome counts) is bit-reproducible.
func RunOpenLoop(cfg OpenLoopConfig) *OpenLoopResult {
	if cfg.Clock == nil {
		cfg.Clock = RealClock{}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	var (
		offered, done, shed, expired, errCount atomic.Int64
		latSum                                 atomic.Int64
		samplesMu                              sync.Mutex
		samples                                []time.Duration
		wg                                     sync.WaitGroup
	)
	arrivals := rand.New(rand.NewSource(cfg.Seed))
	start := time.Now()
	var virtual time.Duration // deterministic arrival schedule position
	for i := int64(0); ; i++ {
		rate := burstRate(&cfg, virtual)
		gap := time.Duration(arrivals.ExpFloat64() / rate * float64(time.Second))
		virtual += gap
		if virtual > cfg.Duration {
			break
		}
		// Pace the wall clock to the virtual schedule; if work dispatch
		// fell behind, fire immediately (open loop never self-throttles).
		if ahead := virtual - time.Since(start); ahead > 0 {
			cfg.Clock.Sleep(ahead)
		}
		offered.Add(1)
		wg.Add(1)
		go func(idx int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(cfg.Seed + idx*7919))
			t0 := time.Now()
			err := cfg.Do(r)
			lat := time.Since(t0)
			switch {
			case err == nil:
				done.Add(1)
				latSum.Add(int64(lat))
				samplesMu.Lock()
				if len(samples) < 200000 {
					samples = append(samples, lat)
				}
				samplesMu.Unlock()
			case errors.Is(err, scheduler.ErrOverloaded):
				shed.Add(1)
			case errors.Is(err, replica.ErrDeadlineExpired):
				expired.Add(1)
			default:
				errCount.Add(1)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &OpenLoopResult{
		Offered: offered.Load(),
		Done:    done.Load(),
		Shed:    shed.Load(),
		Expired: expired.Load(),
		Errors:  errCount.Load(),
		Elapsed: elapsed,
	}
	if elapsed > 0 {
		res.Goodput = float64(res.Done) / elapsed.Seconds()
	}
	if res.Offered > 0 {
		res.ShedRate = float64(res.Shed) / float64(res.Offered)
	}
	if res.Done > 0 {
		res.AvgLatency = time.Duration(latSum.Load() / res.Done)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	res.P50Latency = quantile(samples, 0.50)
	res.P95Latency = quantile(samples, 0.95)
	res.P99Latency = quantile(samples, 0.99)
	return res
}
