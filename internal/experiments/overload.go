package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dmv/internal/cluster"
	"dmv/internal/harness"
	"dmv/internal/heap"
	"dmv/internal/scheduler"
	"dmv/internal/value"
)

// --- open-loop overload (admission control evaluation) -------------------------

const (
	// overloadRows is the hot-row count of the stampede workload's single
	// table.
	overloadRows = 200
	// overloadMultiplier is the offered rate as a multiple of the measured
	// closed-loop plateau: well past saturation.
	overloadMultiplier = 2.0
	// overloadDeadline is the per-arrival caller deadline. Both arms get
	// it: without admission the deadline is the only thing that bounds how
	// long a doomed caller waits.
	overloadDeadline = 500 * time.Millisecond
	// overloadSlaves sizes the tier; the admission arm gets 2×slaves+2
	// slots and library defaults for the rest.
	overloadSlaves = 2
)

// OverloadResult is the stampede experiment outcome: the open-loop run
// with the admission queue and the same run without it.
type OverloadResult struct {
	PlateauGoodput float64 // closed-loop saturation, transactions per second
	Admit          *harness.OpenLoopResult
	NoAdmit        *harness.OpenLoopResult
}

func overloadDDL() []string {
	return []string{`CREATE TABLE ov (id INT PRIMARY KEY, v INT)`}
}

func overloadLoad(e *heap.Engine) error {
	tid, _ := e.TableID("ov")
	rows := make([]value.Row, overloadRows)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i + 1)), value.NewInt(0)}
	}
	return e.Load(tid, rows)
}

// buildOverloadCluster assembles the modelled tier the sweep saturates.
func buildOverloadCluster(adm scheduler.AdmissionOptions) (*cluster.Cluster, error) {
	return cluster.New(cluster.Config{
		Slaves:     overloadSlaves,
		SchemaDDL:  overloadDDL(),
		Load:       overloadLoad,
		MaxRetries: 8,
		Costs:      nodeCPU,
		Admission:  adm,
	})
}

// overloadDo returns the per-arrival interaction: 80% point reads, 20%
// single-row increments on the hot table, every one carrying the caller
// deadline.
func overloadDo(c *cluster.Cluster, deadline time.Duration) func(r *rand.Rand) error {
	return func(r *rand.Rand) error {
		spec := scheduler.TxnSpec{Deadline: time.Now().Add(deadline)}
		id := value.NewInt(int64(r.Intn(overloadRows) + 1))
		if r.Float64() < 0.8 {
			spec.ReadOnly = true
			return c.Run(spec, func(tx *scheduler.Txn) error {
				_, err := tx.QueryInt(`SELECT v FROM ov WHERE id = ?`, id)
				return err
			})
		}
		spec.Tables = []string{"ov"}
		return c.Run(spec, func(tx *scheduler.Txn) error {
			_, err := tx.Exec(`UPDATE ov SET v = v + 1 WHERE id = ?`, id)
			return err
		})
	}
}

// closedLoopGoodput measures the saturation plateau: Clients workers loop
// the interaction back-to-back (no deadline — a closed loop self-throttles,
// it cannot stampede) and the committed rate over the measured period is
// the plateau the open-loop multiples are anchored to.
func closedLoopGoodput(c *cluster.Cluster, d Durations) float64 {
	var (
		committed atomic.Int64
		measuring atomic.Bool
		stop      = make(chan struct{})
		wg        sync.WaitGroup
	)
	do := overloadDo(c, time.Hour) // effectively no deadline
	for w := 0; w < d.Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(d.Seed + int64(w)*7919 + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := do(r); err == nil && measuring.Load() {
					committed.Add(1)
				}
			}
		}(w)
	}
	harness.RealClock{}.Sleep(d.Warmup)
	measuring.Store(true)
	harness.RealClock{}.Sleep(d.Measure)
	measuring.Store(false)
	close(stop)
	wg.Wait()
	return float64(committed.Load()) / d.Measure.Seconds()
}

// runOverloadArm offers overloadMultiplier× the plateau open-loop, with
// flash-crowd bursts, to one cluster configuration.
func runOverloadArm(name string, d Durations, adm scheduler.AdmissionOptions, plateau float64) (*harness.OpenLoopResult, error) {
	c, err := buildOverloadCluster(adm)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return harness.RunOpenLoop(harness.OpenLoopConfig{
		Do:       overloadDo(c, overloadDeadline),
		Rate:     overloadMultiplier * plateau,
		Duration: d.Measure,
		Seed:     harness.DeriveSeed(d.Seed, fmt.Sprintf("overload/%s/x%.2f", name, overloadMultiplier)),
		// The rate triples for a tenth of the run, twice per run.
		BurstEvery:  d.Measure / 2,
		BurstLen:    d.Measure / 10,
		BurstFactor: 3,
	}), nil
}

// OverloadSweep runs the stampede experiment: measure the closed-loop
// plateau on an unthrottled tier, then offer twice that open-loop with and
// without the admission queue. The admission arm should hold admitted p95
// near the unloaded latency and goodput near the plateau while shedding
// the excess; the no-admission arm shows the collapse the queue exists to
// prevent — latency climbing to the caller deadline and goodput falling as
// capacity is spent on work whose callers already gave up.
func OverloadSweep(d Durations) (*OverloadResult, error) {
	// Plateau on a dedicated unthrottled cluster so admission never skews
	// the anchor.
	base, err := buildOverloadCluster(scheduler.AdmissionOptions{})
	if err != nil {
		return nil, err
	}
	plateau := closedLoopGoodput(base, d)
	base.Close()
	if plateau <= 0 {
		return nil, fmt.Errorf("experiments: overload plateau measured zero goodput")
	}

	res := &OverloadResult{PlateauGoodput: plateau}
	if res.Admit, err = runOverloadArm("admit", d, scheduler.AdmissionOptions{Slots: 2*overloadSlaves + 2}, plateau); err != nil {
		return nil, err
	}
	if res.NoAdmit, err = runOverloadArm("noadmit", d, scheduler.AdmissionOptions{}, plateau); err != nil {
		return nil, err
	}
	return res, nil
}
