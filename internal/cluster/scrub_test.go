package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/obs/flight"
	"dmv/internal/scheduler"
	"dmv/internal/value"
)

// scrubDDL adds an archive table the OLTP load never touches: corruption
// injected there cannot be masked by a later write-set overwriting the
// damaged row, so detection is deterministic under load.
var scrubDDL = []string{
	`CREATE TABLE account (a_id INT PRIMARY KEY, a_owner VARCHAR(20), a_balance INT)`,
	`CREATE TABLE archive (r_id INT PRIMARY KEY, r_payload VARCHAR(32))`,
}

func scrubLoad(e *heap.Engine) error {
	if err := testLoad(100)(e); err != nil {
		return err
	}
	tid, ok := e.TableID("archive")
	if !ok {
		return fmt.Errorf("no archive table")
	}
	rows := make([]value.Row, 0, 64)
	for i := 1; i <= 64; i++ {
		rows = append(rows, value.Row{
			value.NewInt(int64(i)),
			value.NewString(fmt.Sprintf("payload-%d", i)),
		})
	}
	return e.Load(tid, rows)
}

// scrubDumpDir resolves where the chaos run writes its flight dumps:
// DMV_FLIGHT_DIR (the check.sh scrub leg hands the artifact to dmv-doctor
// afterwards) or a test temp dir.
func scrubDumpDir(t *testing.T) string {
	base := os.Getenv("DMV_FLIGHT_DIR")
	if base == "" {
		base = t.TempDir()
	}
	return filepath.Join(base, "scrub")
}

// scrubEventLog filters the cluster timeline down to the scrub events in
// order, rendered without durations so two identically-seeded runs can be
// compared byte for byte.
func scrubEventLog(evs []Event) []string {
	var out []string
	for _, ev := range evs {
		if ev.Kind == EventScrubDiverged || ev.Kind == EventScrubRepaired {
			out = append(out, fmt.Sprintf("%s %s %s", ev.Kind, ev.Node, ev.Detail))
		}
	}
	return out
}

// runScrubChaos is one seeded divergence-and-repair episode: OLTP runs
// open-throttle against a 2-slave tier with the anti-entropy scrubber
// ticking, a deterministic bit flip silently diverges slave0's archive
// table, and the run must detect, quarantine, repair, verify, and
// reintegrate with zero acked-commit loss and zero failed reads. It returns
// the scrub event log for cross-run comparison.
func runScrubChaos(t *testing.T, dir string) []string {
	t.Helper()
	reg := obs.New()
	rec := flight.New(flight.Options{Node: "cluster", Reg: reg, Dir: dir})
	defer rec.Close()

	c := newTestCluster(t, Config{
		Slaves:        2,
		SchemaDDL:     scrubDDL,
		Load:          scrubLoad,
		ScrubInterval: 10 * time.Millisecond,
		MaxRetries:    20,
		Seed:          11,
		Obs:           reg,
		Flight:        rec,
	})

	// Open-throttle OLTP on the account table while the scrub runs. Acked
	// commits and read results are tracked so the end state can prove
	// nothing acknowledged was lost and reads never failed while the
	// diverged slave was quarantined.
	var (
		acked    atomic.Int64
		readErrs atomic.Int64
		stop     = make(chan struct{})
		wg       sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			err := c.Run(scheduler.TxnSpec{Tables: []string{"account"}}, func(tx *scheduler.Txn) error {
				_, err := tx.Exec(`UPDATE account SET a_balance = a_balance + ? WHERE a_id = ?`,
					value.NewInt(10), value.NewInt(7))
				return err
			})
			if err == nil {
				acked.Add(1)
			}
			if bal := readBalance(t, c, 8); bal != 1000 {
				readErrs.Add(1)
			}
		}
	}()

	// Let a few clean sweeps pass, then silently flip one bit on slave0.
	// Page 0 of the archive table is always populated (64 loaded rows), so
	// the victim is identical on every run.
	time.Sleep(30 * time.Millisecond)
	slave, ok := c.Node("slave0")
	if !ok {
		t.Fatal("no slave0")
	}
	archiveTID, ok := slave.Engine().TableID("archive")
	if !ok {
		t.Fatal("no archive table id")
	}
	if _, err := slave.Engine().CorruptPage(archiveTID, 0, 12345); err != nil {
		t.Fatalf("corrupt: %v", err)
	}

	// The scrubber must detect the divergence, quarantine, repair, and
	// verify convergence — visible as the diverged/repaired event pair.
	waitEvent := func(kind string) Event {
		deadline := time.Now().Add(5 * time.Second)
		for {
			for _, ev := range c.Events() {
				if ev.Kind == kind && ev.Node == "slave0" {
					return ev
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("no %s event for slave0; events: %+v", kind, c.Events())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	div := waitEvent(EventScrubDiverged)
	if div.Detail != "tables=1 pages=1" {
		t.Fatalf("diverged detail = %q, want tables=1 pages=1", div.Detail)
	}
	repaired := waitEvent(EventScrubRepaired)
	if repaired.Detail != "pages=1 ok=true" {
		t.Fatalf("repaired detail = %q, want pages=1 ok=true", repaired.Detail)
	}

	close(stop)
	wg.Wait()

	// Zero acked-commit loss: every acknowledged deposit is visible.
	if bal := readBalance(t, c, 7); bal != 1000+10*acked.Load() {
		t.Fatalf("balance = %d after %d acked deposits, want %d", bal, acked.Load(), 1000+10*acked.Load())
	}
	if readErrs.Load() != 0 {
		t.Fatalf("%d reads failed or returned wrong data during the episode", readErrs.Load())
	}

	// Final convergence proof at the scrubber's own bar: one more full
	// sweep over quiesced state finds nothing.
	rep := c.Sweep()
	if len(rep.Diverged) != 0 || len(rep.Failed) != 0 {
		t.Fatalf("post-episode sweep still dirty: %+v", rep)
	}

	// Metrics moved: the repair is visible on the registry.
	snap := reg.Snapshot()
	if snap.Counters[obs.ScrubDivergences] == 0 || snap.Counters[obs.ScrubRepairs] == 0 {
		t.Fatalf("scrub counters never moved: %+v", snap.Counters)
	}

	return scrubEventLog(c.Events())
}

// TestScrubDivergenceRepair is the seeded scrub chaos episode, run twice:
// both runs must pass and produce identical scrub timelines (the injector,
// digests, and repair path are all deterministic), and the divergence must
// leave a flight dump behind for dmv-doctor to attribute.
func TestScrubDivergenceRepair(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos episode")
	}
	dir := scrubDumpDir(t)

	first := runScrubChaos(t, dir)
	second := runScrubChaos(t, dir)
	if len(first) == 0 {
		t.Fatal("no scrub events recorded")
	}
	if len(first) != len(second) {
		t.Fatalf("runs produced different scrub timelines:\n  run1: %v\n  run2: %v", first, second)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("scrub timelines differ at %d:\n  run1: %s\n  run2: %s", i, first[i], second[i])
		}
	}

	matches, err := filepath.Glob(filepath.Join(dir, "flight-*-"+flight.CauseDivergence+".json"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no replica-divergence flight dump: matches=%v err=%v", matches, err)
	}
	blob, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	d, err := flight.Parse(blob)
	if err != nil {
		t.Fatalf("parse dump: %v", err)
	}
	if d.Trigger.Cause != flight.CauseDivergence {
		t.Fatalf("dump cause = %q, want %q", d.Trigger.Cause, flight.CauseDivergence)
	}
	if d.Trigger.Node != "slave0" {
		t.Fatalf("dump node = %q, want slave0", d.Trigger.Node)
	}
}

// TestScrubDuringReintegration is the reintegration blind-spot regression:
// a master fail-over (DiscardAbove on every survivor) followed by a stale
// spare joining through StartJoin/FinishJoin, all while scrub sweeps tick
// every few milliseconds. The scrubber must neither wedge the join nor
// leave any node diverged or permanently quarantined: once the dust
// settles, every audited replica digest-matches its master.
func TestScrubDuringReintegration(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos episode")
	}
	c := newTestCluster(t, Config{
		Slaves:        2,
		Spares:        1,
		SpareMode:     SpareStale,
		SchemaDDL:     scrubDDL,
		Load:          scrubLoad,
		ScrubInterval: 5 * time.Millisecond,
		MaxRetries:    20,
		Seed:          3,
	})

	// Commit through the original master so the spare is genuinely stale.
	for i := 0; i < 20; i++ {
		if err := deposit2(t, c, int64(i%10+1), 5); err != nil {
			t.Fatalf("deposit %d: %v", i, err)
		}
	}

	// Master fail-over: survivors DiscardAbove the acked frontier, a slave
	// is promoted, and the stale spare reintegrates (StartJoin, page-delta
	// migration, FinishJoin) — all racing the 5ms scrub ticks.
	if err := c.KillMaster(); err != nil {
		t.Fatalf("kill master: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		done := false
		for _, ev := range c.Events() {
			if ev.Kind == EventMigrationDone && ev.Node == "spare0" {
				done = true
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("spare never reintegrated; events: %+v", c.Events())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// More commits through the new master land on the freshly joined spare.
	for i := 0; i < 10; i++ {
		if err := deposit2(t, c, int64(i%10+1), 5); err != nil {
			t.Fatalf("post-failover deposit %d: %v", i, err)
		}
	}

	// The joined spare (now a slave) converges to a master-matching digest:
	// a quiesced sweep audits every replica, including the reintegrated one,
	// and must find nothing diverged and repair nothing.
	var rep ScrubReport
	for attempt := 0; ; attempt++ {
		rep = c.Sweep()
		if len(rep.Diverged) == 0 && len(rep.Failed) == 0 && rep.TablesChecked > 0 {
			break
		}
		if attempt >= 10 {
			t.Fatalf("replicas never converged after reintegration: %+v", rep)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// And reads still resolve everywhere.
	if bal := readBalance(t, c, 1); bal <= 1000 {
		t.Fatalf("balance = %d, want > 1000", bal)
	}
}

// deposit2 is deposit without the audit-table insert (the scrub tests use a
// schema without the audit table).
func deposit2(t *testing.T, c *Cluster, acct, delta int64) error {
	t.Helper()
	return c.Run(scheduler.TxnSpec{Tables: []string{"account"}}, func(tx *scheduler.Txn) error {
		_, err := tx.Exec(`UPDATE account SET a_balance = a_balance + ? WHERE a_id = ?`,
			value.NewInt(delta), value.NewInt(acct))
		return err
	})
}
