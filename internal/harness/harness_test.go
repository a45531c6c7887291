package harness

import (
	"testing"
	"time"

	"dmv/internal/cluster"
	"dmv/internal/innodb"
	"dmv/internal/tpcw"
)

func newDMVCluster(t *testing.T, slaves, spares int) *cluster.Cluster {
	t.Helper()
	scale := tpcw.SmallScale()
	c, err := cluster.New(cluster.Config{
		Slaves:     slaves,
		Spares:     spares,
		SchemaDDL:  tpcw.SchemaDDL(),
		Load:       scale.Load,
		MaxRetries: 20,
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestAllInteractionsOnDMV executes every TPC-W interaction at least once
// against the replicated tier and checks it completes without error.
func TestAllInteractionsOnDMV(t *testing.T) {
	c := newDMVCluster(t, 2, 0)
	w := tpcw.NewWorkload(DMVStore{P: c.Plane}, tpcw.SmallScale())
	s := w.NewSession(1)
	for i := tpcw.Home; i <= tpcw.AdminConfirm; i++ {
		// ShoppingCart first so BuyConfirm has a cart sometimes; the order
		// here covers both the cart-full and cart-empty paths across runs.
		if err := w.Do(s, i); err != nil {
			t.Fatalf("interaction %s: %v", i, err)
		}
	}
	// Repeat the order-creating pair to grow state.
	for k := 0; k < 10; k++ {
		if err := w.Do(s, tpcw.ShoppingCart); err != nil {
			t.Fatalf("cart: %v", err)
		}
		if err := w.Do(s, tpcw.BuyConfirm); err != nil {
			t.Fatalf("buy: %v", err)
		}
		if err := w.Do(s, tpcw.BestSellers); err != nil {
			t.Fatalf("bestsellers: %v", err)
		}
	}
}

// TestAllInteractionsOnInnoDB runs the same workload against the on-disk
// baseline, proving the shared interaction code drives both tiers.
func TestAllInteractionsOnInnoDB(t *testing.T) {
	scale := tpcw.SmallScale()
	db, err := innodb.Open("inno", innodb.Config{
		Costs: innodb.DefaultCosts(),
	}, tpcw.SchemaDDL(), scale.Load)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	w := tpcw.NewWorkload(InnoDBStore{DB: db}, scale)
	s := w.NewSession(2)
	for i := tpcw.Home; i <= tpcw.AdminConfirm; i++ {
		if err := w.Do(s, i); err != nil {
			t.Fatalf("interaction %s: %v", i, err)
		}
	}
}

// TestMixUpdateFractions asserts the three mixes match the paper's
// characterization of write intensity (5% / 20% / 50%).
func TestMixUpdateFractions(t *testing.T) {
	cases := []struct {
		mix  tpcw.Mix
		want float64
	}{
		{tpcw.BrowsingMix, 0.05},
		{tpcw.ShoppingMix, 0.20},
		{tpcw.OrderingMix, 0.50},
	}
	for _, tc := range cases {
		got := tc.mix.UpdateFraction()
		if got < tc.want-0.01 || got > tc.want+0.01 {
			t.Errorf("%s update fraction = %.3f, want %.2f", tc.mix.Name, got, tc.want)
		}
	}
}

// TestClosedLoopRun drives the emulator briefly and sanity-checks metrics.
func TestClosedLoopRun(t *testing.T) {
	c := newDMVCluster(t, 2, 0)
	w := tpcw.NewWorkload(DMVStore{P: c.Plane}, tpcw.SmallScale())
	res := Run(RunConfig{
		Workload: w,
		Mix:      tpcw.ShoppingMix,
		Clients:  4,
		Duration: 300 * time.Millisecond,
		Warmup:   50 * time.Millisecond,
		Window:   50 * time.Millisecond,
	})
	if res.Total == 0 {
		t.Fatal("no interactions completed")
	}
	if res.Errors > res.Total/10 {
		t.Fatalf("too many errors: %d of %d", res.Errors, res.Total)
	}
	if res.WIPS <= 0 {
		t.Fatalf("WIPS = %v", res.WIPS)
	}
	if len(res.Timeline.Series()) == 0 {
		t.Fatal("empty timeline")
	}
}

// TestInnoDBTierWriteAllReadOne checks the baseline tier keeps replicas
// consistent and fails over onto the spare by binlog replay.
func TestInnoDBTierWriteAllReadOne(t *testing.T) {
	scale := tpcw.SmallScale()
	tier, err := innodb.NewTier(innodb.TierConfig{
		Actives:   2,
		WithSpare: true,
		Heartbeat: 5 * time.Millisecond,
		DB:        innodb.Config{}, // zero costs: logic-only test
		DDL:       tpcw.SchemaDDL(),
		Load:      scale.Load,
	})
	if err != nil {
		t.Fatalf("tier: %v", err)
	}
	t.Cleanup(tier.Close)
	w := tpcw.NewWorkload(InnoDBTierStore{T: tier}, scale)
	s := w.NewSession(3)
	for k := 0; k < 10; k++ {
		if err := w.Do(s, tpcw.ShoppingCart); err != nil {
			t.Fatalf("cart: %v", err)
		}
		if err := w.Do(s, tpcw.BuyConfirm); err != nil {
			t.Fatalf("buy: %v", err)
		}
	}
	tier.KillActive(0)
	deadline := time.Now().Add(2 * time.Second)
	for tier.Actives() < 2 && time.Now().Before(deadline) {
		RealClock{}.Sleep(5 * time.Millisecond)
	}
	if tier.Actives() != 2 {
		t.Fatalf("actives after failover = %d, want 2 (spare promoted)", tier.Actives())
	}
	stages := tier.Stages()
	if len(stages) != 1 || stages[0].Records == 0 {
		t.Fatalf("failover stages = %+v, want one replay with records", stages)
	}
	// The tier still serves the workload.
	for k := 0; k < 5; k++ {
		if err := w.Do(s, tpcw.BestSellers); err != nil {
			t.Fatalf("post-failover read: %v", err)
		}
		if err := w.Do(s, tpcw.BuyConfirm); err != nil {
			t.Fatalf("post-failover write: %v", err)
		}
	}
}

// TestRecoveryTimeMetric checks the timeline analysis helper.
func TestRecoveryTimeMetric(t *testing.T) {
	window := 100 * time.Millisecond
	series := []Point{
		{Throughput: 100}, {Throughput: 100}, // healthy
		{Throughput: 20}, {Throughput: 30}, {Throughput: 40}, // dip after fault
		{Throughput: 95}, {Throughput: 98}, {Throughput: 97}, // recovered
	}
	rec := RecoveryTime(series, window, 200*time.Millisecond, 100, 0.9)
	if rec != 300*time.Millisecond {
		t.Fatalf("recovery time = %v, want 300ms", rec)
	}
	if m := Mean(series, window, 0, 200*time.Millisecond); m != 100 {
		t.Fatalf("mean = %v, want 100", m)
	}
}
