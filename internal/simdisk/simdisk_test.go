package simdisk

import (
	"testing"
	"time"
)

// recorder replaces time.Sleep and accumulates charged durations.
type recorder struct {
	total time.Duration
	calls int
}

func (r *recorder) sleep(d time.Duration) {
	r.total += d
	r.calls++
}

func TestLRUEviction(t *testing.T) {
	rec := &recorder{}
	d := New(InMemory(time.Millisecond), 2, WithSleeper(rec.sleep))
	d.PageAccess(0, 1) // miss
	d.PageAccess(0, 2) // miss
	d.PageAccess(0, 1) // hit, 1 now most recent
	d.PageAccess(0, 3) // miss, evicts 2
	if d.Resident(0, 2) {
		t.Fatal("page 2 should have been evicted (LRU)")
	}
	if !d.Resident(0, 1) || !d.Resident(0, 3) {
		t.Fatal("pages 1 and 3 should be resident")
	}
	if got := d.Stats().Misses.Load(); got != 3 {
		t.Fatalf("misses = %d, want 3", got)
	}
	if got := d.Stats().Hits.Load(); got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
	if rec.total != 3*time.Millisecond {
		t.Fatalf("charged %v, want 3ms (3 misses)", rec.total)
	}
}

func TestUnboundedCacheDisablesCosts(t *testing.T) {
	rec := &recorder{}
	d := New(InMemory(time.Millisecond), 0, WithSleeper(rec.sleep))
	for i := 0; i < 100; i++ {
		d.PageAccess(0, int32(i))
	}
	if rec.calls != 0 {
		t.Fatalf("unbounded cache charged %d sleeps", rec.calls)
	}
	if m := d.Stats().Misses.Load(); m != 0 {
		t.Fatalf("unbounded cache missed %d times", m)
	}
}

func TestWarmDoesNotCharge(t *testing.T) {
	rec := &recorder{}
	d := New(InMemory(time.Millisecond), 10, WithSleeper(rec.sleep))
	d.Warm(1, 5)
	if rec.calls != 0 {
		t.Fatal("Warm must not charge the miss cost")
	}
	d.PageAccess(1, 5)
	if rec.calls != 0 {
		t.Fatal("access after Warm must hit")
	}
}

func TestResidentSetMRUOrderAndLimit(t *testing.T) {
	d := New(CostModel{}, 10)
	for i := int32(1); i <= 5; i++ {
		d.PageAccess(0, i)
	}
	d.PageAccess(0, 2) // 2 becomes most recent
	keys := d.ResidentSet(3)
	if len(keys) != 3 {
		t.Fatalf("limit ignored: %d keys", len(keys))
	}
	if keys[0] != (PageKey{Table: 0, Page: 2}) {
		t.Fatalf("MRU first, got %v", keys[0])
	}
	all := d.ResidentSet(0)
	if len(all) != 5 {
		t.Fatalf("full set = %d", len(all))
	}
}

func TestDropEmptiesCache(t *testing.T) {
	d := New(CostModel{}, 10)
	d.PageAccess(0, 1)
	d.Drop()
	if d.ResidentCount() != 0 {
		t.Fatal("drop left pages resident")
	}
}

func TestFsyncAndReplayCharges(t *testing.T) {
	rec := &recorder{}
	d := New(OnDisk(0, 2*time.Millisecond, time.Millisecond), 4, WithSleeper(rec.sleep))
	d.CommitFsync()
	if rec.total != 2*time.Millisecond {
		t.Fatalf("fsync charged %v", rec.total)
	}
	d.ReplayRead(5)
	if rec.total != 7*time.Millisecond {
		t.Fatalf("replay charged %v total", rec.total)
	}
	if d.Stats().Fsyncs.Load() != 1 {
		t.Fatal("fsync not counted")
	}
	d.ReplayRead(0) // no charge for zero records
	if rec.total != 7*time.Millisecond {
		t.Fatal("zero-record replay charged")
	}
}

func TestTablesShareCacheButNotKeys(t *testing.T) {
	d := New(CostModel{}, 10)
	d.PageAccess(1, 7)
	if d.Resident(2, 7) {
		t.Fatal("page keys must be per table")
	}
}

// corruptionEvents replays an identical access sequence against a disk and
// returns every corruption the injector fired, in order.
func corruptionEvents(seed int64, p float64, accesses int) []struct {
	table int
	pg    int32
	pick  int64
} {
	var events []struct {
		table int
		pg    int32
		pick  int64
	}
	d := New(CostModel{}, 0, WithFaultSeed(seed))
	d.SetBitFlip(p)
	d.OnCorrupt(func(table int, pg int32, pick int64) {
		events = append(events, struct {
			table int
			pg    int32
			pick  int64
		}{table, pg, pick})
	})
	for i := 0; i < accesses; i++ {
		d.PageAccess(i%3, int32(i%17))
	}
	return events
}

func TestBitFlipSameSeedSameSchedule(t *testing.T) {
	a := corruptionEvents(42, 0.05, 2000)
	b := corruptionEvents(42, 0.05, 2000)
	if len(a) == 0 {
		t.Fatal("injector fired no corruptions at p=0.05 over 2000 accesses")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed fired %d vs %d corruptions", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if c := corruptionEvents(43, 0.05, 2000); len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced the identical schedule")
		}
	}
}

func TestBitFlipDisarmedAndZeroProbability(t *testing.T) {
	// No WithFaultSeed: SetBitFlip must be inert.
	d := New(CostModel{}, 0)
	d.SetBitFlip(1)
	fired := false
	d.OnCorrupt(func(int, int32, int64) { fired = true })
	for i := 0; i < 100; i++ {
		d.PageAccess(0, int32(i))
	}
	if fired || d.Stats().Corruptions.Load() != 0 {
		t.Fatal("unarmed disk corrupted")
	}
	// Armed but p=0: still inert.
	d2 := New(CostModel{}, 0, WithFaultSeed(1))
	d2.OnCorrupt(func(int, int32, int64) { fired = true })
	for i := 0; i < 100; i++ {
		d2.PageAccess(0, int32(i))
	}
	if fired || d2.Stats().Corruptions.Load() != 0 {
		t.Fatal("p=0 disk corrupted")
	}
}

func TestBitFlipCountsCorruptions(t *testing.T) {
	d := New(CostModel{}, 0, WithFaultSeed(7))
	d.SetBitFlip(1) // every access corrupts
	n := 0
	d.OnCorrupt(func(int, int32, int64) { n++ })
	for i := 0; i < 10; i++ {
		d.PageAccess(0, 1)
	}
	if n != 10 || d.Stats().Corruptions.Load() != 10 {
		t.Fatalf("p=1 fired %d callbacks, %d counted", n, d.Stats().Corruptions.Load())
	}
}
