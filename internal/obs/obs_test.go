package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := &Histogram{}
	// Each case lands exactly on a bucket edge: bucket i holds values in
	// [2^(i-1), 2^i - 1], bucket 0 holds v <= 0.
	cases := []struct {
		v     int64
		bound int64
	}{
		{-5, 0}, {0, 0},
		{1, 1},
		{2, 3}, {3, 3},
		{4, 7}, {7, 7},
		{8, 15},
		{1 << 20, 1<<21 - 1},
		{1<<21 - 1, 1<<21 - 1},
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	s := h.Snapshot()
	if s.Count != int64(len(cases)) {
		t.Fatalf("count = %d, want %d", s.Count, len(cases))
	}
	want := map[int64]int64{}
	var sum int64
	for _, c := range cases {
		want[c.bound]++
		sum += c.v
	}
	if s.Sum != sum {
		t.Fatalf("sum = %d, want %d", s.Sum, sum)
	}
	got := map[int64]int64{}
	for _, b := range s.Buckets {
		got[b.Bound] = b.Count
	}
	for bound, n := range want {
		if got[bound] != n {
			t.Errorf("bucket le=%d count = %d, want %d (all: %v)", bound, got[bound], n, s.Buckets)
		}
	}
	if len(got) != len(want) {
		t.Errorf("non-empty buckets = %v, want bounds %v", s.Buckets, want)
	}
}

func TestBucketBoundMonotone(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < histBuckets; i++ {
		b := BucketBound(i)
		if b <= prev {
			t.Fatalf("BucketBound(%d) = %d, not above previous %d", i, b, prev)
		}
		prev = b
	}
}

func TestConcurrentRecordSnapshot(t *testing.T) {
	r := New()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	// Snapshot continuously while workers record; the race detector (the
	// check.sh obs leg runs this under -race) validates the hot paths.
	// Stopped after the workers drain — it cannot share their WaitGroup.
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
				r.WriteText(&strings.Builder{})
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter(SchedReadTxns)
			h := r.Histogram(HeapLockWaitUS)
			g := r.Gauge(PersistBacklog)
			for i := 0; i < per; i++ {
				c.Add(1)
				h.Observe(int64(i))
				g.Set(int64(i))
				sp := r.Tracer().Begin("read")
				sp.Mark("tag")
				sp.Finish("commit", "")
				r.Timeline().Record(Event{Kind: "checkpoint", Node: fmt.Sprintf("w%d", w)})
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		// Concurrent handle lookups must return the same counter.
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Counter(SchedUpdateTxns).Add(1)
		}()
	}
	wg.Wait()
	close(stop)
	<-snapDone

	snap := r.Snapshot()
	if got := snap.Counter(SchedReadTxns); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := snap.Counter(SchedUpdateTxns); got != workers {
		t.Fatalf("shared-handle counter = %d, want %d", got, workers)
	}
	if got := snap.Histograms[HeapLockWaitUS].Count; got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
	if got := r.Tracer().Total(); got != workers*per {
		t.Fatalf("spans recorded = %d, want %d", got, workers*per)
	}
	// The timeline is bounded: every record is counted, retention caps at
	// DefaultTimelineCap and the overflow shows on the eviction counter.
	if got := r.Timeline().Total(); got != workers*per {
		t.Fatalf("timeline total = %d, want %d", got, workers*per)
	}
	wantRetained := workers * per
	if wantRetained > DefaultTimelineCap {
		wantRetained = DefaultTimelineCap
	}
	if got := len(r.Timeline().Events()); got != wantRetained {
		t.Fatalf("timeline events = %d, want %d", got, wantRetained)
	}
	if got := snap.Counter(Labeled(ObsRingDropped, "ring", "timeline")); got != int64(workers*per-wantRetained) {
		t.Fatalf("timeline drops = %d, want %d", got, workers*per-wantRetained)
	}
}

func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		sp := tr.Begin("update")
		sp.SetReplica(fmt.Sprintf("node%d", i))
		sp.Finish("commit", "")
	}
	spans := tr.Dump()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for i, sp := range spans {
		wantID := uint64(6 + i) // the last 4 of 10, oldest first
		if sp.ID != wantID {
			t.Fatalf("span %d has ID %d, want %d (%v)", i, sp.ID, wantID, spans)
		}
		if sp.Replica != fmt.Sprintf("node%d", sp.ID) {
			t.Fatalf("span %d replica = %q", i, sp.Replica)
		}
	}
	if tr.Total() != 10 {
		t.Fatalf("total = %d, want 10", tr.Total())
	}
}

func TestTracerPartialRing(t *testing.T) {
	tr := NewTracer(8)
	tr.Begin("read").Finish("abort", "version-conflict")
	spans := tr.Dump()
	if len(spans) != 1 || spans[0].Cause != "version-conflict" {
		t.Fatalf("dump = %+v, want one aborted span", spans)
	}
}

func TestTimelineStageAndHooks(t *testing.T) {
	tl := NewTimeline()
	var mu sync.Mutex
	var hooked []Event
	tl.OnEvent(func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		hooked = append(hooked, ev)
	})
	st := tl.Start("recovery-done", "node1")
	time.Sleep(time.Millisecond)
	d := st.End("elected node2")
	if d <= 0 {
		t.Fatal("stage duration not positive")
	}
	tl.Record(Event{Kind: "checkpoint", Node: "node2"})
	evs := tl.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if evs[0].Kind != "recovery-done" || evs[0].Duration != d || evs[0].Detail != "elected node2" {
		t.Fatalf("stage event = %+v", evs[0])
	}
	if evs[1].Time.IsZero() {
		t.Fatal("Record did not stamp Time")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(hooked) != 2 {
		t.Fatalf("hooks fired %d times, want 2", len(hooked))
	}
}

// Sample names for tests of the registry itself, which treats every name
// alike.
const (
	testGauge = "test_gauge"
	testHist  = "test_hist_us"
)

func TestGaugeFuncsSum(t *testing.T) {
	r := New()
	r.GaugeFunc(testGauge, func() float64 { return 3 })
	r.GaugeFunc(testGauge, func() float64 { return 4 })
	if got := r.Snapshot().Gauges[testGauge]; got != 7 {
		t.Fatalf("summed gauge funcs = %g, want 7", got)
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := New()
	r.Counter(HeapCommits).Add(5)
	r.Histogram(testHist).Observe(3)
	r.Histogram(testHist).Observe(900)
	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{
		HeapCommits + " 5\n",
		testHist + "_count 2\n",
		testHist + "_sum 903\n",
		testHist + `_bucket{le="3"} 1` + "\n",
		testHist + `_bucket{le="1023"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	r := New()
	r.Counter(SchedReadTxns).Add(2)
	r.Tracer().Begin("read").Finish("commit", "")
	r.Timeline().Record(Event{Kind: "node-failed", Node: "node0"})
	ln, err := Serve("127.0.0.1:0", r, ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for path, want := range map[string]string{
		"/metrics":  SchedReadTxns + " 2",
		"/trace":    `"Outcome": "commit"`,
		"/timeline": `"Kind": "node-failed"`,
	} {
		resp, err := http.Get("http://" + ln.Addr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("%s missing %q:\n%s", path, want, body)
		}
	}
}

// TestNilRegistryAllocationFree asserts the disabled fast path allocates
// nothing: every handle from a nil registry is nil and every method on a
// nil handle must be a branch-and-return.
func TestNilRegistryAllocationFree(t *testing.T) {
	var r *Registry
	if r.Counter(SchedReadTxns) != nil || r.Gauge(PersistBacklog) != nil ||
		r.Histogram(HeapLockWaitUS) != nil || r.Tracer() != nil || r.Timeline() != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	allocs := testing.AllocsPerRun(100, func() {
		c := r.Counter(SchedReadTxns)
		c.Add(1)
		c.Inc()
		_ = c.Load()
		g := r.Gauge(PersistBacklog)
		g.Set(7)
		g.Add(1)
		h := r.Histogram(HeapLockWaitUS)
		h.Observe(123)
		h.ObserveSince(time.Time{})
		sp := r.Tracer().Begin("update")
		sp.Mark("lock-wait")
		sp.SetReplica("node1")
		sp.Finish("commit", "")
		tl := r.Timeline()
		tl.Record(Event{Kind: "node-failed"})
		st := tl.Start("recovery-done", "node1")
		st.End("done")
		r.GaugeFunc(testGauge, nil)
	})
	if allocs != 0 {
		t.Fatalf("nil-registry path allocates %v objects per op, want 0", allocs)
	}
}

// BenchmarkObsDisabled measures the nil-registry fast path; run with
// -benchmem to confirm 0 allocs/op.
func BenchmarkObsDisabled(b *testing.B) {
	var r *Registry
	c := r.Counter(SchedReadTxns)
	h := r.Histogram(HeapLockWaitUS)
	tr := r.Tracer()
	tl := r.Timeline()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
		h.Observe(int64(i))
		sp := tr.Begin("read")
		sp.Mark("tag")
		sp.Finish("commit", "")
		tl.Record(Event{Kind: "overload"})
	}
}

// BenchmarkObsEnabled is the paired measurement with a live registry.
func BenchmarkObsEnabled(b *testing.B) {
	r := New()
	c := r.Counter(SchedReadTxns)
	h := r.Histogram(HeapLockWaitUS)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
		h.Observe(int64(i))
	}
}
