package harness

import (
	"strings"
	"testing"
	"time"
)

func TestTimelineBucketing(t *testing.T) {
	tl := NewTimeline(10 * time.Millisecond)
	tl.Record(time.Millisecond, false)
	tl.Record(3*time.Millisecond, true)
	RealClock{}.Sleep(25 * time.Millisecond)
	tl.Record(2*time.Millisecond, false)
	series := tl.Series()
	if len(series) < 3 {
		t.Fatalf("buckets = %d, want >= 3", len(series))
	}
	if series[0].Errors != 1 {
		t.Fatalf("bucket0 errors = %d", series[0].Errors)
	}
	var total float64
	for _, p := range series {
		total += p.Throughput * 0.01
	}
	if total < 2.9 || total > 3.1 {
		t.Fatalf("total recorded = %.2f, want 3", total)
	}
	// Latency average is in milliseconds.
	if series[0].AvgLatency < 1.9 || series[0].AvgLatency > 2.1 {
		t.Fatalf("avg latency = %.2f ms, want 2", series[0].AvgLatency)
	}
}

func TestAsciiChartRendersPeak(t *testing.T) {
	series := []Point{{Throughput: 1}, {Throughput: 5}, {Throughput: 3}}
	chart := AsciiChart("demo", series, 5)
	if !strings.Contains(chart, "demo (peak 5.0 WIPS)") {
		t.Fatalf("chart header missing:\n%s", chart)
	}
	if !strings.Contains(chart, "#") {
		t.Fatal("no bars rendered")
	}
	// Empty series must not panic.
	_ = AsciiChart("empty", nil, 3)
}

func TestMeanRanges(t *testing.T) {
	w := 100 * time.Millisecond
	series := []Point{{Throughput: 10}, {Throughput: 20}, {Throughput: 30}}
	if m := Mean(series, w, 0, 200*time.Millisecond); m != 15 {
		t.Fatalf("mean = %v", m)
	}
	if m := Mean(series, w, 0, time.Second); m != 20 { // clamped to series end
		t.Fatalf("clamped mean = %v", m)
	}
	if m := Mean(series, w, 500*time.Millisecond, time.Second); m != 0 {
		t.Fatalf("empty-range mean = %v", m)
	}
}

func TestRecoveryTimeNoDip(t *testing.T) {
	w := 100 * time.Millisecond
	flat := []Point{{Throughput: 100}, {Throughput: 99}, {Throughput: 101}, {Throughput: 100}}
	if r := RecoveryTime(flat, w, 100*time.Millisecond, 100, 0.75); r != 0 {
		t.Fatalf("flat series recovery = %v, want 0", r)
	}
	// Sustained degradation to run end counts to the end.
	degraded := []Point{{Throughput: 100}, {Throughput: 10}, {Throughput: 10}, {Throughput: 10}}
	if r := RecoveryTime(degraded, w, 100*time.Millisecond, 100, 0.75); r != 300*time.Millisecond {
		t.Fatalf("sustained recovery = %v, want 300ms", r)
	}
}

func TestStepRampFindsPeak(t *testing.T) {
	// Speedup guards a zero base; FmtDur rounds for reports.
	if s := Speedup(10, 0); s <= 0 {
		t.Fatalf("speedup with zero base = %v", s)
	}
	if s := Speedup(10, 5); s != 2 {
		t.Fatalf("speedup = %v", s)
	}
	if FmtDur(1500*time.Millisecond) != "1.50s" {
		t.Fatalf("fmt = %s", FmtDur(1500*time.Millisecond))
	}
	if FmtDur(2500*time.Microsecond) != "2.5ms" {
		t.Fatalf("fmt = %s", FmtDur(2500*time.Microsecond))
	}
}
