package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dmv/internal/tpcw"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v, want 0", got)
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.50, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	// Two cheap strata and a dear one, 2:1:2: the pooled median is 100, in
	// the gap; the stratified one is (2*80 + 1*100 + 2*400) / 5.
	strata := [][]float64{{80, 80}, {100}, {400, 400}, nil}
	if got := stratifiedMedian(strata); got != 212 {
		t.Errorf("stratified median = %v, want 212", got)
	}
	if got := stratifiedMedian(nil); got != 0 {
		t.Errorf("stratified median of none = %v, want 0", got)
	}
}

// One parent with two overlapping children, one of them overhanging the
// parent's end, and a grandchild: self time is duration minus the covered
// part, overlaps counted once.
func TestSelfTimesOnSyntheticTree(t *testing.T) {
	spans := []span{
		{Kind: kTxn, Parent: -1, Start: 0, End: 100},
		{Kind: kAttempt, Parent: 0, Start: 10, End: 40},
		{Kind: kStmt, Parent: 1, Start: 15, End: 25},
		{Kind: kCommit, Parent: 0, Start: 30, End: 60},    // overlaps the attempt by 10
		{Kind: kOnCommit, Parent: 0, Start: 90, End: 120}, // overhangs the parent by 20
	}
	want := []int64{100 - (30 + 20 + 10), 30 - 10, 10, 30, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestJoinSpans(t *testing.T) {
	spans := []span{
		// client 0: one long read interaction; client 1: an update inside it.
		{Kind: kInteraction, Client: 0, Ordinal: 3, Parent: -1, Start: 0, End: 1000},
		{Kind: kInteraction, Client: 1, Ordinal: 8, Parent: -1, Start: 100, End: 400, Update: true},
		{Kind: kTxn, Client: -1, Parent: -1, Start: 2, End: 998},
		{Kind: kTxn, Client: -1, Parent: -1, Start: 101, End: 399, Update: true},
		{Kind: kAttempt, Client: -1, Parent: 3, Start: 110, End: 300, Update: true},
		{Kind: kStmt, Client: -1, Parent: 4, Peer: 0, Start: 120, End: 200, Update: true},
		{Kind: kExec, Client: -1, Parent: -1, Peer: 0, Start: 125, End: 195, Update: true},
		{Kind: kCommit, Client: -1, Parent: -1, Peer: 0, Start: 310, End: 390, Update: true, Ver: 17},
		{Kind: kWSRecv, Client: -1, Parent: -1, Peer: 1, Start: 320, End: 350, Update: true, Ver: 17},
		{Kind: kBegin, Client: -1, Parent: -1, Peer: 1, Start: 3, End: 5},
	}
	if n := joinSpans(spans); n != 0 {
		t.Errorf("%d ambiguous joins, want 0", n)
	}
	for i, want := range []struct {
		parent  int32
		client  int16
		ordinal int32
	}{{-1, 0, 3}, {-1, 1, 8}, {0, 0, 3}, {1, 1, 8}, {3, 1, 8}, {4, 1, 8}, {5, 1, 8}, {3, 1, 8}, {7, 1, 8}, {2, 0, 3}} {
		s := spans[i]
		if s.Parent != want.parent || s.Client != want.client || s.Ordinal != want.ordinal {
			t.Errorf("span %d (%s): parent %d client %d ordinal %d, want %+v",
				i, kindNames[s.Kind], s.Parent, s.Client, s.Ordinal, want)
		}
	}
}

func TestDeckIsSeededAndStratified(t *testing.T) {
	const n = 4000
	a := deck(tpcw.OrderingMix, n, rand.New(rand.NewSource(clientSeed(7, 0))))
	b := deck(tpcw.OrderingMix, n, rand.New(rand.NewSource(clientSeed(7, 0))))
	c := deck(tpcw.OrderingMix, n, rand.New(rand.NewSource(clientSeed(8, 0))))
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different interaction sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("two seeds gave the same interaction sequence")
	}
	count := func(d []tpcw.Interaction) map[tpcw.Interaction]int {
		m := map[tpcw.Interaction]int{}
		for _, it := range d {
			m[it]++
		}
		return m
	}
	if !reflect.DeepEqual(count(a), count(c)) {
		t.Errorf("two seeds gave different amounts of work: %v and %v", count(a), count(c))
	}
	updates := 0
	for _, it := range a {
		if it.IsUpdate() {
			updates++
		}
	}
	if want := int(tpcw.OrderingMix.UpdateFraction() * n); updates < want-1 || updates > want+1 {
		t.Errorf("%d update interactions of %d, want %d", updates, n, want)
	}
	// 2% of the ordering mix is BestSellers; a random draw of 4000 would miss 80 by ten or so.
	if got := count(a)[tpcw.BestSellers]; got < 79 || got > 81 {
		t.Errorf("%d BestSellers of %d, want 80", got, n)
	}
}

func TestAppendLogCountsOverflow(t *testing.T) {
	l := newAppendLog[int](3)
	for i := 0; i < 5; i++ {
		l.add(i)
	}
	if got := l.items(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("items %v, want the first three", got)
	}
	if l.dropped.Load() != 2 {
		t.Errorf("dropped %d, want 2", l.dropped.Load())
	}
}

// BENCHMARK.json is the contract the driver reads; the program must print
// exactly the metrics and run exactly the workloads it names.
func TestContractMatchesProgram(t *testing.T) {
	var contract struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &contract); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(contract.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v", contract.Paths)
	}
	var names []string
	for _, w := range contract.Workloads {
		names = append(names, w.Name)
	}
	var own []string
	for _, w := range workloads {
		own = append(own, w.name)
	}
	if !reflect.DeepEqual(names, own) {
		t.Errorf("contract workloads %v, program %v", names, own)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: contract has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: contract %v, program %v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", contract.EndToEnd, endToEnd)
	check("per_layer", contract.PerLayer, perLayer)
}

func TestSpreadReport(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		blob, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bounds := write("bounds.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "wips", "unit": "1/s", "better": "higher", "bound": 0.10},
		{"name": "read_p50_us", "unit": "us", "better": "lower", "bound": 0.10},
	}})
	set := func(wips, p50 float64) resultSet {
		return resultSet{Workloads: map[string]*workloadResult{"ordering-tcp": {
			Attempted: 100,
			EndToEnd: map[string]metricValue{
				"wips":        {Value: wips, Unit: "1/s", Samples: 3},
				"read_p50_us": {Value: p50, Unit: "us", Samples: 50},
			}}}}
	}
	a, b := write("a.json", set(1000, 100)), write("b.json", set(1050, 120))
	var out bytes.Buffer
	unresolved, err := spreadReport(&out, bounds, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if unresolved != 1 {
		t.Errorf("%d unresolved, want 1 (read_p50_us moved 20%%)\n%s", unresolved, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 || !strings.HasSuffix(lines[0], " ok") || !strings.HasSuffix(lines[1], " unresolved") {
		t.Errorf("unexpected report:\n%s", out.String())
	}
	for _, l := range lines {
		if !strings.Contains(l, "n=") {
			t.Errorf("line without a sample count: %s", l)
		}
	}
}
