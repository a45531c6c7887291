package obs

import "testing"

// TestMergeAdoptsFirstRegistryUnwritten: the merged view shares the first
// registry's maps, and a second registry's sums go into a copy, so no input
// snapshot is written.
func TestMergeAdoptsFirstRegistryUnwritten(t *testing.T) {
	a, b := New(), New()
	a.Counter(NodeReadTxns).Add(3)
	a.Histogram(testHist).Observe(5)
	b.Counter(NodeReadTxns).Add(4)
	b.Histogram(testHist).Observe(7)
	sa, sb := a.Snapshot(), b.Snapshot()

	one := MergeSnapshots([]NodeSnapshot{{Registry: a.ID(), Snap: sa}, {Registry: a.ID(), Snap: sa}}, nil)
	if got := one.Merged.Counters[NodeReadTxns]; got != 3 {
		t.Fatalf("one registry twice: counter %d, want 3", got)
	}
	two := MergeSnapshots([]NodeSnapshot{{Registry: a.ID(), Snap: sa}, {Registry: b.ID(), Snap: sb}}, nil)
	if got, h := two.Merged.Counters[NodeReadTxns], two.Merged.Histograms[testHist]; got != 7 || h.Count != 2 {
		t.Fatalf("two registries: counter %d, histogram count %d; want 7 and 2", got, h.Count)
	}
	if got, h := sa.Counters[NodeReadTxns], sa.Histograms[testHist]; got != 3 || h.Count != 1 {
		t.Fatalf("first input written: counter %d, histogram count %d; want 3 and 1", got, h.Count)
	}
	if got := one.Merged.Counters[NodeReadTxns]; got != 3 {
		t.Fatalf("an earlier view changed: counter %d, want 3", got)
	}
	none := MergeSnapshots(nil, nil)
	if none.Merged.Counters == nil || none.Merged.Gauges == nil || none.Merged.Histograms == nil {
		t.Fatalf("no registry: merged maps %+v, want empty maps", none.Merged)
	}
}
