package vclock

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestMergeProperties(t *testing.T) {
	// Commutativity under Equal.
	comm := func(a, b []uint64) bool {
		x := Vector(a).Clone().Merge(Vector(b))
		y := Vector(b).Clone().Merge(Vector(a))
		return x.Equal(y)
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Errorf("commutativity: %v", err)
	}
	// Idempotence.
	idem := func(a []uint64) bool {
		v := Vector(a)
		return v.Clone().Merge(v).Equal(v)
	}
	if err := quick.Check(idem, nil); err != nil {
		t.Errorf("idempotence: %v", err)
	}
	// Merge dominates both inputs.
	dom := func(a, b []uint64) bool {
		m := Vector(a).Clone().Merge(Vector(b))
		return m.DominatesOrEqual(Vector(a)) && m.DominatesOrEqual(Vector(b))
	}
	if err := quick.Check(dom, nil); err != nil {
		t.Errorf("domination: %v", err)
	}
}

func TestTickUniqueAndMonotonic(t *testing.T) {
	c := NewClock(4)
	var mu sync.Mutex
	seen := make(map[string]bool)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				v := c.Tick([]int{w % 4})
				mu.Lock()
				key := v.String()
				if seen[key] {
					t.Errorf("duplicate vector %s", key)
				}
				seen[key] = true
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	cur := c.Current()
	var total uint64
	for _, x := range cur {
		total += x
	}
	if total != 800 {
		t.Fatalf("total ticks = %d, want 800", total)
	}
}

func TestTickMultiTableAtomic(t *testing.T) {
	c := NewClock(3)
	v := c.Tick([]int{0, 2})
	if v.Get(0) != 1 || v.Get(1) != 0 || v.Get(2) != 1 {
		t.Fatalf("vector = %v", v)
	}
	v = c.Tick([]int{0})
	if v.Get(0) != 2 || v.Get(2) != 1 {
		t.Fatalf("vector = %v", v)
	}
}

func TestAdvanceAndReset(t *testing.T) {
	c := NewClock(2)
	c.Advance(Vector{5, 1})
	c.Advance(Vector{3, 7}) // merge: keeps the max per entry
	if got := c.Current(); got.Get(0) != 5 || got.Get(1) != 7 {
		t.Fatalf("after advance: %v", got)
	}
	c.ResetTo(Vector{2, 2})
	if got := c.Current(); got.Get(0) != 2 || got.Get(1) != 2 {
		t.Fatalf("after reset: %v", got)
	}
}

func TestMergedAccumulator(t *testing.T) {
	m := NewMerged(2)
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m.Report(Vector{uint64(i), uint64(10 - i)})
		}(i)
	}
	wg.Wait()
	got := m.Latest()
	if got.Get(0) != 9 || got.Get(1) != 10 {
		t.Fatalf("merged = %v", got)
	}
}

func TestShortVectorSemantics(t *testing.T) {
	long := Vector{1, 2, 3}
	short := Vector{1, 2}
	if !long.DominatesOrEqual(short) {
		t.Error("long should dominate its prefix")
	}
	if short.DominatesOrEqual(long) {
		t.Error("short lacks entry 3 (reads as zero)")
	}
	if short.Get(5) != 0 {
		t.Error("missing entries read as zero")
	}
	if !short.Equal(Vector{1, 2, 0}) {
		t.Error("trailing zeros do not affect equality")
	}
}
