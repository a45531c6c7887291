// Package vclock implements the per-table database version vectors of
// Dynamic Multiversioning.
//
// Each committed update transaction advances the entries of the tables it
// wrote; the resulting vector names a consistent database state ("DBVersion"
// in the paper). Schedulers merge vectors arriving from the conflict-class
// masters and tag read-only transactions with the merged vector.
package vclock

import (
	"fmt"
	"strings"
	"sync"
)

// Vector is a database version vector with one entry per table, indexed by
// table id. Vectors are value types; use Clone before sharing across
// goroutines that mutate.
type Vector []uint64

// New returns a zero vector sized for n tables.
func New(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Get returns the entry for table t, tolerating short vectors (missing
// entries read as zero).
func (v Vector) Get(t int) uint64 {
	if t < 0 || t >= len(v) {
		return 0
	}
	return v[t]
}

// Merge sets v to the element-wise maximum of v and o, growing v if needed,
// and returns the (possibly re-allocated) result.
func (v Vector) Merge(o Vector) Vector {
	if len(o) > len(v) {
		grown := make(Vector, len(o))
		copy(grown, v)
		v = grown
	}
	for i, x := range o {
		if x > v[i] {
			v[i] = x
		}
	}
	return v
}

// MinInto lowers v element-wise to min(v, o) and returns v. Used to compute
// the garbage-collection low-water mark across active readers.
func (v Vector) MinInto(o Vector) Vector {
	for i := range v {
		if x := o.Get(i); x < v[i] {
			v[i] = x
		}
	}
	return v
}

// DominatesOrEqual reports whether every entry of v is >= the corresponding
// entry of o, i.e. the state named by v includes the state named by o.
func (v Vector) DominatesOrEqual(o Vector) bool {
	for i, x := range o {
		if v.Get(i) < x {
			return false
		}
	}
	return true
}

// Equal reports element-wise equality (missing entries read as zero).
func (v Vector) Equal(o Vector) bool {
	n := len(v)
	if len(o) > n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if v.Get(i) != o.Get(i) {
			return false
		}
	}
	return true
}

// String renders the vector compactly for logs: [t0:3 t2:7] (zero entries
// are omitted).
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('[')
	first := true
	for i, x := range v {
		if x == 0 {
			continue
		}
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "t%d:%d", i, x)
	}
	b.WriteByte(']')
	return b.String()
}

// Clock is a thread-safe version vector with atomic multi-entry increments,
// used by a master database to stamp commits (Figure 2 of the paper: the
// increment of the DBVersion vector is atomic so every committed transaction
// obtains a unique vector).
type Clock struct {
	mu  sync.Mutex
	cur Vector // guarded by mu
}

// NewClock returns a clock over n tables starting at the zero vector.
func NewClock(n int) *Clock { return &Clock{cur: New(n)} }

// NewClockAt returns a clock primed with an existing vector (used when a
// slave is promoted to master after a failure).
func NewClockAt(v Vector) *Clock { return &Clock{cur: v.Clone()} }

// Tick atomically increments the entries for the written tables and returns
// the full resulting vector. The returned vector is a private copy.
func (c *Clock) Tick(tables []int) Vector {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range tables {
		if t >= 0 && t < len(c.cur) {
			c.cur[t]++
		}
	}
	return c.cur.Clone()
}

// Current returns a copy of the current vector.
func (c *Clock) Current() Vector {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur.Clone()
}

// Advance merges o into the clock (used by slaves tracking the master's
// commits, and by a new master adopting the highest version it has seen).
func (c *Clock) Advance(o Vector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cur = c.cur.Merge(o)
}

// ResetTo replaces the clock value (element-wise minimum with the given
// vector is NOT taken: the caller is rolling the tier back to exactly v
// during master fail-over).
func (c *Clock) ResetTo(v Vector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cur = v.Clone()
}

// Merged is a thread-safe merge accumulator used by the scheduler: masters
// report commit vectors, readers take the latest merged vector.
type Merged struct {
	mu  sync.RWMutex
	cur Vector // guarded by mu
}

// NewMerged returns an accumulator over n tables.
func NewMerged(n int) *Merged { return &Merged{cur: New(n)} }

// Report merges a commit vector from a master.
func (m *Merged) Report(v Vector) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cur = m.cur.Merge(v)
}

// Latest returns a copy of the latest merged vector.
func (m *Merged) Latest() Vector {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.cur.Clone()
}

// Reset replaces the accumulator state (used during scheduler fail-over when
// a peer reconstructs state from master reports).
func (m *Merged) Reset(v Vector) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cur = v.Clone()
}
