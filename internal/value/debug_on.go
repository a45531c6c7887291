//go:build dmvdebug

package value

import (
	"fmt"
	"slices"
	"sync"
)

// Debug build: Seal keeps a copy of a row when a page or an index publishes
// it, and CheckSealed compares the row with that copy wherever the engine
// hands it out, panicking on any drift. Rows are keyed by the address of
// their first element and their length: an index key is a window onto the
// row a page publishes, and a window on the row's first columns starts at
// the row's own address, so the two seal apart. The map entry keeps the
// array reachable, so an address is never reused for a different sealed
// row while its entry exists. The registry grows for the life of the
// process — acceptable for the test runs this tag exists for, never for
// production builds.

type sealKey struct {
	first *Value
	n     int
}

var (
	sealMu sync.Mutex
	sealed = make(map[sealKey]Row)
)

// Seal records r as published: any later write into it makes CheckSealed
// panic.
func Seal(r Row) {
	if len(r) == 0 {
		return
	}
	sealMu.Lock()
	sealed[sealKey{&r[0], len(r)}] = r.Clone()
	sealMu.Unlock()
}

// CheckSealed panics if r was sealed and has since been written. Rows that
// were never sealed pass.
func CheckSealed(r Row) {
	if len(r) == 0 {
		return
	}
	sealMu.Lock()
	want, isSealed := sealed[sealKey{&r[0], len(r)}]
	sealMu.Unlock()
	if isSealed && !identical(r, want) {
		panic(fmt.Sprintf("value: published row %v was written after publication (sealed as %v)", r, want))
	}
}

// identical compares bit for bit, unlike CompareRows (Int 1 = Float 1):
// == on a Value compares its kind, its payload word's bits and its string.
func identical(a, b Row) bool { return slices.Equal(a, b) }
