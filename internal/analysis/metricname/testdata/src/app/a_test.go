package app

import "obs"

// A test file reads a name, and may register literal names: rules 1 and 2
// apply to non-test files only.
func testRead(r *obs.Registry) int64 {
	r.Counter("dmv_test_only_total")
	return r.Snapshot().Counters[obs.TestRead]
}
