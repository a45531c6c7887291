//go:build !dmvdebug

package exec

import "dmv/internal/heap"

// checkCachedPlan is a no-op unless built with -tags dmvdebug (debug_on.go).
func checkCachedPlan(*Prepared, *heap.Engine, *plan) {}
