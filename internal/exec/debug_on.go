//go:build dmvdebug

package exec

import (
	"fmt"
	"reflect"

	"dmv/internal/heap"
)

// checkCachedPlan plans p again on a cache hit and panics, naming the
// statement, unless the fresh plan equals the cached one (the fingerprint
// aside): a plan must be a pure function of statement and schema, and
// nothing may write into a published plan.
func checkCachedPlan(p *Prepared, e *heap.Engine, cached *plan) {
	fresh, err := planStmt(e, p.stmt)
	c := *cached
	c.fp = 0
	if err != nil || !reflect.DeepEqual(&c, fresh) {
		panic(fmt.Sprintf("exec: cached plan of %q differs from a fresh plan (%v)", p.text, err))
	}
}
