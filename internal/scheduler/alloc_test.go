//go:build !race && !dmvdebug

package scheduler

import (
	"testing"

	"dmv/internal/value"
)

// TestUpdateTxnAllocs bounds a two-UPDATE transaction run through the
// scheduler on an in-process master with no OnCommit subscriber: nothing
// logs its statements then. The ceiling is the figure last measured, and
// ceilings only fall. The build tag keeps it out of -race and dmvdebug
// builds, whose instrumentation and seal checks allocate.
func TestUpdateTxnAllocs(t *testing.T) {
	s := newSched(t, Options{Classes: []ConflictClass{{Name: "all", Tables: []string{"a"}}}})
	s.SetMaster(0, newMasterNode(t))
	spec := TxnSpec{Tables: []string{"a"}}
	i := int64(0)
	body := func(tx *Txn) error {
		i++
		if _, err := tx.Exec(`UPDATE a SET v = ? WHERE id = 1`, value.NewInt(i)); err != nil {
			return err
		}
		_, err := tx.Exec(`UPDATE a SET v = ? WHERE id = 2`, value.NewInt(i))
		return err
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.Run(spec, body); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations per two-statement update transaction", allocs)
	if allocs > 28 {
		t.Fatalf("two-statement update transaction made %.1f allocations, want <= 28", allocs)
	}
}
