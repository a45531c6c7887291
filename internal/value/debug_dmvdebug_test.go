//go:build dmvdebug

package value

import "testing"

// Runs only under -tags dmvdebug (scripts/check.sh has a leg for it).

func TestSealedRowMutationPanics(t *testing.T) {
	r := Row{NewInt(1), NewString("ab")}
	Seal(r)
	CheckSealed(r) // untouched: must pass

	r[1].S = "ac"
	defer func() {
		if recover() == nil {
			t.Fatal("CheckSealed did not panic on a written sealed row")
		}
	}()
	CheckSealed(r)
}

func TestUnsealedRowPasses(t *testing.T) {
	r := Row{NewInt(4)}
	r[0] = NewInt(5)
	CheckSealed(r) // never sealed: no panic

	// A clone of a sealed row is a fresh value and stays writable.
	s := Row{NewFloat(1.5)}
	Seal(s)
	c := s.Clone()
	c[0] = NewNull()
	CheckSealed(c)
	CheckSealed(s)
}
