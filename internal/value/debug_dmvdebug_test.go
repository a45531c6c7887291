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

// TestSealedRowAndPrefixWindow seals a row and a window on its first
// column, as a page and an index publish them: they share an address, yet
// each keeps its own entry, and a write into the shared element is caught
// through either.
func TestSealedRowAndPrefixWindow(t *testing.T) {
	r := Row{NewInt(1), NewString("ab")}
	Seal(r)
	key := r[0:1:1]
	Seal(key)
	CheckSealed(r) // the window's entry did not replace the row's
	CheckSealed(key)

	r[0] = NewInt(2)
	for name, s := range map[string]Row{"row": r, "window": key} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("CheckSealed(%s) did not panic after a write into the shared element", name)
				}
			}()
			CheckSealed(s)
		}()
	}
}
