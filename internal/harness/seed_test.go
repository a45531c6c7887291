package harness

import "testing"

// TestDeriveSeedStable pins the derivation so the overload experiment's
// arrival seeds stay reproducible across releases: changing the hash
// silently changes the streams its shape margins were sized on.
func TestDeriveSeedStable(t *testing.T) {
	if a, b := DeriveSeed(7, "wal-fsync"), DeriveSeed(7, "wal-fsync"); a != b {
		t.Errorf("DeriveSeed not deterministic: %d vs %d", a, b)
	}
	if DeriveSeed(7, "wal-fsync") == DeriveSeed(7, "transport-rpc") {
		t.Error("distinct names derived the same seed")
	}
	if DeriveSeed(7, "wal-fsync") == DeriveSeed(8, "wal-fsync") {
		t.Error("distinct roots derived the same seed")
	}
	for _, name := range []string{"", "a", "tpcw-scaling"} {
		if DeriveSeed(0, name) == 0 {
			t.Errorf("DeriveSeed(0, %q) = 0; the zero seed is reserved", name)
		}
	}
}
