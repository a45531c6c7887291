package value

import (
	"math"
	"testing"
	"unsafe"
)

// TestValueLayout pins a Value at 32 bytes: the kind, one payload word and
// a string header. Every stored row costs this a column on every replica.
func TestValueLayout(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Fatalf("Value is %d bytes, want 32", n)
	}
}

// TestEdgeValues round-trips the values at the edges of each kind through
// the binary codec, the key encoding, Compare, Coerce and the numeric
// conversions. A Float keeps its exact bits, -0.0 and NaN included.
func TestEdgeValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		v       Value
		typ     ColumnType // the column type the value already has
		key     string     // AppendKey
		asInt   int64      // checked unless the conversion is machine-defined
		intOK   bool
		asFloat float64
	}{
		{NewFloat(negZero), TFloat, "f-0p-1074;", 0, true, negZero},
		{NewFloat(math.NaN()), TFloat, "fNaN;", 0, false, math.NaN()},
		{NewFloat(math.Inf(1)), TFloat, "f+Inf;", 0, false, math.Inf(1)},
		{NewFloat(math.Inf(-1)), TFloat, "f-Inf;", 0, false, math.Inf(-1)},
		{NewInt(math.MinInt64), TInt, "i-9223372036854775808;", math.MinInt64, true, -9223372036854775808.0},
		{NewInt(math.MaxInt64), TInt, "i9223372036854775807;", math.MaxInt64, true, 9223372036854775807.0},
		{NewString(""), TString, "s0:;", 0, true, 0},
		{NewNull(), 0, "n;", 0, true, 0},
	} {
		name := c.v.String()
		d := NewDecoder(AppendBinary(nil, c.v))
		got := ReadBinary(&d)
		// == compares bits, which is what a round trip must keep.
		if d.Err() != nil || d.Len() != 0 || got != c.v {
			t.Errorf("%s: binary round trip = %#v (err %v, %d bytes left), want %#v", name, got, d.Err(), d.Len(), c.v)
		}
		if k := string(c.v.AppendKey(nil)); k != c.key {
			t.Errorf("%s: AppendKey = %q, want %q", name, k, c.key)
		}
		if Compare(c.v, got) != 0 || !Equal(c.v, c.v) {
			t.Errorf("%s: does not compare equal to itself", name)
		}
		if c.typ != 0 {
			if co := Coerce(c.v, c.typ); co != c.v {
				t.Errorf("%s: Coerce to its own type = %#v", name, co)
			}
		} else if co := Coerce(c.v, TInt); !co.IsNull() {
			t.Errorf("%s: Coerce(NULL, INT) = %v", name, co)
		}
		if c.intOK && c.v.AsInt() != c.asInt {
			t.Errorf("%s: AsInt = %d, want %d", name, c.v.AsInt(), c.asInt)
		}
		if f := c.v.AsFloat(); math.Float64bits(f) != math.Float64bits(c.asFloat) && !(math.IsNaN(f) && math.IsNaN(c.asFloat)) {
			t.Errorf("%s: AsFloat = %v, want %v", name, f, c.asFloat)
		}
	}

	if !math.Signbit(NewFloat(negZero).Float()) {
		t.Error("-0.0 lost its sign")
	}
	// The two zeros are equal under Compare but not under ==, which is why
	// values are compared with Compare.
	if z, nz := NewFloat(0), NewFloat(negZero); !Equal(z, nz) || z == nz {
		t.Errorf("0.0 vs -0.0: Equal %v, == %v; want true, false", Equal(z, nz), z == nz)
	}
	// Int against Int compares exactly, where float64 cannot tell these
	// apart.
	if Compare(NewInt(math.MaxInt64-1), NewInt(math.MaxInt64)) >= 0 {
		t.Error("MaxInt64-1 must sort before MaxInt64")
	}
	order := []Value{NewNull(), NewFloat(math.Inf(-1)), NewInt(math.MinInt64), NewFloat(negZero),
		NewInt(math.MaxInt64), NewFloat(math.Inf(1)), NewString(""), NewString("a")}
	for i := 1; i < len(order); i++ {
		if Compare(order[i-1], order[i]) >= 0 || Compare(order[i], order[i-1]) <= 0 {
			t.Errorf("%v must sort before %v", order[i-1], order[i])
		}
	}
	for _, c := range []struct {
		in   Value
		t    ColumnType
		want Value
	}{
		{NewInt(math.MinInt64), TString, NewString("-9223372036854775808")},
		{NewString("9223372036854775807"), TInt, NewInt(math.MaxInt64)},
		{NewInt(math.MaxInt64), TFloat, NewFloat(9223372036854775807.0)},
		{NewFloat(negZero), TString, NewString("-0")},
		{NewFloat(negZero), TInt, NewInt(0)},
		{NewString(""), TInt, NewInt(0)},
		{NewString(""), TFloat, NewFloat(0)},
		{NewFloat(math.Inf(1)), TString, NewString("+Inf")},
	} {
		if got := Coerce(c.in, c.t); got != c.want {
			t.Errorf("Coerce(%v, %v) = %#v, want %#v", c.in, c.t, got, c.want)
		}
	}
}
