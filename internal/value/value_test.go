package value

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Generate lets testing/quick produce arbitrary values across all kinds.
func (Value) Generate(r *rand.Rand, _ int) reflect.Value {
	var v Value
	switch r.Intn(4) {
	case 0:
		v = NewNull()
	case 1:
		v = NewInt(r.Int63n(2000) - 1000)
	case 2:
		v = NewFloat((r.Float64() - 0.5) * 100)
	default:
		n := r.Intn(8)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		v = NewString(string(b))
	}
	return reflect.ValueOf(v)
}

func TestCompareTotalOrderProperties(t *testing.T) {
	// Antisymmetry: Compare(a,b) == -Compare(b,a).
	anti := func(a, b Value) bool { return Compare(a, b) == -Compare(b, a) }
	if err := quick.Check(anti, nil); err != nil {
		t.Errorf("antisymmetry: %v", err)
	}
	// Reflexivity: Compare(a,a) == 0.
	refl := func(a Value) bool { return Compare(a, a) == 0 }
	if err := quick.Check(refl, nil); err != nil {
		t.Errorf("reflexivity: %v", err)
	}
	// Transitivity: a<=b && b<=c => a<=c.
	trans := func(a, b, c Value) bool {
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 {
			return Compare(a, c) <= 0
		}
		return true
	}
	if err := quick.Check(trans, &quick.Config{MaxCount: 2000}); err != nil {
		t.Errorf("transitivity: %v", err)
	}
}

func TestKindRanking(t *testing.T) {
	if Compare(NewNull(), NewInt(-999)) >= 0 {
		t.Error("NULL must sort before numbers")
	}
	if Compare(NewInt(999), NewString("")) >= 0 {
		t.Error("numbers must sort before strings")
	}
	if Compare(NewInt(2), NewFloat(2.5)) >= 0 {
		t.Error("int/float compare numerically")
	}
	if !Equal(NewInt(2), NewFloat(2.0)) {
		t.Error("2 == 2.0")
	}
}

func TestRowKeyInjective(t *testing.T) {
	// Distinct rows must produce distinct keys (grouping correctness).
	f := func(a, b []Value) bool {
		ra, rb := Row(a), Row(b)
		if CompareRows(ra, rb) == 0 {
			return ra.Key() == rb.Key()
		}
		return ra.Key() != rb.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRowKeyTrap(t *testing.T) {
	// A classic concatenation trap: ("ab","c") vs ("a","bc").
	a := Row{NewString("ab"), NewString("c")}
	b := Row{NewString("a"), NewString("bc")}
	if a.Key() == b.Key() {
		t.Fatalf("keys collide: %q", a.Key())
	}
}

func TestCoerce(t *testing.T) {
	cases := []struct {
		in   Value
		t    ColumnType
		want Value
	}{
		{NewString("42"), TInt, NewInt(42)},
		{NewFloat(3.9), TInt, NewInt(3)},
		{NewInt(7), TFloat, NewFloat(7)},
		{NewInt(7), TString, NewString("7")},
		{NewNull(), TInt, NewNull()},
	}
	for _, tc := range cases {
		got := Coerce(tc.in, tc.t)
		if !Equal(got, tc.want) || got.K != tc.want.K {
			t.Errorf("Coerce(%v, %v) = %v, want %v", tc.in, tc.t, got, tc.want)
		}
	}
}

func TestCompareRowsPrefix(t *testing.T) {
	short := Row{NewInt(1)}
	long := Row{NewInt(1), NewInt(2)}
	if CompareRows(short, long) >= 0 {
		t.Error("shorter prefix must sort first")
	}
	if CompareRows(long, long) != 0 {
		t.Error("equal rows")
	}
}

func TestCloneIndependence(t *testing.T) {
	r := Row{NewInt(1), NewString("x")}
	cp := r.Clone()
	cp[0] = NewInt(99)
	if r[0].AsInt() != 1 {
		t.Error("clone aliases the original")
	}
	if Row(nil).Clone() != nil {
		t.Error("nil clone should stay nil")
	}
}

func TestValueStringForms(t *testing.T) {
	if NewString("a").String() != `"a"` {
		t.Errorf("string quoting: %s", NewString("a"))
	}
	if NewNull().String() != "NULL" {
		t.Errorf("null rendering")
	}
	if NewInt(-3).AsString() != "-3" {
		t.Errorf("int as string")
	}
	if NewString("2.5").AsFloat() != 2.5 {
		t.Errorf("string as float")
	}
}

// TestCompareTotalOrder checks antisymmetry and transitivity over every
// triple of edge values: NaN, ±0, ±Inf, the int64 extremes, the empty
// string and NULL, with ordinary numbers beside them. NaN sorts after
// every other number and equals only NaN.
func TestCompareTotalOrder(t *testing.T) {
	vals := []Value{
		NewFloat(math.Copysign(0, -1)), NewFloat(0), NewFloat(math.NaN()), NewFloat(-math.NaN()),
		NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewInt(math.MinInt64), NewInt(math.MaxInt64),
		NewString(""), NewNull(), NewInt(5), NewFloat(5), NewFloat(3.25), NewString("a"),
	}
	for _, a := range vals {
		for _, b := range vals {
			if ab, ba := Compare(a, b), Compare(b, a); ab != -ba {
				t.Errorf("Compare(%v, %v) = %d, Compare(%v, %v) = %d", a, b, ab, b, a, ba)
			}
			for _, c := range vals {
				if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Errorf("%v <= %v <= %v, but Compare(%v, %v) > 0", a, b, c, a, c)
				}
			}
		}
	}
	nan := NewFloat(math.NaN())
	for _, v := range []Value{NewFloat(math.Inf(1)), NewInt(math.MaxInt64), NewFloat(5)} {
		if Compare(v, nan) >= 0 {
			t.Errorf("Compare(%v, NaN) = %d, want NaN after every number", v, Compare(v, nan))
		}
	}
	if Compare(nan, NewFloat(-math.NaN())) != 0 || Compare(nan, NewString("")) >= 0 {
		t.Error("NaN must equal NaN and sort before strings")
	}
}
