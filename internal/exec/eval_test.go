package exec

import (
	"testing"

	"dmv/internal/sql"
	"dmv/internal/value"
)

func evalConst(t *testing.T, expr string, params ...value.Value) value.Value {
	t.Helper()
	stmt, err := sql.Parse("SELECT " + expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	e := &env{params: params}
	v, err := eval(bindFirst(stmt, nil), e)
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	return v
}

// bindFirst binds a SELECT's first output expression with the columns cols
// in scope.
func bindFirst(stmt sql.Statement, cols map[string]int) expr {
	b := &binder{cols: cols}
	return b.bind(stmt.(*sql.Select).Exprs[0].Expr, nil)
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		expr string
		want value.Value
	}{
		{`1 + 2 * 3`, value.NewInt(7)},
		{`(1 + 2) * 3`, value.NewInt(9)},
		{`10 - 4 - 3`, value.NewInt(3)}, // left associative
		{`7 / 2`, value.NewFloat(3.5)},  // division is float
		{`1.5 + 1`, value.NewFloat(2.5)},
		{`-5 + 2`, value.NewInt(-3)},
		{`2 * 3 + 1.0`, value.NewFloat(7)},
	}
	for _, tc := range cases {
		got := evalConst(t, tc.expr)
		if !value.Equal(got, tc.want) {
			t.Errorf("%s = %v, want %v", tc.expr, got, tc.want)
		}
	}
}

func TestNullSemantics(t *testing.T) {
	// NULL propagates through arithmetic, never matches equality, and
	// division by zero yields NULL.
	if got := evalConst(t, `NULL + 1`); !got.IsNull() {
		t.Errorf("NULL + 1 = %v", got)
	}
	if got := evalConst(t, `1 / 0`); !got.IsNull() {
		t.Errorf("1/0 = %v", got)
	}
	if got := evalConst(t, `NULL = NULL`); got.AsInt() != 0 {
		t.Errorf("NULL = NULL must be false, got %v", got)
	}
	if got := evalConst(t, `NULL <> 1`); got.AsInt() != 0 {
		t.Errorf("NULL <> 1 must be false, got %v", got)
	}
	if got := evalConst(t, `NULL IS NULL`); got.AsInt() != 1 {
		t.Errorf("NULL IS NULL = %v", got)
	}
	if got := evalConst(t, `1 IS NOT NULL`); got.AsInt() != 1 {
		t.Errorf("1 IS NOT NULL = %v", got)
	}
	if got := evalConst(t, `NULL < 5`); got.AsInt() != 0 {
		t.Errorf("NULL < 5 must be false, got %v", got)
	}
}

func TestLogicalOps(t *testing.T) {
	cases := map[string]int64{
		`1 AND 1`:       1,
		`1 AND 0`:       0,
		`0 OR 1`:        1,
		`0 OR 0`:        0,
		`NOT 0`:         1,
		`NOT 3`:         0,
		`1 AND 1 AND 0`: 0,
	}
	for expr, want := range cases {
		if got := evalConst(t, expr); got.AsInt() != want {
			t.Errorf("%s = %v, want %d", expr, got, want)
		}
	}
}

// TestLikeMatching pins LIKE to characters, not bytes: _ matches one rune,
// case folds rune by rune, % backtracks over runs, and an invalid UTF-8 byte
// is one U+FFFD character, as strings.ToLower makes it.
func TestLikeMatching(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_x_o", false},
		{"hello", "", false},
		{"", "%", true},
		{"abc", "%%", true},
		{"abc", "a%c", true},
		{"abc", "a%d", false},
		{"Title 042", "Title 0%", true},
		{"HELLO", "hello", true}, // case-insensitive like MySQL
		// mixed case
		{"CaFÉ au LAIT", "café%lait", true},
		{"ÀB", "àb", true},
		{"İ", "i", true}, // unicode.ToLower('İ') is 'i'
		{"Straße", "STRASSE", false},
		// % runs and backtracking
		{"abcabd", "%ab%d", true},
		{"aaa", "a%%a%%a", true},
		{"aa", "a%%a%%a", false},
		{"mississippi", "m%iss%iss%", true},
		{"mississippi", "%sip%sip", false},
		{"xay", "%a", false},
		// _ on multi-byte runes
		{"café", "caf_", true},
		{"ÀB", "_b", true},
		{"日本語", "___", true},
		{"日本語", "__", false},
		{"日本語", "%_語", true},
		{"naïve", "na_ve", true},
		{"naïve", "na__ve", false},
		// invalid UTF-8, as before
		{"a\xffb", "a\xffb", true},
		{"a\xffb", "a%b", true},
		{"a\xffb", "a\xfeb", true},
		{"a\xffb", "a�b", true},
		{"a\xffb", "acb", false},
	}
	for _, tc := range cases {
		if got := likeMatch(tc.s, tc.pat); got != tc.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", tc.s, tc.pat, got, tc.want)
		}
	}
}

var likeSink bool

// TestLikeAllocs checks LIKE matches in place, without copying either side.
func TestLikeAllocs(t *testing.T) {
	for _, c := range [][2]string{
		{"The Art of Computer Programming", "%art%PROG%"},
		{"Café Society", "caf_ %"},
	} {
		if n := testing.AllocsPerRun(100, func() { likeSink = likeMatch(c[0], c[1]) }); n != 0 {
			t.Errorf("likeMatch(%q, %q): %.0f allocs, want 0", c[0], c[1], n)
		}
		if !likeSink {
			t.Errorf("likeMatch(%q, %q) = false", c[0], c[1])
		}
	}
}

func TestBetweenAndIn(t *testing.T) {
	if got := evalConst(t, `3 BETWEEN 1 AND 5`); got.AsInt() != 1 {
		t.Errorf("between = %v", got)
	}
	if got := evalConst(t, `6 BETWEEN 1 AND 5`); got.AsInt() != 0 {
		t.Errorf("between = %v", got)
	}
	if got := evalConst(t, `5 BETWEEN 1 AND 5`); got.AsInt() != 1 {
		t.Errorf("between inclusive = %v", got)
	}
	if got := evalConst(t, `'b' IN ('a', 'b')`); got.AsInt() != 1 {
		t.Errorf("in = %v", got)
	}
	if got := evalConst(t, `'c' IN ('a', 'b')`); got.AsInt() != 0 {
		t.Errorf("in = %v", got)
	}
}

func TestParams(t *testing.T) {
	got := evalConst(t, `? + ?`, value.NewInt(2), value.NewInt(3))
	if got.AsInt() != 5 {
		t.Errorf("params = %v", got)
	}
	// Missing parameter is an error, not a silent NULL.
	stmt, _ := sql.Parse(`SELECT ?`)
	e := &env{}
	if _, err := eval(bindFirst(stmt, nil), e); err == nil {
		t.Error("missing param did not error")
	}
}

func TestStringComparison(t *testing.T) {
	if got := evalConst(t, `'abc' < 'abd'`); got.AsInt() != 1 {
		t.Errorf("string compare = %v", got)
	}
	if got := evalConst(t, `'abc' = 'abc'`); got.AsInt() != 1 {
		t.Errorf("string eq = %v", got)
	}
}

func TestUnknownColumnError(t *testing.T) {
	stmt, _ := sql.Parse(`SELECT nope`)
	e := &env{row: value.Row{value.NewInt(1)}}
	if _, err := eval(bindFirst(stmt, map[string]int{"real": 0}), e); err == nil {
		t.Error("unknown column did not error")
	}
}

func TestTruthiness(t *testing.T) {
	cases := []struct {
		v    value.Value
		want bool
	}{
		{value.NewNull(), false},
		{value.NewInt(0), false},
		{value.NewInt(1), true},
		{value.NewFloat(0), false},
		{value.NewFloat(0.1), true},
		{value.NewString(""), false},
		{value.NewString("x"), true},
	}
	for _, tc := range cases {
		if got := truthy(tc.v); got != tc.want {
			t.Errorf("truthy(%v) = %v", tc.v, got)
		}
	}
}
