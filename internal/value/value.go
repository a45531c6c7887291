// Package value defines the SQL value model shared by the storage engines,
// the SQL executor, and the replication wire format.
//
// A Value is a small tagged union over the four column types the TPC-W
// schema needs (64-bit integers, 64-bit floats, strings, and NULL). Rows are
// flat slices of values in table-column order. Values are comparable with a
// total order (NULL sorts first, then numerics by numeric value, then
// strings lexicographically) so they can key the red-black-tree indexes.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind discriminates the dynamic type of a Value.
type Kind uint8

// Value kinds. Null is deliberately the zero value so that a zero Value is a
// valid SQL NULL.
const (
	Null Kind = iota
	Int
	Float
	String
)

// String implements fmt.Stringer for diagnostics.
func (k Kind) String() string {
	switch k {
	case Null:
		return "NULL"
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case String:
		return "STRING"
	default:
		return "KIND(" + strconv.Itoa(int(k)) + ")"
	}
}

// Value is one SQL datum. The zero Value is NULL.
//
// A Value is 32 bytes: the kind, one 64-bit payload word and a string
// header. An Int keeps its int64's bits in the word and a Float keeps
// math.Float64bits, so no value sets two numeric fields. Read the number
// with Int or Float after checking K, or convert with AsInt and AsFloat.
// Compare values with Compare or Equal, never with ==: == compares the
// payload bits, so -0.0 and +0.0 differ under it and a NaN equals itself.
type Value struct {
	K Kind
	n uint64 // Int: the int64's bits; Float: math.Float64bits
	S string
}

// Row is one table row, in declared column order.
type Row []Value

// Convenience constructors.

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{K: Int, n: uint64(i)} }

// NewFloat returns a float value.
func NewFloat(f float64) Value { return Value{K: Float, n: math.Float64bits(f)} }

// NewString returns a string value.
func NewString(s string) Value { return Value{K: String, S: s} }

// NewNull returns the NULL value.
func NewNull() Value { return Value{} }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.K == Null }

// Int returns an Int value's integer. For another kind the result is
// meaningless; AsInt converts.
func (v Value) Int() int64 { return int64(v.n) }

// Float returns a Float value's number. For another kind the result is
// meaningless; AsFloat converts.
func (v Value) Float() float64 { return math.Float64frombits(v.n) }

// AsInt returns the value coerced to int64. Floats truncate; strings parse
// (returning 0 on failure); NULL is 0.
func (v Value) AsInt() int64 {
	switch v.K {
	case Int:
		return v.Int()
	case Float:
		return int64(v.Float())
	case String:
		n, _ := strconv.ParseInt(v.S, 10, 64)
		return n
	default:
		return 0
	}
}

// AsFloat returns the value coerced to float64.
func (v Value) AsFloat() float64 {
	switch v.K {
	case Int:
		return float64(v.Int())
	case Float:
		return v.Float()
	case String:
		f, _ := strconv.ParseFloat(v.S, 64)
		return f
	default:
		return 0
	}
}

// AsString returns the value rendered as a string.
func (v Value) AsString() string {
	switch v.K {
	case Int:
		return strconv.FormatInt(v.Int(), 10)
	case Float:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case String:
		return v.S
	default:
		return ""
	}
}

// String implements fmt.Stringer; strings are quoted for readability.
func (v Value) String() string {
	if v.K == String {
		return strconv.Quote(v.S)
	}
	if v.K == Null {
		return "NULL"
	}
	return v.AsString()
}

// Compare returns -1, 0, or +1 ordering a before/equal/after b. The order is
// total: NULL < numbers < strings; Int and Float compare numerically with
// each other, and a Float NaN sorts after every other number and equals
// only NaN.
func Compare(a, b Value) int {
	ra, rb := rank(a.K), rank(b.K)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case 0: // both NULL
		return 0
	case 1: // both numeric
		if a.K == Int && b.K == Int {
			switch ai, bi := a.Int(), b.Int(); {
			case ai < bi:
				return -1
			case ai > bi:
				return 1
			}
			return 0
		}
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		// Equal, or at least one is NaN, which no comparison orders.
		if an, bn := af != af, bf != bf; an != bn {
			if an {
				return 1
			}
			return -1
		}
		return 0
	default: // both strings
		return strings.Compare(a.S, b.S)
	}
}

func rank(k Kind) int {
	switch k {
	case Null:
		return 0
	case Int, Float:
		return 1
	default:
		return 2
	}
}

// Equal reports whether a and b are equal under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// CompareRows orders two rows (or row prefixes) lexicographically; shorter
// prefixes sort first when equal so far.
func CompareRows(a, b Row) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Clone returns a deep copy of the row (values are already value types, so a
// shallow copy of the slice suffices; the backing array is new).
func (r Row) Clone() Row {
	if r == nil {
		return nil
	}
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// String renders the row for diagnostics.
func (r Row) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range r {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Key renders a row as a stable map key for grouping and duplicate
// elimination. The encoding is injective: each value is prefixed by its kind
// and length so distinct rows never collide.
func (r Row) Key() string {
	var buf [64]byte
	b := buf[:0]
	for _, v := range r {
		b = v.AppendKey(b)
	}
	return string(b)
}

// AppendKey appends v's part of Row.Key to b. A caller that keys a map by
// the result can look it up as m[string(b)] without allocating.
func (v Value) AppendKey(b []byte) []byte {
	switch v.K {
	case Null:
		return append(b, "n;"...)
	case Int:
		b = strconv.AppendInt(append(b, 'i'), v.Int(), 10)
	case Float:
		b = strconv.AppendFloat(append(b, 'f'), v.Float(), 'b', -1, 64)
	case String:
		b = strconv.AppendInt(append(b, 's'), int64(len(v.S)), 10)
		b = append(append(b, ':'), v.S...)
	default:
		return b
	}
	return append(b, ';')
}

// ColumnType is the declared type of a table column.
type ColumnType uint8

// Column types supported by the engine.
const (
	TInt ColumnType = iota + 1
	TFloat
	TString
)

// String implements fmt.Stringer.
func (t ColumnType) String() string {
	switch t {
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TString:
		return "VARCHAR"
	default:
		return fmt.Sprintf("TYPE(%d)", uint8(t))
	}
}

// Coerce converts v to column type t, mirroring permissive SQL assignment.
func Coerce(v Value, t ColumnType) Value {
	if v.IsNull() {
		return v
	}
	switch t {
	case TInt:
		if v.K == Int {
			return v
		}
		return NewInt(v.AsInt())
	case TFloat:
		if v.K == Float {
			return v
		}
		return NewFloat(v.AsFloat())
	case TString:
		if v.K == String {
			return v
		}
		return NewString(v.AsString())
	default:
		return v
	}
}
