// Package storage implements the in-memory relational engine that the précis
// system runs on. It plays the role that Oracle 9i R2 plays in the paper: it
// stores typed relations, enforces primary-key and referential-integrity
// constraints, and maintains hash indexes on join attributes so that the
// result-database generator can fetch tuples by join-attribute value in
// near-constant time (the IndexTime + TupleTime cost model of the paper).
package storage

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type carried by a Value.
type Kind uint8

// The supported value kinds. Null is the zero Kind so that the zero Value is
// a well-formed SQL NULL.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a compact tagged union holding a single attribute value: 32
// bytes, the kind plus one 64-bit word shared by the scalar kinds plus the
// string header. Values are comparable with == (no reference fields), which
// lets them be used directly as hash-index and map keys, and is their
// equality: Float stores a canonical bit pattern so that two Floats are ==
// exactly when Compare ties them.
type Value struct {
	kind Kind
	n    uint64 // int64 bits, bool as 0/1, or canonical float64 bits
	s    string
}

// Null is the SQL NULL value.
var Null = Value{}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// canonicalNaN is the one bit pattern every NaN is stored as.
var canonicalNaN = math.Float64bits(math.NaN())

// Float returns a floating-point value. -0 is stored as +0 and every NaN as
// one bit pattern, so two Floats are == exactly when Compare ties them: a
// NaN in an indexed or key column is found, deduplicated and removed like
// any other value.
func Float(v float64) Value {
	bits := math.Float64bits(v)
	switch {
	case v == 0:
		bits = 0
	case v != v:
		bits = canonicalNaN
	}
	return Value{kind: KindFloat, n: bits}
}

// String returns a string value.
func String(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{kind: KindBool, n: n}
}

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload. It is valid only when Kind is KindInt.
func (v Value) AsInt() int64 { return int64(v.n) }

// AsFloat returns the numeric payload as a float64 for KindInt and KindFloat.
func (v Value) AsFloat() float64 {
	if v.kind == KindInt {
		return float64(int64(v.n))
	}
	return math.Float64frombits(v.n)
}

// AsString returns the string payload. It is valid only when Kind is KindString.
func (v Value) AsString() string { return v.s }

// AsBool returns the boolean payload. It is valid only when Kind is KindBool.
func (v Value) AsBool() bool { return v.n != 0 }

// AppendText appends the display form of v to dst — a string verbatim, NULL
// as "NULL" — and returns the extended slice. It is the one formatter:
// String, SQL and every renderer that writes into a buffer go through it, so
// narrative, JSON and SQL text cannot drift apart.
func (v Value) AppendText(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, "NULL"...)
	case KindInt:
		return strconv.AppendInt(dst, v.AsInt(), 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.AsFloat(), 'g', -1, 64)
	case KindString:
		return append(dst, v.s...)
	case KindBool:
		return strconv.AppendBool(dst, v.n != 0)
	default:
		return append(dst, '?')
	}
}

// String renders the value for display; strings are returned verbatim.
func (v Value) String() string {
	if v.kind == KindString {
		return v.s
	}
	var buf [32]byte // the longest number: 24 bytes of -1.7976931348623157e+308
	return string(v.AppendText(buf[:0]))
}

// SQL renders the value as a SQL literal (strings quoted and escaped).
func (v Value) SQL() string {
	if v.kind == KindString {
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	}
	return v.String()
}

// numericKinds reports whether both values carry numbers.
func numericKinds(a, b Value) bool {
	return (a.kind == KindInt || a.kind == KindFloat) && (b.kind == KindInt || b.kind == KindFloat)
}

// Compare returns -1, 0 or +1 ordering v relative to o. NULL sorts first,
// then cross-kind values order by kind; numbers compare numerically, with
// NaN equal to itself and before every other number (cmp.Compare's order).
func (v Value) Compare(o Value) int {
	if numericKinds(v, o) && (v.kind != o.kind || v.kind == KindFloat) {
		return cmp.Compare(v.AsFloat(), o.AsFloat())
	}
	if v.kind != o.kind {
		return cmp.Compare(v.kind, o.kind)
	}
	switch v.kind {
	case KindInt:
		return cmp.Compare(v.AsInt(), o.AsInt())
	case KindBool:
		return cmp.Compare(v.n, o.n)
	case KindString:
		return strings.Compare(v.s, o.s)
	default:
		return 0
	}
}

// ColType is the declared type of a column: the kind of every value it
// holds, NULL aside.
type ColType uint8

// Declared column types, numbered as the kinds of their values.
const (
	TypeInt    = ColType(KindInt)
	TypeFloat  = ColType(KindFloat)
	TypeString = ColType(KindString)
	TypeBool   = ColType(KindBool)
)

// String returns the SQL-ish name of the type.
func (t ColType) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeString:
		return "TEXT"
	case TypeBool:
		return "BOOL"
	default:
		return fmt.Sprintf("TYPE(%d)", uint8(t))
	}
}

// maxExact is 2^53: every integer of at most this magnitude is exactly one
// float64, and 2^53+1 is the first that is not.
const maxExact = 1 << 53

// Convert returns v as a column of type t stores it, and whether it fits
// there: NULL, or a value of t's kind, as it is; an Int in a FLOAT column as
// the Float of the same number, up to ±2^53, where that is exact. Every path
// that stores a tuple converts its values through here (Relation.Fit).
func (t ColType) Convert(v Value) (Value, bool) {
	if t == TypeFloat && v.kind == KindInt {
		n := v.AsInt()
		return Float(float64(n)), -maxExact <= n && n <= maxExact
	}
	return v, v.kind == KindNull || v.kind == Kind(t)
}

// Key returns v as a lookup in a column of type t compares it with the
// column's values, by ==, and false when none can equal it: NULL never
// matches; an integral Float in the int64 range probes an INT column as its
// Int; any other value probes as Convert would store it.
func (t ColType) Key(v Value) (Value, bool) {
	if v.kind == Kind(t) { // as most lookups are: this much inlines
		return v, true
	}
	return t.convertKey(v)
}

func (t ColType) convertKey(v Value) (Value, bool) {
	switch {
	case v.kind == KindNull:
		return v, false
	case t == TypeInt && v.kind == KindFloat:
		f := v.AsFloat()
		if f != math.Trunc(f) || f < -(1<<63) || f >= 1<<63 { // NaN fails the first
			return v, false
		}
		return Int(int64(f)), true
	}
	return t.Convert(v)
}
