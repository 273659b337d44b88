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
// lets them be used directly as hash-index and map keys; Float stores a
// canonical bit pattern so that == agrees with Equal and Compare.
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

// Equal reports value equality. Int and float compare numerically; NULL is
// equal only to NULL (three-valued logic is handled by callers that need it).
func (v Value) Equal(o Value) bool {
	if v.kind == o.kind {
		return v == o
	}
	if numericKinds(v, o) {
		return v.AsFloat() == o.AsFloat()
	}
	return false
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

// Less reports whether v sorts before o under Compare.
func (v Value) Less(o Value) bool { return v.Compare(o) < 0 }

// ColType is the declared type of a column.
type ColType uint8

// Declared column types.
const (
	TypeInt ColType = iota + 1
	TypeFloat
	TypeString
	TypeBool
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

// Accepts reports whether a value of kind k may be stored in a column of
// type t. NULL is storable in any column; ints are accepted by float columns.
func (t ColType) Accepts(k Kind) bool {
	switch k {
	case KindNull:
		return true
	case KindInt:
		return t == TypeInt || t == TypeFloat
	case KindFloat:
		return t == TypeFloat
	case KindString:
		return t == TypeString
	case KindBool:
		return t == TypeBool
	default:
		return false
	}
}
