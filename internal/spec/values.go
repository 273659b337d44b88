package spec

// This file states the one rule of equality: a column's declared type decides
// the kind of every value it holds, and a value is compared with a column's
// values only once it has been converted to that kind.

import (
	"math"

	"precis/internal/storage"
)

// maxExact is 2^53: every integer of at most this magnitude is exactly one
// float64, and 2^53+1 is the first that is not.
const maxExact = 1 << 53

// kinds is the kind of the values a column of each type holds, NULL aside.
var kinds = map[storage.ColType]storage.Kind{
	storage.TypeInt:    storage.KindInt,
	storage.TypeFloat:  storage.KindFloat,
	storage.TypeString: storage.KindString,
	storage.TypeBool:   storage.KindBool,
}

// stored returns v as a column of type t holds it once written, false when
// t cannot hold it: NULL as it is; an Int in a FLOAT column the Float of the
// same number, up to ±2^53 only, where that is exact; any other value as it
// is, in a column of its own kind only.
func stored(t storage.ColType, v storage.Value) (storage.Value, bool) {
	switch {
	case v.IsNull():
		return v, true
	case t == storage.TypeFloat && v.Kind() == storage.KindInt:
		return storage.Float(float64(v.AsInt())), -maxExact <= v.AsInt() && v.AsInt() <= maxExact
	}
	return v, kinds[t] == v.Kind()
}

// key returns v as a lookup in a column of type t compares it with the
// column's values, by ==, false when none of them can equal it: NULL never
// matches; an integral Float in the int64 range looks an INT column up as its
// Int; anything else as it would be stored.
func key(t storage.ColType, v storage.Value) (storage.Value, bool) {
	switch {
	case v.IsNull():
		return v, false
	case t == storage.TypeInt && v.Kind() == storage.KindFloat:
		f := v.AsFloat()
		if f != math.Trunc(f) || f < math.MinInt64 || f >= math.MaxInt64 {
			return v, false
		}
		return storage.Int(int64(f)), true
	}
	return stored(t, v)
}

// types returns the declared types of s's columns.
func types(s *storage.Schema) []storage.ColType {
	out := make([]storage.ColType, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Type
	}
	return out
}
