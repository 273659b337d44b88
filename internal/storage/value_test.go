package storage

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Null, KindNull, "NULL"},
		{Int(42), KindInt, "42"},
		{Int(-7), KindInt, "-7"},
		{Float(2.5), KindFloat, "2.5"},
		{String("abc"), KindString, "abc"},
		{Bool(true), KindBool, "true"},
		{Bool(false), KindBool, "false"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.String() != c.str {
			t.Errorf("kind %v: String() = %q, want %q", c.kind, c.v.String(), c.str)
		}
	}
}

func TestValueAccessors(t *testing.T) {
	if Int(7).AsInt() != 7 {
		t.Error("AsInt")
	}
	if Int(7).AsFloat() != 7.0 {
		t.Error("int AsFloat")
	}
	if Float(1.5).AsFloat() != 1.5 {
		t.Error("AsFloat")
	}
	if String("x").AsString() != "x" {
		t.Error("AsString")
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("AsBool")
	}
	if !Null.IsNull() || Int(0).IsNull() {
		t.Error("IsNull")
	}
}

// TestColTypeConvertAndKey: a column's declared type decides the kind of
// every value it stores. Convert turns an Int into a FLOAT column's Float up
// to ±2^53 and refuses it beyond; Key converts a probe both ways, an integral
// Float into an INT column's Int, and refuses NULL and what cannot convert.
func TestColTypeConvertAndKey(t *testing.T) {
	const big = int64(1) << 53
	nan, inf := Float(math.NaN()), Float(math.Inf(1))
	none := Value{kind: 99} // stands for "refused"
	cases := []struct {
		t          ColType
		v          Value
		store, key Value
	}{
		{TypeFloat, Int(1), Float(1), Float(1)},
		{TypeFloat, Int(big), Float(float64(big)), Float(float64(big))},
		{TypeFloat, Int(-big), Float(float64(-big)), Float(float64(-big))},
		{TypeFloat, Int(big + 1), none, none},
		{TypeFloat, Int(-big - 1), none, none},
		{TypeFloat, Float(2.5), Float(2.5), Float(2.5)},
		{TypeFloat, nan, nan, nan},
		{TypeFloat, Null, Null, none},
		{TypeFloat, String("1"), none, none},
		{TypeInt, Int(7), Int(7), Int(7)},
		{TypeInt, Int(big + 1), Int(big + 1), Int(big + 1)},
		{TypeInt, Float(7), none, Int(7)},
		{TypeInt, Float(-0.0), none, Int(0)},
		{TypeInt, Float(1 << 60), none, Int(1 << 60)},
		{TypeInt, Float(-(1 << 63)), none, Int(math.MinInt64)},
		{TypeInt, Float(1 << 63), none, none},
		{TypeInt, Float(7.5), none, none},
		{TypeInt, nan, none, none},
		{TypeInt, inf, none, none},
		{TypeInt, Float(math.Inf(-1)), none, none},
		{TypeInt, Null, Null, none},
		{TypeString, String("x"), String("x"), String("x")},
		{TypeString, Int(1), none, none},
		{TypeBool, Bool(true), Bool(true), Bool(true)},
		{TypeBool, String("true"), none, none},
		{TypeBool, Null, Null, none},
	}
	for _, c := range cases {
		for _, f := range []struct {
			name string
			fn   func(Value) (Value, bool)
			want Value
		}{{"Convert", c.t.Convert, c.store}, {"Key", c.t.Key, c.key}} {
			got, ok := f.fn(c.v)
			if ok != (f.want != none) || ok && got != f.want {
				t.Errorf("%v.%s(%s %s) = %s %s, %v; want %s %s", c.t, f.name, c.v.Kind(), c.v, got.Kind(), got, ok, f.want.Kind(), f.want)
			}
		}
	}
}

func TestValueCompare(t *testing.T) {
	ordered := []Value{Null, Int(-5), Int(0), Float(0.5), Int(1), Float(1.5), Int(2)}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			// Null compares before numerics by kind ordering.
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
	if String("a").Compare(String("b")) != -1 || String("b").Compare(String("a")) != 1 {
		t.Error("string ordering")
	}
	if Bool(false).Compare(Bool(true)) != -1 {
		t.Error("bool ordering")
	}
}

func TestValueComparable(t *testing.T) {
	// Values must be usable as map keys: same content, same key.
	m := map[Value]int{}
	m[String("x")] = 1
	m[String("x")] = 2
	m[Int(1)] = 3
	if len(m) != 2 || m[String("x")] != 2 {
		t.Errorf("value as map key misbehaved: %v", m)
	}
}

// TestValueAppendText: AppendText is the one formatter. Every kind renders as
// it always did (strconv's shortest 'g' form for floats, -0 stored as 0, one
// NaN), it appends after what dst holds, and String and SQL say the same.
func TestValueAppendText(t *testing.T) {
	cases := []struct {
		v    Value
		text string
	}{
		{Null, "NULL"},
		{Value{kind: 99}, "?"},
		{Int(0), "0"},
		{Int(7), "7"},
		{Int(-42), "-42"},
		{Int(math.MaxInt64), "9223372036854775807"},
		{Int(math.MinInt64), "-9223372036854775808"},
		{Float(0), "0"},
		{Float(math.Copysign(0, -1)), "0"},
		{Float(2.5), "2.5"},
		{Float(-1.0 / 3), "-0.3333333333333333"},
		{Float(1e20), "1e+20"},
		{Float(1e21), "1e+21"},
		{Float(123456789), "1.23456789e+08"},
		{Float(-math.MaxFloat64), "-1.7976931348623157e+308"},
		{Float(math.SmallestNonzeroFloat64), "5e-324"},
		{Float(math.NaN()), "NaN"},
		{Float(math.Inf(1)), "+Inf"},
		{Float(math.Inf(-1)), "-Inf"},
		{String(""), ""},
		{String("it's <verbatim> \x00"), "it's <verbatim> \x00"},
		{Bool(true), "true"},
		{Bool(false), "false"},
	}
	for _, c := range cases {
		if got := string(c.v.AppendText(nil)); got != c.text {
			t.Errorf("%v %#v: AppendText = %q, want %q", c.v.Kind(), c.v, got, c.text)
		}
		if got := string(c.v.AppendText([]byte("kept "))); got != "kept "+c.text {
			t.Errorf("%v: appended %q", c.v.Kind(), got)
		}
		if got := c.v.String(); got != c.text {
			t.Errorf("%v: String() = %q, AppendText %q", c.v.Kind(), got, c.text)
		}
		if c.v.Kind() != KindString && c.v.SQL() != c.text {
			t.Errorf("%v: SQL() = %q, AppendText %q", c.v.Kind(), c.v.SQL(), c.text)
		}
	}
}

func TestValueSQL(t *testing.T) {
	if got := String("O'Hara").SQL(); got != "'O''Hara'" {
		t.Errorf("SQL() = %q", got)
	}
	if got := Int(5).SQL(); got != "5" {
		t.Errorf("SQL() = %q", got)
	}
}

// randomValue draws an arbitrary Value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Null
	case 1:
		return Int(int64(r.Intn(100) - 50))
	case 2:
		return Float(float64(r.Intn(100))/4 - 10)
	case 3:
		letters := []byte("abcdef")
		n := r.Intn(5)
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[r.Intn(len(letters))]
		}
		return String(string(b))
	default:
		return Bool(r.Intn(2) == 0)
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 2000,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(randomValue(r))
			args[1] = reflect.ValueOf(randomValue(r))
		},
	}
	prop := func(a, b Value) bool {
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestCompareTransitive(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 2000,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(randomValue(r))
			args[1] = reflect.ValueOf(randomValue(r))
			args[2] = reflect.ValueOf(randomValue(r))
		},
	}
	prop := func(a, b, c Value) bool {
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 {
			return a.Compare(c) <= 0
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestEqualConsistentWithCompare(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 2000,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(randomValue(r))
			args[1] = reflect.ValueOf(randomValue(r))
		},
	}
	prop := func(a, b Value) bool {
		if a == b {
			return a.Compare(b) == 0
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
