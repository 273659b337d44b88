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

func TestValueEqual(t *testing.T) {
	if !Int(3).Equal(Int(3)) {
		t.Error("int equality")
	}
	if Int(3).Equal(Int(4)) {
		t.Error("int inequality")
	}
	if !Int(3).Equal(Float(3.0)) {
		t.Error("cross-kind numeric equality")
	}
	if Int(3).Equal(String("3")) {
		t.Error("int should not equal string")
	}
	if !Null.Equal(Null) {
		t.Error("NULL equals NULL under Equal")
	}
	if Null.Equal(Int(0)) {
		t.Error("NULL should not equal 0")
	}
	if !String("a").Equal(String("a")) || String("a").Equal(String("b")) {
		t.Error("string equality")
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

func TestColTypeAccepts(t *testing.T) {
	cases := []struct {
		t    ColType
		k    Kind
		want bool
	}{
		{TypeInt, KindInt, true},
		{TypeInt, KindFloat, false},
		{TypeInt, KindNull, true},
		{TypeFloat, KindInt, true},
		{TypeFloat, KindFloat, true},
		{TypeString, KindString, true},
		{TypeString, KindInt, false},
		{TypeBool, KindBool, true},
		{TypeBool, KindString, false},
	}
	for _, c := range cases {
		if got := c.t.Accepts(c.k); got != c.want {
			t.Errorf("%v.Accepts(%v) = %v, want %v", c.t, c.k, got, c.want)
		}
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
		if a.Equal(b) {
			return a.Compare(b) == 0
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
