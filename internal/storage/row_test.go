package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
)

// rowCase turns a byte string into a schema and rows of values for it: the
// first byte the number of columns (1–8), then a byte per column its type,
// then rows — a byte per column choosing NULL or a value of the column's type
// (a FLOAT column an Int or a Float, each read from eight bytes, so that NaN,
// ±Inf and −0 come out of the bits; a TEXT column a length byte and that many
// bytes, empty, multi-byte or invalid UTF-8) — until the bytes run out.
func rowCase(data []byte) (*Schema, [][]Value) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	word := func() (w uint64) {
		for range 8 {
			w = w<<8 | uint64(next())
		}
		return w
	}
	cols := make([]Column, 1+next()%8)
	for i := range cols {
		cols[i] = Column{fmt.Sprint("c", i), ColType(1 + next()%4)}
	}
	var rows [][]Value
	for len(data) > 0 && len(rows) < 8 {
		row := make([]Value, len(cols))
		for i, c := range cols {
			switch sel := next(); {
			case sel%5 == 0: // NULL
			case c.Type == TypeInt, c.Type == TypeFloat && sel%2 == 0:
				row[i] = Int(int64(word()))
			case c.Type == TypeFloat:
				row[i] = Float(math.Float64frombits(word()))
			case c.Type == TypeBool:
				row[i] = Bool(sel%2 == 1)
			default:
				text := make([]byte, next()%64)
				for j := range text {
					text[j] = next()
				}
				row[i] = String(string(text))
			}
		}
		rows = append(rows, row)
	}
	return MustSchema("R", "", cols...), rows
}

// rowSeed is the byte string rowCase turns into cols and rows.
func rowSeed(cols []ColType, rows ...[]Value) []byte {
	b := []byte{byte(len(cols) - 1)}
	for _, c := range cols {
		b = append(b, byte(c-1))
	}
	word := func(w uint64) {
		for i := 56; i >= 0; i -= 8 {
			b = append(b, byte(w>>i))
		}
	}
	for _, row := range rows {
		for _, v := range row {
			switch {
			case v.IsNull():
				b = append(b, 0)
			case v.kind == KindInt:
				b = append(b, 2) // even: an Int in a FLOAT column too
				word(v.n)
			case v.kind == KindFloat:
				b = append(b, 1)
				word(v.n)
			case v.kind == KindBool:
				b = append(b, byte(2-v.n))
			default:
				b = append(append(b, 1, byte(len(v.s))), v.s...)
			}
		}
	}
	return b
}

// FuzzRowCodec stores generated rows of generated schemas and holds what a
// record reads back to the values it was made from, converted to their
// columns' types (an Int in a FLOAT column is its Float, and a row with one
// beyond 2⁵³ there is refused with ErrInexact): Value, == to the stored
// value; AppendText, byte for byte Value.AppendText; Get, the stored values;
// Lookup on every (indexed) column, the tuples whose value is == to the one
// looked up, as a []Value row would be found, NULL joining nothing. It then
// reads the same records through a result relation holding a statement's
// projection onto every other column, indexed there, which must hold them
// without a copy and answer alike. The seeds cover NULL, an Int in a FLOAT
// column, NaN, ±Inf, −0, 2⁵³+1, empty, multi-byte and invalid UTF-8 text.
func FuzzRowCodec(f *testing.F) {
	nan, inf := Float(math.NaN()), Float(math.Inf(1))
	f.Add(rowSeed([]ColType{TypeInt, TypeFloat, TypeString, TypeBool},
		[]Value{Int(1), Int(3), String(""), Bool(true)},
		[]Value{Int(2), Float(3), String("café ☕"), Bool(false)},
		[]Value{Int(3), nan, String("\xffbad\xfe"), Null},
		[]Value{Null, inf, Null, Bool(true)},
		[]Value{Int(3), Float(math.Inf(-1)), String("x"), Null},
		[]Value{Int(-7), Float(math.Copysign(0, -1)), String("café ☕"), Bool(false)},
		[]Value{Int(1<<53 + 1), Int(1<<53 + 1), String("x"), Bool(true)},
		[]Value{Int(0), Float(1e21), String(""), nan}))
	f.Add(rowSeed([]ColType{TypeFloat}, []Value{Int(3)}, []Value{Float(3)}, []Value{Int(3)}, []Value{Null}))
	f.Add(rowSeed([]ColType{TypeString, TypeString, TypeString, TypeInt, TypeString, TypeString, TypeBool, TypeString},
		[]Value{String("a"), String(""), String("\u2028"), Int(-1), Null, String("a"), Bool(true), String("tail")}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			return
		}
		schema, rows := rowCase(data)
		db := NewDatabase("fuzz")
		rel := db.MustCreateRelation(schema)
		ids := make([]TupleID, len(rows))
		for _, c := range schema.Columns {
			if err := rel.CreateIndex(c.Name); err != nil {
				t.Fatal(err)
			}
		}
		stored := rows[:0]
		for _, vals := range rows {
			id, err := db.Insert("R", vals...) // the values as generated
			fits := true
			for i, c := range schema.Columns {
				var ok bool
				vals[i], ok = c.Type.Convert(vals[i])
				fits = fits && ok
			}
			switch {
			case !fits && !errors.Is(err, ErrInexact):
				t.Fatalf("a row with an integer no float64 holds: %v, want ErrInexact", err)
			case fits && err != nil:
				t.Fatal(err)
			case fits:
				ids[len(stored)] = id
				stored = append(stored, vals)
			}
		}
		rows, ids = stored, ids[:len(stored)]
		var cols []int // every other column, the first always
		for i := 0; i < len(schema.Columns); i += 2 {
			cols = append(cols, i)
		}
		names := make([]string, len(cols))
		for j, c := range cols {
			names[j] = schema.Columns[c].Name
		}
		sub, err := schema.Project(names)
		if err != nil {
			t.Fatal(err)
		}
		mapped := NewResult("result", []*Schema{sub}, nil).Relation("R")
		var p Projection
		rel.Project(&p, cols)
		projected := rel.AppendRows(nil, ids)
		for k, row := range projected {
			projected[k] = p.Row(row)
		}
		if n := mapped.Append(slices.Clone(ids), projected); n != len(ids) {
			t.Fatalf("the result relation took %d of %d tuples", n, len(ids))
		}
		for _, name := range names {
			mapped.Index(name)
		}

		for k, vals := range rows {
			row, _ := rel.Row(ids[k])
			via, _ := mapped.Row(ids[k])
			if !via.Shares(row) {
				t.Fatalf("row %d: the result relation copied the record", k)
			}
			for i, v := range vals {
				if got := row.Value(i); got != v {
					t.Fatalf("row %d column %d: stored %s %v, read %s %v", k, i, v.Kind(), v, got.Kind(), got)
				}
				if got, want := row.AppendText(i, []byte("x")), v.AppendText([]byte("x")); !bytes.Equal(got, want) {
					t.Fatalf("row %d column %d: AppendText %q, Value.AppendText %q", k, i, got, want)
				}
			}
			for j, c := range cols {
				if got := via.Value(j); got != vals[c] {
					t.Fatalf("row %d column %d through the result relation: %v, stored %v", k, j, got, vals[c])
				}
			}
			if tu, ok := rel.Get(ids[k]); !ok || !reflect.DeepEqual(tu.Values, vals) {
				t.Fatalf("row %d: Get = %v, stored %v", k, tu.Values, vals)
			}
		}
		for i, c := range schema.Columns {
			for _, vals := range rows {
				var want []TupleID
				for k, other := range rows {
					if other[i] == vals[i] && !vals[i].IsNull() { // NULL joins nothing
						want = append(want, ids[k])
					}
				}
				if got, err := rel.Lookup(c.Name, vals[i]); err != nil || !slices.Equal(got, want) {
					t.Fatalf("Lookup(%s, %s %v) = %v (%v), want %v", c.Name, vals[i].Kind(), vals[i], got, err, want)
				}
				if j := slices.Index(cols, i); j >= 0 {
					if got, err := mapped.Lookup(names[j], vals[i]); err != nil || !slices.Equal(got, want) {
						t.Fatalf("result relation Lookup(%s, %s %v) = %v (%v), want %v", c.Name, vals[i].Kind(), vals[i], got, err, want)
					}
				}
			}
		}
		if l := db.Layout(); l.RowBytes != recount(rows) {
			t.Fatalf("row_bytes = %d, the records hold %d", l.RowBytes, recount(rows))
		}
	})
}

// recount is the bytes of the records of rows, by the format: a kind byte per
// column padded to eight, a word per column, the text, rounded to a word.
func recount(rows [][]Value) int {
	n := 0
	for _, vals := range rows {
		size := (len(vals)+7)&^7 + 8*len(vals)
		for _, v := range vals {
			size += len(v.AsString())
		}
		n += (size + 7) &^ 7
	}
	return n
}

// TestInsertRowOfProjectedRows: a row read through a statement's projection
// is stored by InsertRow as a copy in a relation of the projected columns —
// a relation reads its own records only — and as the record itself in one of
// all the base's columns in order; either way it reads what it was given, and
// a value its relation's column refuses is refused.
func TestInsertRowOfProjectedRows(t *testing.T) {
	base := NewDatabase("base")
	rel := base.MustCreateRelation(MustSchema("M", "id", Column{"id", TypeInt}, Column{"title", TypeString},
		Column{"rating", TypeFloat}, Column{"did", TypeInt}))
	if err := base.InsertWithID("M", 1, Int(10), String("film"), Float(0.5), Int(1)); err != nil {
		t.Fatal(err)
	}
	src, _ := rel.Row(1)
	sub, err := rel.Schema().Project([]string{"id", "rating", "did"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		schema *Schema
		cols   []int
		shared bool
	}{{sub, []int{0, 2, 3}, false}, {rel.Schema(), []int{0, 1, 2, 3}, true}, {sub, []int{0, 3, 2}, false}} {
		result := NewDatabase("result")
		out := result.MustCreateRelation(tc.schema)
		var p Projection
		rel.Project(&p, tc.cols)
		row := p.Row(src)
		err := result.InsertRow("M", 1, row)
		if tc.cols[1] == 3 { // rating, a FLOAT, into did
			if err == nil {
				t.Fatal("a FLOAT went into an INT column")
			}
			continue
		}
		if err != nil {
			t.Fatalf("columns %v: %v", tc.cols, err)
		}
		got, _ := out.Row(1)
		if got.Shares(src) != tc.shared || !reflect.DeepEqual(got.Values(), row.Values()) {
			t.Fatalf("columns %v: the tuple reads %v (shares its base record: %v), was given %v", tc.cols, got.Values(), got.Shares(src), row.Values())
		}
	}
}

// TestWideRowReadsEveryColumn: a relation wider than the shared identity map
// and an untyped row wider than the shared layouts read like narrow ones,
// through a projection too.
func TestWideRowReadsEveryColumn(t *testing.T) {
	cols := make([]Column, 70)
	vals := make([]Value, len(cols))
	for i := range cols {
		cols[i] = Column{fmt.Sprint("c", i), []ColType{TypeInt, TypeString}[i%2]}
		vals[i] = []Value{Int(int64(i)), String(fmt.Sprint("v", i))}[i%2]
	}
	db := NewDatabase("wide")
	rel := db.MustCreateRelation(MustSchema("W", "", cols...))
	id, err := db.Insert("W", vals...)
	if err != nil {
		t.Fatal(err)
	}
	row, _ := rel.Row(id)
	if !reflect.DeepEqual(row.Values(), vals) || !reflect.DeepEqual(MakeRow(vals[:20]...).Values(), vals[:20]) {
		t.Fatalf("a wide row reads %v", row.Values())
	}
	var p Projection
	rel.Project(&p, []int{69, 3, 66})
	if got := p.Row(row).Values(); !reflect.DeepEqual(got, []Value{vals[69], vals[3], vals[66]}) {
		t.Fatalf("projected %v", got)
	}
}
