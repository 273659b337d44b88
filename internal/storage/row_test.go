package storage

import (
	"bytes"
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
// record reads back to the values it was made from: Value, == to the input;
// AppendText, byte for byte Value.AppendText; Get, the input; Lookup on every
// (indexed) column, the tuples whose value is == to the one looked up, as a
// []Value row would be found. It then reads the same records through a result
// relation holding a statement's projection onto every other column, indexed
// there, which must hold them without a copy and answer alike (NULL joining
// nothing). The seeds cover NULL, an Int in a
// FLOAT column, NaN, ±Inf, −0, 2⁵³+1, empty, multi-byte and invalid UTF-8 text.
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
		for k, vals := range rows {
			var err error
			if ids[k], err = db.Insert("R", vals...); err != nil {
				t.Fatal(err)
			}
		}
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
					if other[i] == vals[i] {
						want = append(want, ids[k])
					}
				}
				if got, err := rel.Lookup(c.Name, vals[i]); err != nil || !slices.Equal(got, want) {
					t.Fatalf("Lookup(%s, %s %v) = %v (%v), want %v", c.Name, vals[i].Kind(), vals[i], got, err, want)
				}
				if vals[i].IsNull() {
					want = nil // NULL joins nothing in a result relation
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

// TestResultRelationMapsOntoBaseRecords: a relation that selects some of a
// base relation's columns, filled by InsertBatch, takes the mapping from its first
// batch of projected rows and stores the records themselves; a later batch
// projected alike, from any statement, is stored the same way; rows it cannot
// read alike — another selection, untyped records — are checked and copied,
// as are the values of a single insert or update; every read answers in the
// relation's own columns.
func TestResultRelationMapsOntoBaseRecords(t *testing.T) {
	base := NewDatabase("base")
	rel := base.MustCreateRelation(MustSchema("M", "id", Column{"id", TypeInt}, Column{"title", TypeString},
		Column{"rating", TypeFloat}, Column{"did", TypeInt}))
	for i := 1; i <= 6; i++ {
		rating := Value(Float(float64(i) / 2))
		if i%3 == 0 {
			rating = Int(int64(i))
		}
		if err := base.InsertWithID("M", TupleID(i), Int(int64(10*i)), String(fmt.Sprint("film ", i)), rating, Int(int64(i%2))); err != nil {
			t.Fatal(err)
		}
	}
	project := func(cols []int, ids ...TupleID) []Row {
		p := new(Projection) // each call a statement of its own
		rel.Project(p, cols)
		rows := rel.AppendRows(nil, ids)
		for i, row := range rows {
			rows[i] = p.Row(row)
		}
		return rows
	}
	sub, err := rel.Schema().Project([]string{"id", "rating", "did"})
	if err != nil {
		t.Fatal(err)
	}
	result := NewDatabase("result")
	out := result.MustCreateRelation(sub)
	if err := out.CreateIndex("did"); err != nil {
		t.Fatal(err)
	}
	gapped := []int{0, 2, 3}
	batches := []struct {
		ids    []TupleID
		rows   []Row
		shared bool
	}{
		{[]TupleID{1, 2}, project(gapped, 1, 2), true},
		{[]TupleID{3}, project(gapped, 3), true},
		{[]TupleID{4}, project([]int{0, 2, 3}[:2], 4), false}, // two columns: refused below
		{[]TupleID{4}, []Row{MakeRow(Int(40), Int(4), Int(0))}, false},
	}
	for i, b := range batches {
		_, err := result.InsertBatch("M", b.ids, b.rows)
		if i == 2 {
			if err == nil {
				t.Fatal("a row of two columns went into a relation of three")
			}
			continue
		}
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		for j, id := range b.ids {
			got, _ := out.Row(id)
			if src, _ := rel.Row(id); got.Shares(src) != b.shared {
				t.Fatalf("batch %d: tuple %d shares its base record: %v", i, id, got.Shares(src))
			}
			if !reflect.DeepEqual(got.Values(), b.rows[j].Values()) {
				t.Fatalf("batch %d: tuple %d reads %v, was given %v", i, id, got.Values(), b.rows[j].Values())
			}
		}
	}
	if err := result.InsertWithID("M", 5, Int(50), Float(2.5), Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := result.Update("M", 1, []Value{Int(10), Null, Int(0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := result.InsertBatch("M", []TupleID{6}, []Row{MakeRow(Int(60), String("no"), Int(0))}); err == nil {
		t.Fatal("a string went into a FLOAT column")
	}
	want := []Tuple{
		{1, []Value{Int(10), Null, Int(0)}},
		{2, []Value{Int(20), Float(1), Int(0)}},
		{3, []Value{Int(30), Int(3), Int(1)}},
		{4, []Value{Int(40), Int(4), Int(0)}},
		{5, []Value{Int(50), Float(2.5), Int(1)}},
	}
	if got := out.Tuples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("result relation holds %v, want %v", got, want)
	}
	if ids, _ := out.Lookup("did", Int(1)); !slices.Equal(ids, []TupleID{3, 5}) {
		t.Fatalf("Lookup(did, 1) = %v", ids)
	}
	if err := VerifySubDatabase(base, result); err == nil {
		t.Fatal("a tuple updated away from its base verified")
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
