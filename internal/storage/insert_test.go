package storage

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// indexedDB holds R: a primary key, a FLOAT column that mixes kinds and a
// TEXT column; f and s are indexed.
func indexedDB(t testing.TB) (*Database, *Relation) {
	t.Helper()
	db := NewDatabase("test")
	rel := db.MustCreateRelation(MustSchema("R", "k", Column{"k", TypeInt}, Column{"f", TypeFloat}, Column{"s", TypeString}))
	for _, c := range []string{"f", "s"} {
		if err := rel.CreateIndex(c); err != nil {
			t.Fatal(err)
		}
	}
	return db, rel
}

// mixedValues are the keys the index tests probe: Int(1) and Float(1) are
// one key of a column of either numeric type, NULL is stored but matches
// nothing, every NaN is one key.
var mixedValues = []Value{Null, Int(1), Float(1), Int(2), Float(2.5), Float(math.NaN()), Int(-3), Int(1 << 40), Float(-0.0)}

// sameContents fails unless the two relations hold the same tuples in the
// same order and answer every index read alike.
func sameContents(t *testing.T, when string, got, want *Relation) {
	t.Helper()
	if !reflect.DeepEqual(got.Tuples(), want.Tuples()) {
		t.Fatalf("%s: tuples\n got %v\nwant %v", when, got.Tuples(), want.Tuples())
	}
	for ci, col := range []string{"k", "f", "s"} {
		var stored []Value
		for _, tu := range want.Tuples() {
			stored = append(stored, tu.Values[ci])
		}
		if g, w := got.indexes[col].Cardinality(), want.indexes[col].Cardinality(); g != w {
			t.Fatalf("%s: Cardinality(%s) = %d, want %d", when, col, g, w)
		}
		probes := append(slices.Clone(mixedValues), String("s1"), String("s2"), String(""), Int(7), Int(8))
		for _, v := range append(probes, stored...) {
			gl, _ := got.Lookup(col, v)
			wl, _ := want.Lookup(col, v)
			if !slices.Equal(gl, wl) {
				t.Fatalf("%s: Lookup(%s, %s %s) = %v, want %v", when, col, v.Kind(), v, gl, wl)
			}
			if got.holds(col, v, 0) != (len(wl) > 0) {
				t.Fatalf("%s: holds(%s, %s %s) = %v with %d tuples", when, col, v.Kind(), v, got.holds(col, v, 0), len(wl))
			}
		}
	}
}

// checkBatchLookups holds AppendLookups on rel.col to one scan of the
// relation grouped by exact value: key lists of every length around the
// block size, drawn in a cycle from probes so that absent keys and repeats
// occur, each answered in order behind what dst held, ends[i] closing key i.
func checkBatchLookups(t *testing.T, when string, rel *Relation, col string, probes []Value) {
	t.Helper()
	ci := rel.Schema().ColumnIndex(col)
	typ := rel.Schema().Columns[ci].Type
	byKey := map[Value][]TupleID{}
	rel.ScanRows(func(id TupleID, row Row) bool {
		byKey[row.Value(ci)] = append(byKey[row.Value(ci)], id)
		return true
	})
	for _, ids := range byKey {
		slices.Sort(ids) // scan order is insertion order
	}
	for at, n := range []int{0, 1, lookupBlock - 1, lookupBlock, lookupBlock + 1, 3 * lookupBlock} {
		keys := make([]Value, n)
		want, wantEnds := []TupleID{-7}, make([]int, n)
		for i := range keys {
			keys[i] = probes[(at+i*(at+1))%len(probes)]
			if k, ok := typ.Key(keys[i]); ok {
				want = append(want, byKey[k]...)
			}
			wantEnds[i] = len(want)
		}
		ends := make([]int, n)
		got, err := rel.AppendLookups([]TupleID{-7}, ends, col, keys)
		if err != nil || !slices.Equal(got, want) || !slices.Equal(ends, wantEnds) {
			t.Fatalf("%s: AppendLookups(%s, %d keys %v) = %v ends %v (%v), want %v ends %v", when, col, n, keys, got, ends, err, want, wantEnds)
		}
		if got, err = rel.AppendLookups([]TupleID{-7}, nil, col, keys); err != nil || !slices.Equal(got, want) {
			t.Fatalf("%s: AppendLookups(%s, %d keys) without ends = %v (%v), want %v", when, col, n, got, err, want)
		}
	}
}

// rowOf returns a row holding vals, as a row reaches InsertRow: the stored
// row of src — a relation of indexedDB's column types without its key — when
// r says so and src takes the values, else a record of its own.
func rowOf(r *rand.Rand, src *Database, vals []Value) Row {
	id := src.NextTupleID()
	if r.Intn(2) == 0 && src.InsertWithID("S", id, vals...) == nil {
		row, _ := src.Relation("S").Row(id)
		return row
	}
	return MakeRow(vals...)
}

// TestInsertRowMatchesInsertWithID: on generated tuples — ids and keys
// already held, NULL keys, rows of the wrong arity and type, ids out of range
// — InsertRow of a row stored elsewhere or of one of its own does what
// InsertWithID of its values does: the same error, the same watermark, and
// the same tuples in the same order under the same index contents. A row of
// a relation of the same column types is stored as the record it is, any
// other as a copy; every fourth round, AppendLookups answers as a scan does.
func TestInsertRowMatchesInsertWithID(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	src := NewDatabase("source")
	src.MustCreateRelation(MustSchema("S", "", Column{"k", TypeInt}, Column{"f", TypeFloat}, Column{"s", TypeString}))
	for trial := 0; trial < 60; trial++ {
		loopDB, loopRel := indexedDB(t)
		rowDB, rowRel := indexedDB(t)
		nextID, nextKey := TupleID(1), int64(1)
		failed, shared := 0, 0
		for round := 0; round < 12; round++ {
			for i, n := 0, r.Intn(40); i < n; i++ {
				id, key := nextID, Int(nextKey)
				nextID, nextKey = nextID+TupleID(1+r.Intn(3)), nextKey+1
				vals := []Value{key, mixedValues[r.Intn(len(mixedValues))], String(fmt.Sprint("s", r.Intn(4)))}
				switch flaw := r.Intn(100); {
				case flaw == 0 && loopRel.Len() > 0: // an id held
					id = loopRel.Tuples()[r.Intn(loopRel.Len())].ID
				case flaw == 1 && loopRel.Len() > 0: // a key held
					vals[0] = loopRel.Tuples()[r.Intn(loopRel.Len())].Values[0]
				case flaw == 2:
					vals[0] = Null
				case flaw == 3:
					vals = vals[:2]
				case flaw == 4:
					vals[2] = Int(5)
				case flaw == 5:
					id = -id
				case flaw == 6:
					id = MaxTupleID + 1
				}
				row := rowOf(r, src, vals)
				want := loopDB.InsertWithID("R", id, vals...)
				if err := rowDB.InsertRow("R", id, row); fmt.Sprint(err) != fmt.Sprint(want) {
					t.Fatalf("trial %d: InsertRow(%d, %v) = %v, InsertWithID: %v", trial, id, vals, err, want)
				}
				if want != nil {
					failed++
					continue
				}
				stored, _ := rowRel.Row(id)
				if alike := row.lay.same(&rowRel.lay); stored.Shares(row) != alike {
					t.Fatalf("trial %d: tuple %d shares the row's record: %v; the relation reads it alike: %v", trial, id, stored.Shares(row), alike)
				} else if alike {
					shared++
				}
			}
			when := fmt.Sprintf("trial %d round %d", trial, round)
			sameContents(t, when, rowRel, loopRel)
			if rowDB.NextTupleID() != loopDB.NextTupleID() {
				t.Fatalf("%s: NextTupleID %d, InsertWithID's %d", when, rowDB.NextTupleID(), loopDB.NextTupleID())
			}
			if round%4 == 0 {
				for _, col := range []string{"k", "f", "s"} {
					checkBatchLookups(t, when, rowRel, col, append(slices.Clone(mixedValues), String("s1"), String(""), Int(nextKey-1)))
				}
			}
		}
		if trial == 0 && (failed == 0 || shared == 0) {
			t.Fatalf("the first trial refused %d rows and shared %d: the generator lost its flaws", failed, shared)
		}
	}
	db, _ := indexedDB(t)
	if err := db.InsertRow("R", 1, Row{}); err == nil {
		t.Error("a zero row accepted")
	}
	if err := db.InsertRow("nope", 1, MakeRow(Int(1), Null, Null)); err == nil {
		t.Error("a row for a missing relation accepted")
	}
}

// TestAppendRowsMatchesGet: the staged gather returns what Row returns id by
// id — a zero row for an id no live tuple carries, in the order asked, repeats
// repeated — across blocks, tombstones, freed chunks and ids that were never
// stored.
func TestAppendRowsMatchesGet(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	db, rel := idTableRelation(t)
	if got := rel.AppendRows(nil, []TupleID{1, 2}); len(got) != 2 || got[0].Valid() || got[1].Valid() {
		t.Fatalf("an empty relation returned %v", got)
	}
	const n = 3*slotChunk + 100
	for id := TupleID(1); id <= n; id++ {
		if err := db.InsertWithID("R", id, Int(int64(id))); err != nil {
			t.Fatal(err)
		}
	}
	for id := TupleID(1); id <= n; id++ {
		if id <= slotChunk || r.Intn(4) == 0 { // the first chunk wholly, a quarter of the rest
			if _, err := db.Delete("R", id); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, size := range []int{0, 1, 255, 256, 257, 1000} {
		ids := make([]TupleID, size)
		for i := range ids {
			ids[i] = TupleID(r.Intn(n+50) - 10)
		}
		want := []Row{MakeRow(Int(-1))}
		for _, id := range ids {
			row, _ := rel.Row(id)
			want = append(want, row)
		}
		if got := rel.AppendRows([]Row{want[0]}, ids); !slices.Equal(got, want) {
			t.Fatalf("%d ids: AppendRows returned %d rows, not those Row returns", size, len(got)-1)
		}
	}
}
