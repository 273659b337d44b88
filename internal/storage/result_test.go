package storage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// joinFloats, joinTexts and joinBools are the values of
// TestResultJoinIndexMatchesScan's join columns of the other types: NULL,
// floats a sort could mistreat (NaN, −0, ±Inf, 1e21), integral floats an INT
// probe converts to, text and both bools.
var (
	joinFloats = []Value{Null, Float(1), Float(2), Float(-3), Float(1 << 40), Float(2.5), Float(math.NaN()),
		Float(math.Copysign(0, -1)), Float(math.Inf(1)), Float(math.Inf(-1)), Float(1e21)}
	joinTexts = []Value{Null, String("a"), String(""), String("1")}
	joinBools = []Value{Null, Bool(true), Bool(false)}
)

// narrowInts and wideInts are the values of TestResultJoinIndexMatchesScan's
// INT join columns: a few keys that repeat, and keys whose span overflows an
// int64 (math.MaxInt64 − math.MinInt64, 2⁶² − −2⁶²).
var (
	narrowInts = []Value{Null, Int(-2), Int(-1), Int(0), Int(1), Int(2), Int(3)}
	wideInts   = []Value{Null, Int(math.MinInt64), Int(math.MaxInt64), Int(1 << 62), Int(-1 << 62), Int(0), Int(5)}
)

// TestResultJoinIndexMatchesScan drives a result relation through batches —
// ids repeated inside a batch and across batches, some at the top of the id
// space — with the join index of each column built at random points in
// between (Append drops them), and holds every read, on the index and on a
// scan alike, to an oracle scan of the tuples: a partner lookup finds exactly
// the tuples whose value is == to the one asked converted to the column's
// type, ascending by id, at positions that read their rows; DistinctValues is
// the non-NULL values sorted and compacted; Has and Row know exactly the
// stored ids. The join columns are a FLOAT column (j), an INT column of few
// keys, so equal keys arrive out of id order (i), an INT column whose keys
// span more than an int64 holds (w), a TEXT (s) and a BOOL column (b); each
// is probed with values of every kind.
func TestResultJoinIndexMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	schema := MustSchema("R", "", Column{"k", TypeInt}, Column{"j", TypeFloat}, Column{"i", TypeInt}, Column{"w", TypeInt},
		Column{"s", TypeString}, Column{"b", TypeBool})
	pools := [][]Value{1: joinFloats, 2: narrowInts, 3: wideInts, 4: joinTexts, 5: joinBools}
	probes := []Value{Int(7), Int(1), Int(2), Int(-3), Int(1 << 40), Int(1<<53 + 1), Float(3), Float(1), Float(2.5), Float(1 << 62),
		Float(math.NaN()), String("b"), String("a"), Bool(true)}
	for trial := 0; trial < 20; trial++ {
		res := NewResult("result", []*Schema{schema}, nil)
		rel := res.Relation("R")
		var oracle []TupleID
		rowOf := map[TupleID]Row{}
		for batch := 0; batch < 8; batch++ {
			var ids []TupleID
			var rows []Row
			for i, n := 0, r.Intn(30); i < n; i++ {
				id := TupleID(1 + r.Intn(200))
				if r.Intn(8) == 0 {
					id = MaxTupleID - TupleID(r.Intn(4))
				}
				if len(ids) > 0 && r.Intn(10) == 0 {
					id = ids[r.Intn(len(ids))]
				}
				row := []Value{Int(int64(id))}
				for _, pool := range pools[1:] {
					row = append(row, pool[r.Intn(len(pool))])
				}
				ids, rows = append(ids, id), append(rows, MakeRow(row...))
			}
			added := 0
			for i, id := range ids {
				if _, held := rowOf[id]; !held {
					rowOf[id], oracle, added = rows[i], append(oracle, id), added+1
				}
			}
			if n := rel.Append(ids, rows); n != added {
				t.Fatalf("trial %d batch %d: Append added %d, want %d", trial, batch, n, added)
			}
			for col := 1; col < len(pools); col++ {
				if r.Intn(3) > 0 {
					rel.Index(schema.Columns[col].Name)
				}
			}
			checkResultRelation(t, fmt.Sprintf("trial %d batch %d", trial, batch), rel, oracle, rowOf)
			for col := 1; col < len(pools); col++ {
				when := fmt.Sprintf("trial %d batch %d column %s", trial, batch, schema.Columns[col].Name)
				checkJoinIndex(t, when, rel, col, append(slices.Clone(pools[col]), probes...), oracle, rowOf)
			}
		}
	}
}

// TestResultJoinIndexAllocatesOnce: the join index of an INT column is one
// allocation, its keys and matches side by side, whatever the rows.
func TestResultJoinIndexAllocatesOnce(t *testing.T) {
	schema := MustSchema("R", "", Column{"k", TypeInt}, Column{"i", TypeInt})
	rel := NewResult("result", []*Schema{schema}, nil).Relation("R")
	var ids []TupleID
	var rows []Row
	for i := 0; i < 150; i++ {
		ids, rows = append(ids, TupleID(1+(i*37)%150)), append(rows, MakeRow(Int(int64(i)), Int(int64(i%9))))
	}
	rel.Append(ids, rows)
	for _, column := range []string{"k", "i"} {
		if n := testing.AllocsPerRun(100, func() { rel.joins = rel.joins[:0]; rel.Index(column) }); n != 1 {
			t.Errorf("indexing 150 rows of %s makes %v allocations", column, n)
		}
	}
}

func checkResultRelation(t *testing.T, when string, rel *ResultRelation, oracle []TupleID, rowOf map[TupleID]Row) {
	t.Helper()
	var got []TupleID
	rel.ScanRows(func(id TupleID, row Row) bool {
		if !row.Shares(rowOf[id]) {
			t.Fatalf("%s: tuple %d does not read the row it was given", when, id)
		}
		got = append(got, id)
		return true
	})
	if !slices.Equal(got, oracle) || rel.Len() != len(oracle) {
		t.Fatalf("%s: holds %v, want %v", when, got, oracle)
	}
	probe := []TupleID{MaxTupleID - 4, MaxTupleID - 3, MaxTupleID - 2, MaxTupleID - 1, MaxTupleID}
	for id := TupleID(-1); id <= 202; id++ {
		probe = append(probe, id)
	}
	for _, id := range probe {
		row, ok := rel.Row(id)
		if want, held := rowOf[id]; ok != held || rel.Has(id) != held || held && !row.Shares(want) {
			t.Fatalf("%s: Row(%d) = %v, Has = %v; held: %v", when, id, ok, rel.Has(id), held)
		}
	}
}

// checkJoinIndex holds column col's DistinctValues and partner lookups of
// each of the values to a scan of the oracle's tuples.
func checkJoinIndex(t *testing.T, when string, rel *ResultRelation, col int, values []Value, oracle []TupleID, rowOf map[TupleID]Row) {
	t.Helper()
	column := rel.Schema().Columns[col].Name
	var distinct []Value
	for _, id := range oracle {
		if v := rowOf[id].Value(col); !v.IsNull() {
			distinct = append(distinct, v)
		}
	}
	slices.SortFunc(distinct, Value.Compare)
	distinct = slices.Compact(distinct)
	if got, err := rel.DistinctValues(column); err != nil || !slices.Equal(got, distinct) {
		t.Fatalf("%s: DistinctValues = %v (%v), want %v", when, got, err, distinct)
	}
	for _, v := range values {
		var want []TupleID
		k, ok := rel.Schema().Columns[col].Type.Key(v)
		for _, id := range oracle {
			if ok && rowOf[id].Value(col) == k {
				want = append(want, id)
			}
		}
		slices.Sort(want)
		ms, err := rel.AppendMatches([]Match{1}, col, v)
		if err != nil || len(ms) != 1+len(want) || ms[0] != 1 {
			t.Fatalf("%s: AppendMatches(%s %v) = %v (%v), want %v", when, v.Kind(), v, ms, err, want)
		}
		for i, m := range ms[1:] {
			if m.ID() != want[i] || !rel.At(m.Pos()).Shares(rowOf[want[i]]) {
				t.Fatalf("%s: AppendMatches(%s %v) = %v, want %v", when, v.Kind(), v, ms[1:], want)
			}
		}
		if ids, err := rel.Lookup(column, v); err != nil || !slices.Equal(ids, want) {
			t.Fatalf("%s: Lookup(%s %v) = %v (%v), want %v", when, v.Kind(), v, ids, err, want)
		}
		if rel.holds(column, v, 0) != (len(want) > 0) {
			t.Fatalf("%s: holds(%s %v) = %v with %d tuples", when, v.Kind(), v, !(len(want) > 0), len(want))
		}
	}
}

// TestResultAppendAdoptsSlices pins Append's contract with its caller: an
// empty relation keeps the slices it is given, a repeated id is compacted out
// in place under its first row and the rows left behind are cleared, an
// Append that adds nothing keeps the join indexes while one that adds drops
// them, and ids at the top of the id space pack into matches that order as
// the ids do.
func TestResultAppendAdoptsSlices(t *testing.T) {
	schema := MustSchema("R", "", Column{"k", TypeInt}, Column{"j", TypeInt})
	res := NewResult("result", []*Schema{schema}, nil)
	rel := res.Relation("R")
	top := []TupleID{MaxTupleID, 1 << 31, 7, MaxTupleID, (1 << 31) - 1, MaxTupleID - 1, 7}
	ids := slices.Clone(top)
	rows := make([]Row, len(ids))
	for i, id := range ids {
		rows[i] = MakeRow(Int(int64(id)), Int(int64(i%2)))
	}
	first := slices.Clone(rows)
	if n := rel.Append(ids, rows); n != 5 {
		t.Fatalf("Append added %d, want 5", n)
	}
	if &rel.ids[0] != &ids[0] || &rel.rows[0] != &rows[0] {
		t.Error("an empty relation copied the slices it was given")
	}
	want := []TupleID{MaxTupleID, 1 << 31, 7, (1 << 31) - 1, MaxTupleID - 1}
	if !slices.Equal(ids[:5], want) || !slices.Equal(rel.ids, want) {
		t.Fatalf("compacted ids %v, relation %v, want %v", ids[:5], rel.ids, want)
	}
	for _, at := range []int{0, 2} { // the first row of a repeated id stays
		if row, _ := rel.Row(top[at]); !row.Shares(first[at]) {
			t.Errorf("tuple %d reads a later row than its first", top[at])
		}
	}
	for i, row := range rows[5:] {
		if row.Valid() {
			t.Errorf("rows[%d] still holds a row Append dropped", 5+i)
		}
	}

	rel.Index("j")
	for _, v := range []Value{Int(0), Int(1)} {
		ms, err := rel.AppendMatches(nil, 1, v)
		if err != nil {
			t.Fatal(err)
		}
		var wantIDs []TupleID
		for _, id := range want {
			if row, _ := rel.Row(id); row.Value(1) == v {
				wantIDs = append(wantIDs, id)
			}
		}
		slices.Sort(wantIDs)
		if len(ms) != len(wantIDs) || !slices.IsSorted(ms) {
			t.Fatalf("AppendMatches(%v) = %v, want ids %v", v, ms, wantIDs)
		}
		for i, m := range ms {
			if m.ID() != wantIDs[i] || rel.ids[m.Pos()] != m.ID() {
				t.Fatalf("AppendMatches(%v): match %d is id %d at %d, want id %d", v, i, m.ID(), m.Pos(), wantIDs[i])
			}
		}
	}
	if n := rel.Append([]TupleID{7, MaxTupleID}, []Row{MakeRow(Int(7), Int(5)), MakeRow(Int(1), Int(5))}); n != 0 {
		t.Fatalf("Append of held ids added %d", n)
	}
	if !slices.Equal(rel.IndexedColumns(), []string{"j"}) {
		t.Error("an Append that added nothing dropped the join index")
	}
	if n := rel.Append([]TupleID{3}, []Row{MakeRow(Int(3), Int(0))}); n != 1 || len(rel.IndexedColumns()) != 0 {
		t.Errorf("Append of a new id: added %d, indexes %v; want 1 and none", n, rel.IndexedColumns())
	}
	if !rel.Has(3) || !rel.Has(MaxTupleID) || rel.Has(MaxTupleID-2) || rel.Len() != 6 {
		t.Error("the relation lost track of its ids after a second Append")
	}
}

// resultOf returns a result database holding every tuple of db.
func resultOf(db *Database) *Result {
	var schemas []*Schema
	for _, name := range db.RelationNames() {
		schemas = append(schemas, db.Relation(name).Schema())
	}
	res := NewResult(db.Name(), schemas, db.ForeignKeys())
	for _, name := range db.RelationNames() {
		var ids []TupleID
		var rows []Row
		db.Relation(name).ScanRows(func(id TupleID, row Row) bool {
			ids, rows = append(ids, id), append(rows, row)
			return true
		})
		res.Relation(name).Append(ids, rows)
	}
	return res
}
