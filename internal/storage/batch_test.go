package storage

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// batchSchema has a primary key, a FLOAT column that mixes kinds and a TEXT
// column; f and s are indexed.
func batchDB(t testing.TB) (*Database, *Relation) {
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

// mixedValues are the keys the index tests probe: Int(1) and Float(1) tie
// under Compare but are two keys, NULL is a key, every NaN is one key.
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
			want = append(want, byKey[keys[i]]...)
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

// rowsOf returns a row for each of vals, as a row reaches InsertBatch: the
// stored row of src — a relation of batchDB's column types without its key —
// when r says so and src takes the values, else a record of its own.
func rowsOf(t *testing.T, r *rand.Rand, src *Database, vals [][]Value) []Row {
	t.Helper()
	rows := make([]Row, len(vals))
	for i, v := range vals {
		rows[i] = MakeRow(v...)
		id := src.NextTupleID()
		if r.Intn(2) == 0 && src.InsertWithID("S", id, v...) == nil {
			rows[i], _ = src.Relation("S").Row(id)
		}
	}
	return rows
}

// TestInsertBatchMatchesInsertLoop: on generated batches — ids repeated
// inside a batch and across batches, duplicate and NULL keys, rows of the
// wrong arity and type, rows stored elsewhere and rows of their own — InsertBatch
// does what a loop of InsertWithID that skips the
// ids it has just inserted does: the same tuples in the same order under the
// same index contents when the loop gets through, the loop's first error and a
// relation exactly as before when it does not.
func TestInsertBatchMatchesInsertLoop(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	src := NewDatabase("source")
	src.MustCreateRelation(MustSchema("S", "", Column{"k", TypeInt}, Column{"f", TypeFloat}, Column{"s", TypeString}))
	for trial := 0; trial < 60; trial++ {
		loopDB, loopRel := batchDB(t)
		hashDB, hashRel := batchDB(t)
		nextID, nextKey := TupleID(1), int64(1)
		failed := 0
		for batch := 0; batch < 12; batch++ {
			var ids []TupleID
			var rows [][]Value
			for i, n := 0, r.Intn(40); i < n; i++ {
				id, key := nextID, Int(nextKey)
				nextID, nextKey = nextID+TupleID(1+r.Intn(3)), nextKey+1
				row := []Value{key, mixedValues[r.Intn(len(mixedValues))], String(fmt.Sprint("s", r.Intn(4)))}
				switch flaw := r.Intn(150); {
				case flaw < 8 && len(ids) > 0: // an id of this batch again, under any row
					id = ids[r.Intn(len(ids))]
					if r.Intn(2) == 0 {
						row = []Value{String("never looked at")}
					}
				case flaw == 8 && loopRel.Len() > 0: // an id of an earlier batch
					id = loopRel.Tuples()[r.Intn(loopRel.Len())].ID
				case flaw == 9 && loopRel.Len() > 0: // a key of an earlier batch
					row[0] = loopRel.Tuples()[r.Intn(loopRel.Len())].Values[0]
				case flaw == 10 && len(rows) > 0 && len(rows[len(rows)-1]) == 3: // a key of this batch
					row[0] = rows[len(rows)-1][0]
				case flaw == 11:
					row[0] = Null
				case flaw == 12:
					row = row[:2]
				case flaw == 13:
					row[2] = Int(5)
				case flaw == 14:
					id = -id
				}
				ids, rows = append(ids, id), append(rows, row)
			}

			before := loopRel.Tuples()
			extent := hashRel.Extent()
			var done []TupleID
			var want error
			for i, id := range ids {
				if slices.Contains(done, id) {
					continue
				}
				if want = loopDB.InsertWithID("R", id, rows[i]...); want != nil {
					for _, id := range done {
						if _, err := loopDB.Delete("R", id); err != nil {
							t.Fatal(err)
						}
					}
					done, failed = nil, failed+1
					break
				}
				done = append(done, id)
			}
			n, err := hashDB.InsertBatch("R", slices.Clone(ids), rowsOf(t, r, src, rows))
			if fmt.Sprint(err) != fmt.Sprint(want) || n != len(done) {
				t.Fatalf("trial %d batch %d: InsertBatch = %d, %v; the loop inserted %d: %v", trial, batch, n, err, len(done), want)
			}
			when := fmt.Sprintf("trial %d batch %d (loop error: %v)", trial, batch, want)
			sameContents(t, when, hashRel, loopRel)
			if batch%4 == 0 {
				for _, col := range []string{"k", "f", "s"} {
					checkBatchLookups(t, when, hashRel, col, append(slices.Clone(mixedValues), String("s1"), String(""), Int(nextKey-1)))
				}
			}
			if want != nil {
				if !reflect.DeepEqual(loopRel.Tuples(), before) {
					t.Fatalf("%s: the oracle did not undo its partial batch", when)
				}
				if hashRel.Extent() != extent || hashRel.Len() != len(before) {
					t.Fatalf("%s: a refused batch left Extent %d -> %d, Len %d", when, extent, hashRel.Extent(), hashRel.Len())
				}
			}
			for _, id := range done { // the loop's own watermark also counts what it undid
				if hashDB.NextTupleID() <= id {
					t.Fatalf("%s: NextTupleID %d with tuple %d stored", when, hashDB.NextTupleID(), id)
				}
			}
		}
		if trial == 0 && failed == 0 {
			t.Fatal("no batch of the first trial failed: the generator lost its flaws")
		}
	}
	db, _ := batchDB(t)
	if _, err := db.InsertBatch("R", []TupleID{1, 2}, []Row{MakeRow(Int(1), Null, Null)}); err == nil {
		t.Error("a batch of two ids and one row accepted")
	}
	if _, err := db.InsertBatch("R", []TupleID{1}, []Row{{}}); err == nil {
		t.Error("a batch of a zero row accepted")
	}
	if _, err := db.InsertBatch("nope", nil, nil); err == nil {
		t.Error("a batch for a missing relation accepted")
	}
}

// TestInsertBatchAcrossChunks: a batch larger than a slot chunk, starting
// anywhere in one, lands where single inserts would have put it, and a
// refused one gives every chunk it opened back.
func TestInsertBatchAcrossChunks(t *testing.T) {
	for _, before := range []int{0, 5, slotChunk - 3, slotChunk} {
		db, rel := idTableRelation(t)
		var ids []TupleID
		var rows []Row
		for id := TupleID(1); id <= TupleID(before+2*slotChunk+7); id++ {
			if int(id) <= before {
				if err := db.InsertWithID("R", id, Int(int64(id))); err != nil {
					t.Fatal(err)
				}
				continue
			}
			ids, rows = append(ids, id), append(rows, MakeRow(Int(int64(id))))
		}
		bad := append(slices.Clone(rows[:len(rows)-1]), MakeRow(String("no")))
		if _, err := db.InsertBatch("R", ids, bad); err == nil {
			t.Fatal("a batch with a string in an INT column accepted")
		}
		if rel.Len() != before || rel.Extent() != before || len(rel.chunks) > before>>slotChunkBits+1 {
			t.Fatalf("before=%d: refused batch left Len %d, Extent %d, %d chunks", before, rel.Len(), rel.Extent(), len(rel.chunks))
		}
		if n, err := db.InsertBatch("R", ids, rows); err != nil || n != len(ids) {
			t.Fatalf("before=%d: InsertBatch = %d, %v", before, n, err)
		}
		if rel.Len() != before+len(ids) || rel.Extent() != rel.Len() {
			t.Fatalf("before=%d: Len %d, Extent %d", before, rel.Len(), rel.Extent())
		}
		got := rel.AppendRows(nil, append([]TupleID{0, -4, 1 << 50}, ids...))
		if len(got) != 3+len(ids) || got[0].Valid() || got[1].Valid() || got[2].Valid() {
			t.Fatalf("before=%d: AppendRows returned %d rows for %d ids", before, len(got), 3+len(ids))
		}
		for i, row := range got[3:] {
			if row.Value(0) != rows[i].Value(0) {
				t.Fatalf("before=%d: row %d is %v", before, i, row.Values())
			}
		}
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
