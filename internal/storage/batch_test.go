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
// column; f and s are indexed, f also by a B-tree.
func batchDB(t testing.TB, newDB func(string) *Database) (*Database, *Relation) {
	t.Helper()
	db := newDB("test")
	rel := db.MustCreateRelation(MustSchema("R", "k", Column{"k", TypeInt}, Column{"f", TypeFloat}, Column{"s", TypeString}))
	for _, c := range []string{"f", "s"} {
		if err := rel.CreateIndex(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rel.CreateOrderedIndex("f"); err != nil {
		t.Fatal(err)
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
	for _, col := range []string{"k", "f", "s"} {
		gd, _ := got.DistinctValues(col)
		wd, _ := want.DistinctValues(col)
		if !slices.Equal(gd, wd) {
			t.Fatalf("%s: DistinctValues(%s) = %v, want %v", when, col, gd, wd)
		}
		if g, w := got.indexes[col].Cardinality(), want.indexes[col].Cardinality(); g != w {
			t.Fatalf("%s: Cardinality(%s) = %d, want %d", when, col, g, w)
		}
		probes := append(slices.Clone(mixedValues), String("s1"), String("s2"), String(""), Int(7), Int(8))
		for _, v := range append(probes, wd...) {
			gl, _ := got.Lookup(col, v)
			wl, _ := want.Lookup(col, v)
			if !slices.Equal(gl, wl) {
				t.Fatalf("%s: Lookup(%s, %s %s) = %v, want %v", when, col, v.Kind(), v, gl, wl)
			}
			if got.holds(col, v) != (len(wl) > 0) {
				t.Fatalf("%s: holds(%s, %s %s) = %v with %d tuples", when, col, v.Kind(), v, got.holds(col, v), len(wl))
			}
		}
	}
	var gr, wr []TupleID
	got.OrderedIndexOn("f").Range(nil, nil, func(_ Value, id TupleID) bool { gr = append(gr, id); return true })
	want.OrderedIndexOn("f").Range(nil, nil, func(_ Value, id TupleID) bool { wr = append(wr, id); return true })
	if !slices.Equal(gr, wr) {
		t.Fatalf("%s: ordered index walks %v, want %v", when, gr, wr)
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
	rel.Scan(func(tu Tuple) bool {
		byKey[tu.Values[ci]] = append(byKey[tu.Values[ci]], tu.ID)
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
	// The translator's path: the column's run index, one value at a time.
	if ix := rel.RunIndexOn(col); ix != nil {
		for _, v := range probes {
			if got, err := ix.AppendLookup([]TupleID{-7}, v); err != nil || !slices.Equal(got[1:], byKey[v]) {
				t.Fatalf("%s: RunIndexOn(%s).AppendLookup(%v) = %v (%v), want %v", when, col, v, got[1:], err, byKey[v])
			}
		}
	} else if rel.runs && rel.HasIndex(col) {
		t.Fatalf("%s: a batch database's index on %s is not a RunIndex", when, col)
	}
}

// TestInsertBatchMatchesInsertLoop: on generated batches — ids repeated
// inside a batch and across batches, duplicate and NULL keys, rows of the
// wrong arity and type — InsertBatch on either kind of database does what a
// loop of InsertWithID that skips the ids it has just inserted does: the same
// tuples in the same order under the same index contents when the loop gets
// through, the loop's first error and a relation exactly as before when it
// does not.
func TestInsertBatchMatchesInsertLoop(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for trial := 0; trial < 60; trial++ {
		loopDB, loopRel := batchDB(t, NewDatabase)
		hashDB, hashRel := batchDB(t, NewDatabase)
		runDB, runRel := batchDB(t, NewBatchDatabase)
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
			extent := runRel.Extent()
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
			for name, db := range map[string]*Database{"hash": hashDB, "runs": runDB} {
				n, err := db.InsertBatch("R", slices.Clone(ids), slices.Clone(rows))
				if fmt.Sprint(err) != fmt.Sprint(want) || n != len(done) {
					t.Fatalf("trial %d batch %d, %s: InsertBatch = %d, %v; the loop inserted %d: %v", trial, batch, name, n, err, len(done), want)
				}
			}
			when := fmt.Sprintf("trial %d batch %d (loop error: %v)", trial, batch, want)
			sameContents(t, when+", hash", hashRel, loopRel)
			sameContents(t, when+", runs", runRel, loopRel)
			if want != nil {
				if !reflect.DeepEqual(loopRel.Tuples(), before) {
					t.Fatalf("%s: the oracle did not undo its partial batch", when)
				}
				if runRel.Extent() != extent || runRel.Len() != len(before) {
					t.Fatalf("%s: a refused batch left Extent %d -> %d, Len %d", when, extent, runRel.Extent(), runRel.Len())
				}
			}
			for _, id := range done { // the loop's own watermark also counts what it undid
				if runDB.NextTupleID() <= id {
					t.Fatalf("%s: NextTupleID %d with tuple %d stored", when, runDB.NextTupleID(), id)
				}
			}
		}
		if trial == 0 && failed == 0 {
			t.Fatal("no batch of the first trial failed: the generator lost its flaws")
		}
	}
	db, _ := batchDB(t, NewBatchDatabase)
	if _, err := db.InsertBatch("R", []TupleID{1, 2}, [][]Value{{Int(1), Null, Null}}); err == nil {
		t.Error("a batch of two ids and one row accepted")
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
		var rows [][]Value
		for id := TupleID(1); id <= TupleID(before+2*slotChunk+7); id++ {
			if int(id) <= before {
				if err := db.InsertWithID("R", id, Int(int64(id))); err != nil {
					t.Fatal(err)
				}
				continue
			}
			ids, rows = append(ids, id), append(rows, []Value{Int(int64(id))})
		}
		bad := append(slices.Clone(rows[:len(rows)-1]), []Value{String("no")})
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
		got := rel.AppendTuples(nil, append([]TupleID{0, -4, 1 << 50}, ids...))
		if len(got) != len(ids) {
			t.Fatalf("before=%d: AppendTuples found %d of %d", before, len(got), len(ids))
		}
		for i, tu := range got {
			if tu.ID != ids[i] || tu.Values[0] != rows[i][0] {
				t.Fatalf("before=%d: tuple %d is %v", before, i, tu)
			}
		}
	}
}

// TestRunIndexMatchesHashIndex drives a RunIndex database and a HashIndex
// database through the same interleaved batch inserts, single inserts,
// updates and deletes over keys of mixed kinds and holds every index read of
// the one to the other's.
func TestRunIndexMatchesHashIndex(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	hashDB, hashRel := batchDB(t, NewDatabase)
	runDB, runRel := batchDB(t, NewBatchDatabase)
	if _, ok := runRel.indexes["f"].(*RunIndex); !ok {
		t.Fatalf("a batch database indexes with %T", runRel.indexes["f"])
	}
	both := func(op func(db *Database) error) {
		t.Helper()
		if eh, er := op(hashDB), op(runDB); fmt.Sprint(eh) != fmt.Sprint(er) {
			t.Fatalf("hash: %v, runs: %v", eh, er)
		}
	}
	var live []TupleID
	nextID, nextKey := TupleID(1), int64(1)
	row := func() []Value {
		nextKey++
		return []Value{Int(nextKey), mixedValues[r.Intn(len(mixedValues))], String(fmt.Sprint("s", r.Intn(3)))}
	}
	for step := 0; step < 600; step++ {
		switch op := r.Intn(10); {
		case op < 2:
			var ids []TupleID
			var rows [][]Value
			for i, n := 0, 1+r.Intn(30); i < n; i++ {
				ids, rows = append(ids, nextID), append(rows, row())
				nextID++
			}
			r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			both(func(db *Database) error {
				_, err := db.InsertBatch("R", slices.Clone(ids), slices.Clone(rows))
				return err
			})
			live = append(live, ids...)
		case op < 4 || len(live) == 0:
			vals := row()
			both(func(db *Database) error { return db.InsertWithID("R", nextID, vals...) })
			live = append(live, nextID)
			nextID++
		case op < 7:
			id, vals := live[r.Intn(len(live))], row()
			both(func(db *Database) error { return db.Update("R", id, vals) })
		default:
			at := r.Intn(len(live))
			both(func(db *Database) error {
				_, err := db.Delete("R", live[at])
				return err
			})
			live = slices.Delete(live, at, at+1)
		}
		sameContents(t, fmt.Sprint("step ", step), runRel, hashRel)
		if step%8 == 0 {
			for _, col := range []string{"k", "f", "s"} {
				probes := append(slices.Clone(mixedValues), String("s1"), String("s2"), String(""), Int(7), Int(nextKey), Int(nextKey-1))
				checkBatchLookups(t, fmt.Sprint("step ", step), runRel, col, probes)
				checkBatchLookups(t, fmt.Sprint("step ", step), hashRel, col, probes)
			}
		}
	}
	if runRel.Len() < 100 {
		t.Fatalf("only %d tuples left: the mix deletes too much", runRel.Len())
	}
}

// TestAppendTuplesMatchesGet: the staged gather returns what Get returns id
// by id — live tuples only, in the order asked, repeats repeated — across
// blocks, tombstones, freed chunks and ids that were never stored.
func TestAppendTuplesMatchesGet(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	db, rel := idTableRelation(t)
	if got := rel.AppendTuples(nil, []TupleID{1, 2}); got != nil {
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
		var want []Tuple
		for _, id := range ids {
			if tu, ok := rel.Get(id); ok {
				want = append(want, tu)
			}
		}
		head := Tuple{ID: -1}
		got := rel.AppendTuples([]Tuple{head}, ids)
		if !reflect.DeepEqual(got[0], head) || !reflect.DeepEqual(got[1:], append([]Tuple{}, want...)) {
			t.Fatalf("%d ids: AppendTuples returned %d tuples, Get %d", size, len(got)-1, len(want))
		}
	}
}
