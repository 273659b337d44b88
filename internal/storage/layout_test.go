package storage

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// TestValueSize pins the layout: a kind, one 64-bit word shared by the
// scalar kinds, and a string header. scripts/ci.sh runs it in a non-race
// step next to TestLiveBytesPerTuple.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("sizeof(Value) = %d, want 32", got)
	}
	if got := unsafe.Sizeof(slot{}); got != 16 {
		t.Fatalf("sizeof(slot) = %d, want 16", got)
	}
}

func TestFloatCanonicalForm(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if Float(negZero) != Float(0) || !Float(negZero).Equal(Float(0)) || Float(negZero).Compare(Float(0)) != 0 {
		t.Error("Float(-0) and Float(0) disagree under ==, Equal or Compare")
	}
	if math.Signbit(Float(negZero).AsFloat()) {
		t.Error("Float(-0) kept its sign")
	}
	otherNaN := math.Float64frombits(math.Float64bits(math.NaN()) ^ 0x5555)
	if otherNaN == otherNaN {
		t.Fatal("test NaN is not a NaN")
	}
	nan := Float(math.NaN())
	if Float(otherNaN) != nan || !nan.Equal(Float(otherNaN)) || nan.Compare(Float(otherNaN)) != 0 {
		t.Error("two NaNs disagree under ==, Equal or Compare")
	}
	if !math.IsNaN(nan.AsFloat()) {
		t.Error("NaN did not survive AsFloat")
	}
	m := map[Value]int{}
	m[nan]++
	m[Float(otherNaN)]++
	m[Float(negZero)]++
	m[Float(0)]++
	if len(m) != 2 || m[nan] != 2 || m[Float(0)] != 2 {
		t.Errorf("NaN / zero as map keys: %v", m)
	}
	// NaN sorts before every number, of either kind, and equals none.
	for _, v := range []Value{Float(math.Inf(-1)), Float(0), Int(-5), Int(7)} {
		if nan.Compare(v) != -1 || v.Compare(nan) != 1 || nan.Equal(v) || v.Equal(nan) {
			t.Errorf("NaN against %s: Compare %d/%d, Equal %v", v, nan.Compare(v), v.Compare(nan), nan.Equal(v))
		}
	}
	if got := Float(1.5).AsFloat(); got != 1.5 {
		t.Errorf("AsFloat = %v", got)
	}
}

// TestNaNAndNegativeZeroKeys is the indexed-column side of the canonical
// form: with a raw float64 inside the map key a NaN never equalled itself,
// so the index grew an entry per insert, never found or removed any, and
// primary-key uniqueness was vacuous.
func TestNaNAndNegativeZeroKeys(t *testing.T) {
	db := NewDatabase("test")
	db.MustCreateRelation(MustSchema("R", "f", Column{"f", TypeFloat}, Column{"v", TypeString}))
	rel := db.Relation("R")
	nan, negZero := Float(math.NaN()), Float(math.Copysign(0, -1))
	idNaN, err := db.Insert("R", nan, String("nan"))
	if err != nil {
		t.Fatal(err)
	}
	idZero, err := db.Insert("R", negZero, String("zero"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("R", Float(math.Float64frombits(math.Float64bits(math.NaN())^1)), String("dup")); err == nil {
		t.Error("second NaN primary key accepted")
	}
	if _, err := db.Insert("R", Float(0), String("dup")); err == nil {
		t.Error("+0 accepted next to -0 as a primary key")
	}
	if ids, _ := rel.Lookup("f", nan); !reflect.DeepEqual(ids, []TupleID{idNaN}) {
		t.Errorf("Lookup(NaN) = %v, want [%d]", ids, idNaN)
	}
	if ids, _ := rel.Lookup("f", Float(0)); !reflect.DeepEqual(ids, []TupleID{idZero}) {
		t.Errorf("Lookup(0) = %v, want [%d]", ids, idZero)
	}
	if err := db.Update("R", idNaN, []Value{nan, String("still nan")}); err != nil {
		t.Errorf("update keeping a NaN key: %v", err)
	}
	for _, id := range []TupleID{idNaN, idZero} {
		if ok, err := db.Delete("R", id); err != nil || !ok {
			t.Fatalf("delete %d: %v %v", id, ok, err)
		}
	}
	if n := rel.indexes["f"].Cardinality(); n != 0 {
		t.Errorf("index holds %d entries after every tuple was deleted", n)
	}
}

// TestHashIndexMatchesOracle drives one index through inserts, updates,
// deletes and re-inserts over a few keys of every kind, so entries go from
// absent to inline to list and back and list positions are recycled, and
// compares every lookup with a map of sorted id lists.
func TestHashIndexMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	db := NewDatabase("test")
	db.MustCreateRelation(MustSchema("R", "", Column{"k", TypeFloat}, Column{"s", TypeString}))
	rel := db.Relation("R")
	if err := rel.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	idx := rel.indexes["k"].(*HashIndex)
	keys := []Value{Int(1), Int(2), Int(-3), Float(1), Float(2.5), Float(math.NaN()), Null, Int(1 << 40)}
	oracle := map[Value][]TupleID{}
	keyOf := map[TupleID]Value{}
	var gone []TupleID
	add := func(id TupleID, k Value) {
		keyOf[id] = k
		oracle[k] = append(oracle[k], id)
		slices.Sort(oracle[k])
	}
	drop := func(id TupleID) {
		k := keyOf[id]
		delete(keyOf, id)
		at, _ := slices.BinarySearch(oracle[k], id)
		if oracle[k] = slices.Delete(oracle[k], at, at+1); len(oracle[k]) == 0 {
			delete(oracle, k)
		}
	}
	anyLive := func() TupleID {
		ids := make([]TupleID, 0, len(keyOf))
		for id := range keyOf {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		return ids[r.Intn(len(ids))]
	}
	for step := 0; step < 4000; step++ {
		k := keys[r.Intn(len(keys))]
		switch op := r.Intn(10); {
		case op < 4 || len(keyOf) == 0:
			id, err := db.Insert("R", k, String("x"))
			if err != nil {
				t.Fatal(err)
			}
			add(id, k)
		case op < 5 && len(gone) > 0: // a deleted id comes back, out of order
			id := gone[len(gone)-1]
			gone = gone[:len(gone)-1]
			if err := db.InsertWithID("R", id, k, String("again")); err != nil {
				t.Fatal(err)
			}
			add(id, k)
		case op < 7:
			id := anyLive()
			if err := db.Update("R", id, []Value{k, String("y")}); err != nil {
				t.Fatal(err)
			}
			drop(id)
			add(id, k)
		default:
			id := anyLive()
			if ok, err := db.Delete("R", id); err != nil || !ok {
				t.Fatalf("delete %d: %v %v", id, ok, err)
			}
			drop(id)
			gone = append(gone, id)
		}
		for _, k := range keys {
			got, err := rel.Lookup("k", k)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, oracle[k]) {
				t.Fatalf("step %d: Lookup(%s %s) = %v, want %v", step, k.Kind(), k, got, oracle[k])
			}
		}
		if step%4 == 0 {
			checkBatchLookups(t, fmt.Sprint("step ", step), rel, "k", append(keys, Int(9), String("absent")))
		}
		if idx.Cardinality() != len(oracle) {
			t.Fatalf("step %d: Cardinality = %d, want %d", step, idx.Cardinality(), len(oracle))
		}
		if live := len(idx.ints.lists) + len(idx.vals.lists) - len(idx.ints.free) - len(idx.vals.free); live > len(oracle) {
			t.Fatalf("step %d: %d lists in use for %d keys", step, live, len(oracle))
		}
		// list_bytes: four bytes for every id that is in a list, by the lists'
		// own lengths and by the oracle's (a key with one tuple has no list).
		listed, shared := 0, 0
		for _, l := range slices.Concat(idx.ints.lists, idx.vals.lists) {
			listed += len(l)
		}
		for _, ids := range oracle {
			if len(ids) > 1 {
				shared += len(ids)
			}
		}
		if got := db.Layout().ListBytes; got != 4*listed || listed != shared {
			t.Fatalf("step %d: list_bytes = %d with %d ids in lists, %d by the oracle", step, got, listed, shared)
		}
	}
}

// idTableRelation is a one-column relation; ids are chosen by the test.
func idTableRelation(t *testing.T) (*Database, *Relation) {
	t.Helper()
	db := NewDatabase("test")
	db.MustCreateRelation(MustSchema("R", "", Column{"v", TypeInt}))
	return db, db.Relation("R")
}

func TestIDTable(t *testing.T) {
	db, rel := idTableRelation(t)
	// Empty: no table at all, every probe misses.
	if rel.ids != nil || rel.Has(1) || rel.Has(0) || rel.Has(-1) {
		t.Fatal("empty relation: table allocated or a probe hit")
	}
	if _, ok := rel.Get(1); ok {
		t.Fatal("Get on an empty relation")
	}
	// One element.
	if err := db.InsertWithID("R", 5, Int(50)); err != nil {
		t.Fatal(err)
	}
	if tu, ok := rel.Get(5); !ok || tu.ID != 5 || tu.Values[0] != Int(50) || rel.Has(4) || rel.Has(-5) {
		t.Fatalf("one-element relation: Get(5) = %v %v", tu, ok)
	}
	// Colliding ids: every id below hashes to the same home bucket of the
	// table size in force when it is inserted... which the test cannot
	// know, so use enough ids that every table size sees long probe runs.
	// They are drawn from the whole id space, 1..MaxTupleID: nothing above it
	// can be stored, and idHash must spread what is below it.
	want := map[TupleID]int64{5: 50}
	r := rand.New(rand.NewSource(3))
	for len(want) < 3000 {
		id := 1 + TupleID(r.Int63n(int64(MaxTupleID)))
		if _, dup := want[id]; dup {
			continue
		}
		want[id] = int64(len(want))
		if err := db.InsertWithID("R", id, Int(want[id])); err != nil {
			t.Fatal(err)
		}
	}
	verify := func(when string) {
		t.Helper()
		for id, v := range want {
			if tu, ok := rel.Get(id); !ok || tu.ID != id || tu.Values[0] != Int(v) {
				t.Fatalf("%s: Get(%d) = %v %v, want value %d", when, id, tu, ok, v)
			}
		}
		if rel.Len() != len(want) {
			t.Fatalf("%s: Len = %d, want %d", when, rel.Len(), len(want))
		}
		if rel.idsUsed*4 > len(rel.ids)*3 || len(rel.ids)&(len(rel.ids)-1) != 0 {
			t.Fatalf("%s: table of %d holds %d entries", when, len(rel.ids), rel.idsUsed)
		}
	}
	verify("after inserts")
	// Dead slots answer "absent" and do not break the probe runs through them.
	var dead []TupleID
	for id := range want {
		if id%3 == 0 {
			dead = append(dead, id)
		}
	}
	for _, id := range dead {
		if ok, _ := db.Delete("R", id); !ok {
			t.Fatalf("delete %d", id)
		}
		delete(want, id)
		if rel.Has(id) {
			t.Fatalf("deleted id %d still present", id)
		}
		if ok, _ := db.Delete("R", id); ok {
			t.Fatalf("id %d deleted twice", id)
		}
	}
	verify("after deletes")
	// Re-insert of a deleted id overwrites its entry instead of adding one.
	used := rel.idsUsed
	for i, id := range dead[:len(dead)/2] {
		want[id] = int64(-i)
		if err := db.InsertWithID("R", id, Int(want[id])); err != nil {
			t.Fatal(err)
		}
	}
	if rel.idsUsed != used {
		t.Fatalf("re-inserting deleted ids grew the table from %d to %d entries", used, rel.idsUsed)
	}
	verify("after re-inserts")
	// Rebuild drops the entries of dead slots.
	rel.rehash(rel.live)
	if rel.idsUsed != len(want) {
		t.Fatalf("rebuilt table holds %d entries for %d live tuples", rel.idsUsed, len(want))
	}
	verify("after a rebuild")
	if err := db.InsertWithID("R", dead[len(dead)-1], Int(1)); err != nil {
		t.Fatalf("re-insert after the rebuild forgot the id: %v", err)
	}
}

// TestScanRangeAndFreedChunks checks positional scans, that a full chunk
// gives its slots back once every tuple in it is deleted, and that ids whose
// chunk is gone can come back.
func TestScanRangeAndFreedChunks(t *testing.T) {
	db, rel := idTableRelation(t)
	const n = 3*slotChunk + 100
	for i := 0; i < n; i++ {
		if _, err := db.Insert("R", Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	collect := func(lo, hi int) []int64 {
		var out []int64
		rel.ScanRange(lo, hi, func(tu Tuple) bool {
			out = append(out, tu.Values[0].AsInt())
			return true
		})
		return out
	}
	seq := func(lo, hi int) []int64 {
		var out []int64
		for i := lo; i < hi; i++ {
			out = append(out, int64(i))
		}
		return out
	}
	if rel.Extent() != n {
		t.Fatalf("Extent = %d, want %d", rel.Extent(), n)
	}
	for _, rg := range [][2]int{{0, n}, {-5, n + 5}, {slotChunk - 1, slotChunk + 1}, {7, 7}, {n - 1, n}, {2000, 1000}} {
		lo, hi := max(rg[0], 0), min(rg[1], n)
		if got := collect(rg[0], rg[1]); !slices.Equal(got, seq(lo, hi)) {
			t.Fatalf("ScanRange(%d, %d) visited %d tuples, want [%d, %d)", rg[0], rg[1], len(got), lo, hi)
		}
	}
	// Delete the whole second chunk from inside a Scan callback.
	rel.Scan(func(tu Tuple) bool {
		if v := tu.Values[0].AsInt(); v >= slotChunk && v < 2*slotChunk {
			if ok, _ := db.Delete("R", tu.ID); !ok {
				t.Fatalf("delete %d", tu.ID)
			}
		}
		return true
	})
	if l := db.Layout(); l.Slots != n-slotChunk || l.DeadSlots != 0 {
		t.Fatalf("layout after freeing a chunk: %+v", l)
	}
	if got := collect(0, n); !slices.Equal(got, append(seq(0, slotChunk), seq(2*slotChunk, n)...)) {
		t.Fatalf("scan after freeing a chunk visited %d tuples", len(got))
	}
	if rel.Has(TupleID(slotChunk+1)) || !rel.Has(TupleID(slotChunk)) || !rel.Has(TupleID(2*slotChunk+1)) {
		t.Fatal("Has around the freed chunk")
	}
	// A partly dead chunk keeps its tombstones.
	if ok, _ := db.Delete("R", 1); !ok {
		t.Fatal("delete 1")
	}
	if l := db.Layout(); l.Slots != n-slotChunk || l.DeadSlots != 1 {
		t.Fatalf("layout after one more delete: %+v", l)
	}
	// An id from the freed chunk comes back at a new position.
	back := TupleID(slotChunk + 10)
	if err := db.InsertWithID("R", back, Int(-1)); err != nil {
		t.Fatal(err)
	}
	if tu, ok := rel.Get(back); !ok || tu.Values[0] != Int(-1) {
		t.Fatalf("Get(%d) after re-insert = %v %v", back, tu, ok)
	}
	if got := collect(n, n+1); !slices.Equal(got, []int64{-1}) {
		t.Fatalf("re-inserted tuple not at the end: %v", got)
	}
}

// TestTupleSurvivesUpdateAndDelete pins what CaptureDirty and the engine's
// rollback paths rely on: a Tuple obtained earlier keeps its values.
func TestTupleSurvivesUpdateAndDelete(t *testing.T) {
	db := NewDatabase("test")
	db.MustCreateRelation(MustSchema("R", "", Column{"a", TypeInt}, Column{"s", TypeString}))
	id, err := db.Insert("R", Int(1), String("one"))
	if err != nil {
		t.Fatal(err)
	}
	before, _ := db.Relation("R").Get(id)
	if err := db.Update("R", id, []Value{Int(2), String("two")}); err != nil {
		t.Fatal(err)
	}
	mid, _ := db.Relation("R").Get(id)
	if _, err := db.Delete("R", id); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.Values, []Value{Int(1), String("one")}) || !reflect.DeepEqual(mid.Values, []Value{Int(2), String("two")}) {
		t.Fatalf("held tuples changed: %v, %v", before.Values, mid.Values)
	}
}

// TestRelationOwnsRow pins the ownership rule: the slice handed to Insert,
// InsertWithID or Update is the stored row — no copy is made on the way in,
// and since nobody writes it again one row may sit in two databases.
func TestRelationOwnsRow(t *testing.T) {
	db, other := NewDatabase("test"), NewDatabase("other")
	for _, d := range []*Database{db, other} {
		d.MustCreateRelation(MustSchema("R", "a", Column{"a", TypeInt}, Column{"s", TypeString}))
	}
	rel := db.Relation("R")
	wide := []Value{Int(0), Int(1), String("one")}
	if err := db.InsertWithID("R", 5, wide[1:]...); err != nil {
		t.Fatal(err)
	}
	got, _ := rel.Get(5)
	if &got.Values[0] != &wide[1] || len(got.Values) != 2 || cap(got.Values) != 2 {
		t.Fatalf("InsertWithID copied its row: %v (len %d cap %d)", got.Values, len(got.Values), cap(got.Values))
	}
	next := []Value{Int(2), String("two")}
	if err := db.Update("R", 5, next); err != nil {
		t.Fatal(err)
	}
	if now, _ := rel.Get(5); &now.Values[0] != &next[0] {
		t.Fatal("Update copied its row")
	}
	if !reflect.DeepEqual(got.Values, []Value{Int(1), String("one")}) {
		t.Fatalf("the replaced row changed under its holder: %v", got.Values)
	}
	// The replaced row goes back in under another id and into a second
	// database; the three tuples stay independent.
	if err := db.InsertWithID("R", 6, got.Values...); err != nil {
		t.Fatal(err)
	}
	if err := other.InsertWithID("R", 5, got.Values...); err != nil {
		t.Fatal(err)
	}
	if err := db.Update("R", 6, []Value{Int(3), String("three")}); err != nil {
		t.Fatal(err)
	}
	if kept, _ := other.Relation("R").Get(5); !reflect.DeepEqual(kept.Values, []Value{Int(1), String("one")}) {
		t.Fatalf("a row shared between databases changed: %v", kept.Values)
	}
	for _, bad := range [][]Value{{Int(9)}, {Int(9), String("x"), Int(1)}, {String("k"), String("x")}, {Null, String("x")}, {Int(2), String("dup")}} {
		if err := db.InsertWithID("R", 7, bad...); err == nil {
			t.Errorf("row %v accepted", bad)
		}
	}
}

// TestReserve: a relation told how many tuples are coming allocates its slots
// and its id table once, whatever it already holds, and is otherwise
// unchanged.
func TestReserve(t *testing.T) {
	for _, tc := range []struct{ before, reserve int }{
		{0, 1}, {0, 150}, {3, 150}, {40, 7}, {0, slotChunk + 10}, {slotChunk - 5, 100}, {2 * slotChunk, 3},
	} {
		db, rel := idTableRelation(t)
		id := TupleID(0)
		insert := func(n int) {
			t.Helper()
			for i := 0; i < n; i++ {
				id++
				if err := db.InsertWithID("R", id, Int(int64(id))); err != nil {
					t.Fatal(err)
				}
			}
		}
		insert(tc.before)
		rel.Reserve(tc.reserve)
		table := len(rel.ids)
		room := cap(rel.chunks[len(rel.chunks)-1].slots)
		// The slots reserved reach to the end of the current chunk at most.
		inChunk := min(tc.reserve, len(rel.chunks)*slotChunk-tc.before)
		if room-tc.before&(slotChunk-1) < inChunk {
			t.Fatalf("%+v: %d slots of room in the last chunk", tc, room)
		}
		insert(inChunk)
		if got := cap(rel.chunks[len(rel.chunks)-1].slots); got != room {
			t.Errorf("%+v: the reserved chunk was reallocated: cap %d -> %d", tc, room, got)
		}
		insert(tc.reserve - inChunk)
		if len(rel.ids) != table {
			t.Errorf("%+v: the reserved id table was rebuilt: %d -> %d entries", tc, table, len(rel.ids))
		}
		if rel.Len() != tc.before+tc.reserve || rel.Extent() != rel.Len() {
			t.Fatalf("%+v: Len %d, Extent %d", tc, rel.Len(), rel.Extent())
		}
		for i := TupleID(1); i <= id; i++ {
			if tu, ok := rel.Get(i); !ok || tu.Values[0] != Int(int64(i)) {
				t.Fatalf("%+v: Get(%d) = %v %v", tc, i, tu, ok)
			}
		}
	}
	_, rel := idTableRelation(t)
	rel.Reserve(0)
	rel.Reserve(-3)
	if rel.ids != nil || len(rel.chunks) != 0 {
		t.Error("reserving nothing allocated")
	}
}

// TestDistinctValuesFromIndex: the keys of a hash index and a scan of the
// column give the same distinct values, through inserts, updates and deletes.
func TestDistinctValuesFromIndex(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	db := NewDatabase("test")
	for _, name := range []string{"I", "S"} { // indexed, scanned
		db.MustCreateRelation(MustSchema(name, "", Column{"f", TypeFloat}, Column{"s", TypeString}))
	}
	for _, c := range []string{"f", "s"} {
		if err := db.Relation("I").CreateIndex(c); err != nil {
			t.Fatal(err)
		}
	}
	value := func() []Value {
		f := []Value{Null, Int(int64(r.Intn(6))), Float(float64(r.Intn(6))), Float(float64(r.Intn(6)) + 0.5)}[r.Intn(4)]
		s := []Value{Null, String(fmt.Sprint("s", r.Intn(5)))}[r.Intn(2)]
		return []Value{f, s}
	}
	var ids []TupleID
	for step := 0; step < 600; step++ {
		switch op := r.Intn(4); {
		case op < 2 || len(ids) == 0:
			id := TupleID(step + 1)
			row := value()
			for _, name := range []string{"I", "S"} {
				if err := db.InsertWithID(name, id, row...); err != nil {
					t.Fatal(err)
				}
			}
			ids = append(ids, id)
		case op == 2:
			id, row := ids[r.Intn(len(ids))], value()
			for _, name := range []string{"I", "S"} {
				if err := db.Update(name, id, row); err != nil {
					t.Fatal(err)
				}
			}
		default:
			at := r.Intn(len(ids))
			for _, name := range []string{"I", "S"} {
				if ok, _ := db.Delete(name, ids[at]); !ok {
					t.Fatal("delete")
				}
			}
			ids = slices.Delete(ids, at, at+1)
		}
		if step%20 != 0 {
			continue
		}
		for _, c := range []string{"f", "s"} {
			got, err := db.Relation("I").DistinctValues(c)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := db.Relation("S").DistinctValues(c)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d, column %s: from the index %v, from a scan %v", step, c, got, want)
			}
		}
	}
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestDeleteReleasesRows: a deleted tuple's values and strings used to stay
// reachable from its tombstone for the life of the process (~150 bytes per
// delete under churn). 200k insert/delete cycles over a 20k-tuple relation
// must leave the heap where it was after the first full turnover (which
// lets the index maps and the id table reach their steady size) when the
// oldest tuple is the one deleted — whole chunks of tombstones are given
// back — and cost no more than the 16-byte tombstones when the victims are
// random. The relation has an index whose 977 keys recur but no key of
// ever-new values: go1.24's built-in map, which backs the hash indexes (and
// backed the id table until now), grows severalfold on its own under such
// key churn and would drown what the test is about.
func TestDeleteReleasesRows(t *testing.T) {
	const resident, cycles = 20000, 200000
	for _, tc := range []struct {
		name   string
		fifo   bool
		budget func(base uint64) uint64
	}{
		{"oldest-first", true, func(base uint64) uint64 { return base / 20 }},
		{"random", false, func(uint64) uint64 { return cycles * 24 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(1))
			before := heapAlloc()
			db := NewDatabase("test")
			db.MustCreateRelation(MustSchema("R", "", Column{"g", TypeInt}, Column{"s", TypeString}))
			if err := db.Relation("R").CreateIndex("g"); err != nil {
				t.Fatal(err)
			}
			live := make([]TupleID, 0, 2*resident+cycles) // never regrown: not part of the measurement
			insert := func(i int) {
				id, err := db.Insert("R", Int(int64(i%977)), String(fmt.Sprintf("a row of churn traffic, number %040d", i)))
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, id)
			}
			cycle := func(i int) {
				insert(i)
				victim := 0
				if !tc.fifo {
					victim = r.Intn(len(live))
				}
				if ok, err := db.Delete("R", live[victim]); err != nil || !ok {
					t.Fatalf("delete: %v %v", ok, err)
				}
				if tc.fifo {
					live = live[1:]
				} else {
					live[victim] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
			for i := 0; i < resident; i++ {
				insert(i)
			}
			for i := resident; i < 2*resident; i++ {
				cycle(i)
			}
			base := heapAlloc() - before
			for i := 2 * resident; i < 2*resident+cycles; i++ {
				cycle(i)
			}
			after := heapAlloc() - before
			t.Logf("%d resident tuples: %d bytes; after %d insert/delete cycles: %d bytes (%+d per cycle)",
				resident, base, cycles, after, (int64(after)-int64(base))/cycles)
			if after > base+tc.budget(base) {
				t.Errorf("heap grew from %d to %d bytes over %d insert/delete cycles (budget +%d)",
					base, after, cycles, tc.budget(base))
			}
			runtime.KeepAlive(db)
			runtime.KeepAlive(live)
		})
	}
}
