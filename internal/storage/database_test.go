package storage

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"precis/internal/faultinject"
)

// twoRelDB builds DIRECTOR(did,dname) <- MOVIE(mid,title,did) with an FK.
func twoRelDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("movies")
	db.MustCreateRelation(MustSchema("DIRECTOR", "did",
		Column{"did", TypeInt}, Column{"dname", TypeString}))
	db.MustCreateRelation(MustSchema("MOVIE", "mid",
		Column{"mid", TypeInt}, Column{"title", TypeString}, Column{"did", TypeInt}))
	if err := db.AddForeignKey(ForeignKey{"MOVIE", "did", "DIRECTOR", "did"}); err != nil {
		t.Fatalf("AddForeignKey: %v", err)
	}
	return db
}

func TestAddForeignKeyValidation(t *testing.T) {
	db := twoRelDB(t)
	bad := []ForeignKey{
		{"NOPE", "did", "DIRECTOR", "did"},
		{"MOVIE", "nope", "DIRECTOR", "did"},
		{"MOVIE", "did", "NOPE", "did"},
		{"MOVIE", "did", "DIRECTOR", "nope"},
	}
	for _, fk := range bad {
		if err := db.AddForeignKey(fk); err == nil {
			t.Errorf("foreign key %v accepted", fk)
		}
	}
	if n := len(db.ForeignKeys()); n != 1 {
		t.Errorf("ForeignKeys = %d, want 1", n)
	}
}

func TestCheckIntegrity(t *testing.T) {
	db := twoRelDB(t)
	if _, err := db.Insert("DIRECTOR", Int(1), String("Woody Allen")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("MOVIE", Int(10), String("Match Point"), Int(1)); err != nil {
		t.Fatal(err)
	}
	if v := CheckIntegrity(db); len(v) != 0 {
		t.Errorf("unexpected violations: %v", v)
	}
	if _, err := db.Insert("MOVIE", Int(11), String("Orphan"), Int(99)); err != nil {
		t.Fatal(err)
	}
	v := CheckIntegrity(db)
	if len(v) != 1 {
		t.Fatalf("violations = %v, want 1", v)
	}
	if !strings.Contains(v[0].String(), "DIRECTOR.did") {
		t.Errorf("violation text: %s", v[0])
	}
	// NULL references are permitted.
	if _, err := db.Insert("MOVIE", Int(12), String("Anon"), Null); err != nil {
		t.Fatal(err)
	}
	if got := CheckIntegrity(db); len(got) != 1 {
		t.Errorf("NULL FK counted as violation: %v", got)
	}
}

// TestCheckDeleteRefusesTheLastHolder: a delete is refused only while its
// tuple is the last holder of a value a referencing tuple names, whichever
// partition that tuple lives on, and whether the columns are indexed or
// scanned.
func TestCheckDeleteRefusesTheLastHolder(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		partition := func(firstID TupleID) *Database {
			db := NewDatabase("movies")
			db.SetNextTupleID(firstID)
			db.MustCreateRelation(MustSchema("DIRECTOR", "", Column{"did", TypeInt}, Column{"dname", TypeString}))
			db.MustCreateRelation(MustSchema("MOVIE", "mid", Column{"mid", TypeInt}, Column{"title", TypeString}, Column{"did", TypeInt}))
			if err := db.AddForeignKey(ForeignKey{"MOVIE", "did", "DIRECTOR", "did"}); err != nil {
				t.Fatal(err)
			}
			if indexed {
				if err := db.CreateJoinIndexes(); err != nil {
					t.Fatal(err)
				}
			}
			return db
		}
		a, b := partition(1), partition(100)
		insert := func(db *Database, rel string, vals ...Value) TupleID {
			id, err := db.Insert(rel, vals...)
			if err != nil {
				t.Fatal(err)
			}
			return id
		}
		first := insert(a, "DIRECTOR", Int(1), String("Woody Allen"))
		second := insert(a, "DIRECTOR", Int(1), String("W. Allen"))
		lone := insert(a, "DIRECTOR", Int(2), String("Nobody"))
		insert(b, "MOVIE", Int(10), String("Match Point"), Int(1))
		parts := []*Database{a, b}
		for _, id := range []TupleID{first, lone} {
			if _, err := CheckWrite(parts, 0, WriteDelete, "DIRECTOR", id, nil); err != nil {
				t.Fatalf("indexed=%v: DIRECTOR %d, not the last holder of a referenced value: %v", indexed, id, err)
			}
		}
		if _, err := a.Delete("DIRECTOR", second); err != nil {
			t.Fatal(err)
		}
		if _, err := CheckWrite(parts, 0, WriteDelete, "DIRECTOR", first, nil); !errors.Is(err, ErrReferenced) {
			t.Fatalf("indexed=%v: last holder of did 1 = %v, want ErrReferenced", indexed, err)
		}
		if _, err := CheckWrite(parts[:1], 0, WriteDelete, "DIRECTOR", first, nil); err != nil {
			t.Fatalf("indexed=%v: no given partition holds a movie, yet %v", indexed, err)
		}
		if _, err := CheckWrite(parts, 0, WriteDelete, "DIRECTOR", 999, nil); !errors.Is(err, ErrNoTuple) {
			t.Fatalf("indexed=%v: an absent tuple = %v, want ErrNoTuple", indexed, err)
		}
	}
}

// TestCheckWriteOnASelfReference: on a foreign key into its own relation a
// tuple may reference itself, take its own reference along when its key
// moves, and go; a key another tuple references may do neither.
func TestCheckWriteOnASelfReference(t *testing.T) {
	db := NewDatabase("staff")
	db.MustCreateRelation(MustSchema("EMP", "id", Column{"id", TypeInt}, Column{"boss", TypeInt}))
	if err := db.AddForeignKey(ForeignKey{"EMP", "boss", "EMP", "id"}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateJoinIndexes(); err != nil {
		t.Fatal(err)
	}
	parts := []*Database{db}
	check := func(op WriteOp, id TupleID, want error, vals ...Value) {
		t.Helper()
		if _, err := CheckWrite(parts, 0, op, "EMP", id, vals); !errors.Is(err, want) || (want == nil) != (err == nil) {
			t.Fatalf("%d of tuple %d to %v = %v, want %v", op, id, vals, err, want)
		}
	}
	check(WriteInsert, 1, ErrDangling, Int(1), Int(2))
	check(WriteInsert, 1, nil, Int(1), Int(1))
	boss, err := db.Insert("EMP", Int(1), Int(1))
	if err != nil {
		t.Fatal(err)
	}
	check(WriteUpdate, boss, nil, Int(5), Int(5))
	check(WriteUpdate, boss, ErrDangling, Int(5), Int(1))
	check(WriteDelete, boss, nil)
	staff, err := db.Insert("EMP", Int(2), Int(1))
	if err != nil {
		t.Fatal(err)
	}
	check(WriteUpdate, boss, ErrReferenced, Int(5), Int(5))
	check(WriteDelete, boss, ErrReferenced)
	check(WriteInsert, staff+1, ErrDuplicateKey, Int(2), Int(1))
	check(WriteUpdate, staff, nil, Int(2), Int(2))
	check(WriteDelete, staff, nil)
}

// TestCheckWriteConvertsKeysAndReferences: the write check reads a key and a
// reference as a join reads them, converted to the type of the column they
// are looked up in. A FLOAT primary key given Int(1) holds Float(1), so
// Float(1.0) is a duplicate; an INT reference Int(2) into a FLOAT column
// holding Float(2) is satisfied — through the key's index and through a scan
// of an unindexed column alike — and CheckIntegrity agrees; a reference no
// FLOAT value equals, Int(2^53+1), dangles.
func TestCheckWriteConvertsKeysAndReferences(t *testing.T) {
	for _, indexed := range []bool{true, false} {
		db := NewDatabase("kinds")
		db.MustCreateRelation(MustSchema("P", "k", Column{"k", TypeFloat}, Column{"alt", TypeFloat}))
		db.MustCreateRelation(MustSchema("C", "id", Column{"id", TypeInt}, Column{"r", TypeInt}))
		target := "alt"
		if indexed {
			target = "k"
		}
		if err := db.AddForeignKey(ForeignKey{"C", "r", "P", target}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Insert("P", Int(1), Int(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Insert("P", Float(2), Float(2)); err != nil {
			t.Fatal(err)
		}
		if db.Relation("P").HasIndex("alt") {
			t.Fatal("P.alt has an index")
		}
		parts := []*Database{db}
		for _, c := range []struct {
			rel  string
			vals []Value
			want error
		}{
			{"P", []Value{Float(1), Null}, ErrDuplicateKey},
			{"P", []Value{Int(2), Null}, ErrDuplicateKey},
			{"P", []Value{Float(3), Null}, nil},
			{"C", []Value{Int(1), Int(2)}, nil},
			{"C", []Value{Int(1), Int(1)}, nil},
			{"C", []Value{Int(1), Int(3)}, ErrDangling},
			{"C", []Value{Int(1), Int(1<<53 + 1)}, ErrDangling},
		} {
			_, err := CheckWrite(parts, 0, WriteInsert, c.rel, db.NextTupleID(), c.vals)
			if !errors.Is(err, c.want) || (c.want == nil) != (err == nil) {
				t.Errorf("P.%s target: insert %s %v = %v, want %v", target, c.rel, c.vals, err, c.want)
			}
		}
		if got, err := CheckWrite(parts, 0, WriteInsert, "P", db.NextTupleID(), []Value{Int(3), Int(4)}); err != nil ||
			got[0] != Float(3) || got[1] != Float(4) {
			t.Errorf("insert P [3 4] checks as %v (%v), want the values stored, [3.0 4.0]", got, err)
		}
		if _, err := db.Insert("C", Int(1), Int(2)); err != nil {
			t.Fatal(err)
		}
		if v := CheckIntegrity(db); len(v) != 0 {
			t.Errorf("P.%s target: C.r = 2 into Float(2) is a violation: %v", target, v)
		}
	}
}

// TestCheckWriteInsertAllocatesNothing: the check an insert takes before it
// is logged — id, row, key and reference, over every partition — allocates
// nothing when it accepts.
func TestCheckWriteInsertAllocatesNothing(t *testing.T) {
	parts := make([]*Database, 2)
	for i := range parts {
		db := NewDatabase("movies")
		db.MustCreateRelation(MustSchema("DIRECTOR", "did", Column{"did", TypeInt}, Column{"dname", TypeString}))
		db.MustCreateRelation(MustSchema("MOVIE", "mid", Column{"mid", TypeInt}, Column{"title", TypeString}, Column{"did", TypeInt}))
		if err := db.AddForeignKey(ForeignKey{"MOVIE", "did", "DIRECTOR", "did"}); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateJoinIndexes(); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Insert("DIRECTOR", Int(int64(i+1)), String("Woody Allen")); err != nil {
			t.Fatal(err)
		}
		parts[i] = db
	}
	vals := []Value{Int(10), String("Match Point"), Int(2)} // director 2 is on the other partition
	var err error
	if n := testing.AllocsPerRun(100, func() { _, err = CheckWrite(parts, 1, WriteInsert, "MOVIE", 50, vals) }); n != 0 || err != nil {
		t.Fatalf("an accepted insert's check: %v allocations, %v", n, err)
	}
}

// TestCheckIntegrityUnderLookupFault: a failed target lookup used to read as
// a satisfied reference, so with the lookup site armed a dangling foreign key
// went unreported (and a truncated précis kept a violated constraint). The
// check reads the indexes directly; a fault at the site cannot touch it.
func TestCheckIntegrityUnderLookupFault(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		key := "" // no key, no index: the target is scanned
		if indexed {
			key = "did"
		}
		db := NewDatabase("movies")
		db.MustCreateRelation(MustSchema("DIRECTOR", key, Column{"did", TypeInt}, Column{"dname", TypeString}))
		db.MustCreateRelation(MustSchema("MOVIE", "mid", Column{"mid", TypeInt}, Column{"title", TypeString}, Column{"did", TypeInt}))
		if err := db.AddForeignKey(ForeignKey{"MOVIE", "did", "DIRECTOR", "did"}); err != nil {
			t.Fatal(err)
		}
		for _, row := range [][]Value{
			{Int(10), String("Match Point"), Int(1)},
			{Int(11), String("Orphan"), Int(99)},
			{Int(12), String("Anon"), Null},
		} {
			if _, err := db.Insert("MOVIE", row...); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.Insert("DIRECTOR", Int(1), String("Woody Allen")); err != nil {
			t.Fatal(err)
		}
		injected := errors.New("injected")
		plan := faultinject.NewPlan().Set(faultinject.SiteStorageLookup, faultinject.Rule{Err: injected})
		deactivate := faultinject.Activate(plan)
		v := CheckIntegrity(db)
		_, lookupErr := db.Relation("DIRECTOR").Lookup("did", Int(1))
		deactivate()
		if !errors.Is(lookupErr, injected) {
			t.Fatalf("indexed=%v: the armed site did not fail a lookup: %v", indexed, lookupErr)
		}
		if len(v) != 1 || v[0].Value != Int(99) {
			t.Errorf("indexed=%v: violations under an armed lookup site = %v, want the one dangling reference", indexed, v)
		}
	}
}

func TestCreateJoinIndexes(t *testing.T) {
	db := twoRelDB(t)
	if err := db.CreateJoinIndexes(); err != nil {
		t.Fatal(err)
	}
	if !db.Relation("MOVIE").HasIndex("did") {
		t.Error("MOVIE.did not indexed")
	}
	if !db.Relation("DIRECTOR").HasIndex("did") {
		t.Error("DIRECTOR.did not indexed")
	}
}

func TestStatsAndString(t *testing.T) {
	db := twoRelDB(t)
	if _, err := db.Insert("DIRECTOR", Int(1), String("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("MOVIE", Int(10), String("t"), Int(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("MOVIE", Int(11), String("u"), Int(1)); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Relations != 2 || st.Tuples != 3 || st.PerRel["MOVIE"] != 2 {
		t.Errorf("Stats = %+v", st)
	}
	if db.TotalTuples() != 3 {
		t.Errorf("TotalTuples = %d", db.TotalTuples())
	}
	s := db.String()
	if !strings.Contains(s, "MOVIE:2") || !strings.Contains(s, "DIRECTOR:1") {
		t.Errorf("String = %q", s)
	}
	names := db.RelationNames()
	if len(names) != 2 || names[0] != "DIRECTOR" || names[1] != "MOVIE" {
		t.Errorf("RelationNames = %v", names)
	}
	if db.NumRelations() != 2 {
		t.Errorf("NumRelations = %d", db.NumRelations())
	}
}

func TestVerifySubDatabase(t *testing.T) {
	orig := twoRelDB(t)
	did, _ := orig.Insert("DIRECTOR", Int(1), String("Woody Allen"))
	mid, _ := orig.Insert("MOVIE", Int(10), String("Match Point"), Int(1))

	sub := NewDatabase("precis")
	sub.MustCreateRelation(MustSchema("DIRECTOR", "did",
		Column{"did", TypeInt}, Column{"dname", TypeString}))
	sub.MustCreateRelation(MustSchema("MOVIE", "",
		Column{"title", TypeString}, Column{"did", TypeInt}))
	if err := sub.InsertWithID("DIRECTOR", did, Int(1), String("Woody Allen")); err != nil {
		t.Fatal(err)
	}
	if err := sub.InsertWithID("MOVIE", mid, String("Match Point"), Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := VerifySubDatabase(orig, sub); err != nil {
		t.Errorf("valid sub-database rejected: %v", err)
	}

	// Wrong value -> condition 3 violated.
	bad := NewDatabase("precis")
	bad.MustCreateRelation(MustSchema("MOVIE", "", Column{"title", TypeString}))
	if err := bad.InsertWithID("MOVIE", mid, String("Wrong Title")); err != nil {
		t.Fatal(err)
	}
	if err := VerifySubDatabase(orig, bad); err == nil {
		t.Error("tampered tuple accepted")
	}

	// Unknown relation -> condition 1 violated.
	bad2 := NewDatabase("precis")
	bad2.MustCreateRelation(MustSchema("GHOST", "", Column{"x", TypeInt}))
	if err := VerifySubDatabase(orig, bad2); err == nil {
		t.Error("unknown relation accepted")
	}

	// Unknown attribute -> condition 2 violated.
	bad3 := NewDatabase("precis")
	bad3.MustCreateRelation(MustSchema("MOVIE", "", Column{"ghostcol", TypeInt}))
	if err := VerifySubDatabase(orig, bad3); err == nil {
		t.Error("unknown attribute accepted")
	}

	// Tuple id not present in original -> condition 3 violated.
	bad4 := NewDatabase("precis")
	bad4.MustCreateRelation(MustSchema("MOVIE", "", Column{"title", TypeString}))
	if err := bad4.InsertWithID("MOVIE", 9999, String("Match Point")); err != nil {
		t.Fatal(err)
	}
	if err := VerifySubDatabase(orig, bad4); err == nil {
		t.Error("phantom tuple accepted")
	}
}

func TestCheckJoinConsistency(t *testing.T) {
	orig := twoRelDB(t)
	did, _ := orig.Insert("DIRECTOR", Int(1), String("Woody Allen"))
	m1, _ := orig.Insert("MOVIE", Int(10), String("Match Point"), Int(1))
	m2, _ := orig.Insert("MOVIE", Int(11), String("Scoop"), Int(1))

	sub := NewDatabase("precis")
	sub.MustCreateRelation(MustSchema("DIRECTOR", "did",
		Column{"did", TypeInt}, Column{"dname", TypeString}))
	sub.MustCreateRelation(MustSchema("MOVIE", "",
		Column{"title", TypeString}, Column{"did", TypeInt}))
	if err := sub.InsertWithID("MOVIE", m1, String("Match Point"), Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := sub.InsertWithID("MOVIE", m2, String("Scoop"), Int(1)); err != nil {
		t.Fatal(err)
	}
	// DIRECTOR empty: 2 referencing, 0 satisfied.
	jc := CheckJoinConsistency(orig, sub)
	if len(jc) != 1 || jc[0].Referencing != 2 || jc[0].Satisfied != 0 {
		t.Fatalf("JoinConsistency = %+v", jc)
	}
	if err := sub.InsertWithID("DIRECTOR", did, Int(1), String("Woody Allen")); err != nil {
		t.Fatal(err)
	}
	jc = CheckJoinConsistency(orig, sub)
	if jc[0].Satisfied != 2 {
		t.Fatalf("JoinConsistency after adding director = %+v", jc)
	}
}

func TestUpdateTuple(t *testing.T) {
	db := twoRelDB(t)
	id, _ := db.Insert("DIRECTOR", Int(1), String("Woody Allen"))
	if err := db.Update("DIRECTOR", id, []Value{Int(1), String("W. Allen")}); err != nil {
		t.Fatal(err)
	}
	got, _ := db.Relation("DIRECTOR").Get(id)
	if got.Values[1].AsString() != "W. Allen" {
		t.Errorf("values = %v", got.Values)
	}
	// Index on the PK is maintained.
	ids, _ := db.Relation("DIRECTOR").Lookup("did", Int(1))
	if len(ids) != 1 || ids[0] != id {
		t.Errorf("lookup = %v", ids)
	}
	// Errors.
	if err := db.Update("NOPE", id, nil); err == nil {
		t.Error("unknown relation accepted")
	}
	if err := db.Update("DIRECTOR", 9999, []Value{Int(1), String("x")}); err == nil {
		t.Error("unknown tuple accepted")
	}
	if err := db.Update("DIRECTOR", id, []Value{Int(1)}); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := db.Update("DIRECTOR", id, []Value{String("x"), String("y")}); err == nil {
		t.Error("wrong type accepted")
	}
	id2, _ := db.Insert("DIRECTOR", Int(2), String("Other"))
	if err := db.Update("DIRECTOR", id2, []Value{Int(1), String("dup")}); err == nil {
		t.Error("duplicate key accepted")
	}
	if err := db.Update("DIRECTOR", id2, []Value{Null, String("n")}); err == nil {
		t.Error("NULL key accepted")
	}
}

// TestUpsertAppliesASet: Upsert places a set of final rows at once — keys
// moved round a cycle and swapped included, held tuples rewritten in place,
// new ids after the last tuple in the order given — with every index
// current; and a set that would leave a key held twice, or that a loop of
// Update and InsertWithID would refuse for any other reason, changes
// nothing and names the tuple it refused.
func TestUpsertAppliesASet(t *testing.T) {
	db := twoRelDB(t)
	for k := int64(1); k <= 4; k++ {
		if _, err := db.Insert("DIRECTOR", Int(k), String(fmt.Sprint("d", k))); err != nil {
			t.Fatal(err)
		}
	}
	dir := db.Relation("DIRECTOR")
	row := func(did int64, name string) Row { return MakeRow(Int(did), String(name)) }
	state := func() string {
		var b strings.Builder
		dir.Scan(func(tp Tuple) bool { fmt.Fprintf(&b, "%d%v ", tp.ID, tp.Values); return true })
		for k := int64(1); k <= 9; k++ {
			ids, _ := dir.Lookup("did", Int(k))
			fmt.Fprintf(&b, "did%d%v ", k, ids)
		}
		return b.String()
	}
	// 1:1→2, 2:2→3, 3:3→1 (a cycle), 4 kept, and two new tuples.
	if at, err := db.Upsert("DIRECTOR", []Upsert{{1, row(2, "a")}, {2, row(3, "b")}, {3, row(1, "c")}, {7, row(7, "g")}, {9, row(5, "e")}}); err != nil {
		t.Fatalf("upsert %d: %v", at, err)
	}
	want := "1[2 a] 2[3 b] 3[1 c] 4[4 d4] 7[7 g] 9[5 e] did1[3] did2[1] did3[2] did4[4] did5[9] did6[] did7[7] did8[] did9[] "
	if got := state(); got != want {
		t.Fatalf("after the set:\n got %s\nwant %s", got, want)
	}
	if db.NextTupleID() != 10 {
		t.Fatalf("NextTupleID %d, want 10", db.NextTupleID())
	}
	for name, c := range map[string]struct {
		ups []Upsert
		at  int
	}{
		"a key an untouched tuple holds": {[]Upsert{{1, row(6, "a")}, {2, row(4, "b")}}, 1},
		"one key given twice":            {[]Upsert{{1, row(8, "a")}, {10, row(8, "x")}}, 1},
		"ids out of order":               {[]Upsert{{2, row(3, "b")}, {1, row(2, "a")}}, 1},
		"a NULL key":                     {[]Upsert{{1, row(2, "a")}, {10, MakeRow(Null, String("x"))}}, 1},
		"the wrong arity":                {[]Upsert{{10, MakeRow(Int(8))}}, 0},
		"an id out of range":             {[]Upsert{{1, row(2, "a")}, {MaxTupleID + 1, row(8, "x")}}, 1},
	} {
		at, err := db.Upsert("DIRECTOR", c.ups)
		if err == nil || at != c.at {
			t.Errorf("%s: refused upsert %d (%v), want %d refused", name, at, err, c.at)
		}
		if got := state(); got != want {
			t.Errorf("%s: the refused set changed the relation:\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestCatalogID: the id is stable while the catalog stands, retired by every
// change to the relations or the foreign keys — not by tuples or indexes —
// never shared between databases, and one value for concurrent first askers.
func TestCatalogID(t *testing.T) {
	schema := func(name string) *Schema {
		return MustSchema(name, "id", Column{"id", TypeInt})
	}
	db := NewDatabase("a")
	ids := make([]uint64, 8)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[i] = db.CatalogID()
		}()
	}
	wg.Wait()
	for _, id := range ids {
		if id == 0 || id != ids[0] {
			t.Fatalf("concurrent first calls disagree: %v", ids)
		}
	}
	seen := map[uint64]bool{NewDatabase("b").CatalogID(): true}
	step := func(what string, changes bool, fn func() error) {
		t.Helper()
		before := db.CatalogID()
		seen[before] = true
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		after := db.CatalogID()
		if changes && (after == before || seen[after]) {
			t.Fatalf("%s: catalog id %d → %d, want a new one", what, before, after)
		}
		if !changes && after != before {
			t.Fatalf("%s: catalog id %d → %d, want it kept", what, before, after)
		}
	}
	fk := ForeignKey{FromRelation: "R", FromColumn: "id", ToRelation: "S", ToColumn: "id"}
	step("CreateRelation", true, func() error { _, err := db.CreateRelation(schema("R")); return err })
	step("CreateRelation", true, func() error { _, err := db.CreateRelation(schema("S")); return err })
	step("Insert", false, func() error { _, err := db.Insert("R", Int(1)); return err })
	step("CreateIndex", false, func() error { return db.Relation("R").CreateIndex("id") })
	step("AddForeignKey", true, func() error { return db.AddForeignKey(fk) })
	step("SetForeignKeys", true, func() error { db.SetForeignKeys(nil); return nil })
}
