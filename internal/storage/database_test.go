package storage

import (
	"errors"
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
	if v := db.CheckIntegrity(); len(v) != 0 {
		t.Errorf("unexpected violations: %v", v)
	}
	if _, err := db.Insert("MOVIE", Int(11), String("Orphan"), Int(99)); err != nil {
		t.Fatal(err)
	}
	v := db.CheckIntegrity()
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
	if got := db.CheckIntegrity(); len(got) != 1 {
		t.Errorf("NULL FK counted as violation: %v", got)
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
		v := db.CheckIntegrity()
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

func TestDropRelation(t *testing.T) {
	db := twoRelDB(t)
	if err := db.DropRelation("MOVIE"); err != nil {
		t.Fatal(err)
	}
	if db.Relation("MOVIE") != nil {
		t.Error("relation still reachable")
	}
	if db.NumRelations() != 1 {
		t.Errorf("NumRelations = %d", db.NumRelations())
	}
	// The foreign key involving MOVIE is gone.
	if n := len(db.ForeignKeys()); n != 0 {
		t.Errorf("foreign keys = %d", n)
	}
	if err := db.DropRelation("MOVIE"); err == nil {
		t.Error("double drop accepted")
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
	step("DropRelation", true, func() error { return db.DropRelation("S") })
}
