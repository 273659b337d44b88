package storage

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func movieSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("MOVIE", "mid",
		Column{"mid", TypeInt},
		Column{"title", TypeString},
		Column{"year", TypeInt},
		Column{"did", TypeInt},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema("", "", Column{"a", TypeInt}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewSchema("R", ""); err == nil {
		t.Error("no columns accepted")
	}
	if _, err := NewSchema("R", "", Column{"a", TypeInt}, Column{"a", TypeString}); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := NewSchema("R", "zz", Column{"a", TypeInt}); err == nil {
		t.Error("unknown key column accepted")
	}
	if _, err := NewSchema("R", "", Column{"a", ColType(99)}); err == nil {
		t.Error("bad column type accepted")
	}
	if _, err := NewSchema("R", "", Column{"", TypeInt}); err == nil {
		t.Error("unnamed column accepted")
	}
}

func TestSchemaProject(t *testing.T) {
	s := movieSchema(t)
	p, err := s.Project([]string{"title", "mid"})
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if got := p.ColumnNames(); !reflect.DeepEqual(got, []string{"title", "mid"}) {
		t.Errorf("projected columns = %v", got)
	}
	if p.Key != "mid" {
		t.Errorf("projection should keep surviving key, got %q", p.Key)
	}
	p2, err := s.Project([]string{"title"})
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if p2.Key != "" {
		t.Errorf("projection dropped key column but Key = %q", p2.Key)
	}
	if _, err := s.Project([]string{"nope"}); err == nil {
		t.Error("projection of unknown column accepted")
	}
	if _, err := s.Project(nil); err == nil {
		t.Error("empty projection accepted")
	}
}

func TestSchemaString(t *testing.T) {
	s := movieSchema(t)
	str := s.String()
	if !strings.Contains(str, "MOVIE(") || !strings.Contains(str, "mid* INT") {
		t.Errorf("String() = %q", str)
	}
}

func TestInsertAndGet(t *testing.T) {
	db := NewDatabase("test")
	db.MustCreateRelation(movieSchema(t))
	id, err := db.Insert("MOVIE", Int(1), String("Match Point"), Int(2005), Int(10))
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	r := db.Relation("MOVIE")
	got, ok := r.Get(id)
	if !ok {
		t.Fatal("Get: tuple missing")
	}
	if got.Values[1].AsString() != "Match Point" || got.Values[2].AsInt() != 2005 {
		t.Errorf("tuple = %v", got)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestInsertValidation(t *testing.T) {
	db := NewDatabase("test")
	db.MustCreateRelation(movieSchema(t))
	if _, err := db.Insert("MOVIE", Int(1), String("x")); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := db.Insert("MOVIE", String("x"), String("t"), Int(1), Int(1)); err == nil {
		t.Error("wrong type accepted")
	}
	if _, err := db.Insert("NOPE", Int(1)); err == nil {
		t.Error("unknown relation accepted")
	}
	if _, err := db.Insert("MOVIE", Null, String("t"), Int(1), Int(1)); err == nil {
		t.Error("NULL primary key accepted")
	}
	if _, err := db.Insert("MOVIE", Int(1), String("a"), Int(2000), Int(1)); err != nil {
		t.Fatalf("first insert: %v", err)
	}
	if _, err := db.Insert("MOVIE", Int(1), String("b"), Int(2001), Int(1)); err == nil {
		t.Error("duplicate primary key accepted")
	}
}

func TestNullStorable(t *testing.T) {
	db := NewDatabase("test")
	db.MustCreateRelation(movieSchema(t))
	if _, err := db.Insert("MOVIE", Int(1), Null, Null, Null); err != nil {
		t.Fatalf("NULL non-key columns should be storable: %v", err)
	}
}

func TestDelete(t *testing.T) {
	db := NewDatabase("test")
	db.MustCreateRelation(movieSchema(t))
	id, _ := db.Insert("MOVIE", Int(1), String("a"), Int(2000), Int(1))
	ok, err := db.Delete("MOVIE", id)
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if _, found := db.Relation("MOVIE").Get(id); found {
		t.Error("deleted tuple still visible")
	}
	if db.Relation("MOVIE").Len() != 0 {
		t.Error("Len after delete")
	}
	ok, _ = db.Delete("MOVIE", id)
	if ok {
		t.Error("double delete reported success")
	}
	// Key is freed for reuse after delete.
	if _, err := db.Insert("MOVIE", Int(1), String("b"), Int(2001), Int(2)); err != nil {
		t.Errorf("re-insert of deleted key: %v", err)
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	db := NewDatabase("test")
	db.MustCreateRelation(movieSchema(t))
	for i := 1; i <= 5; i++ {
		if _, err := db.Insert("MOVIE", Int(int64(i)), String("t"), Int(2000+int64(i)), Int(1)); err != nil {
			t.Fatal(err)
		}
	}
	var years []int64
	db.Relation("MOVIE").Scan(func(tu Tuple) bool {
		years = append(years, tu.Values[2].AsInt())
		return len(years) < 3
	})
	if !reflect.DeepEqual(years, []int64{2001, 2002, 2003}) {
		t.Errorf("scan order/early stop: %v", years)
	}
}

func TestLookupWithAndWithoutIndex(t *testing.T) {
	db := NewDatabase("test")
	db.MustCreateRelation(movieSchema(t))
	var want []TupleID
	for i := 1; i <= 10; i++ {
		id, err := db.Insert("MOVIE", Int(int64(i)), String("t"), Int(2000), Int(int64(i%3)))
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 1 {
			want = append(want, id)
		}
	}
	r := db.Relation("MOVIE")
	scanIDs, err := r.Lookup("did", Int(1))
	if err != nil {
		t.Fatalf("Lookup (scan): %v", err)
	}
	if err := r.CreateIndex("did"); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	if !r.HasIndex("did") {
		t.Error("HasIndex after CreateIndex")
	}
	idxIDs, err := r.Lookup("did", Int(1))
	if err != nil {
		t.Fatalf("Lookup (index): %v", err)
	}
	if !reflect.DeepEqual(scanIDs, want) || !reflect.DeepEqual(idxIDs, want) {
		t.Errorf("Lookup: scan=%v index=%v want=%v", scanIDs, idxIDs, want)
	}
	if _, err := r.Lookup("nope", Int(1)); err == nil {
		t.Error("lookup on unknown column accepted")
	}
	// AppendLookup gathers several posting lists into one buffer, and the
	// buffer Lookup returns is the caller's: writing to it leaves the index
	// alone.
	both, err := r.AppendLookup(idxIDs, "did", Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(both) != 7 || !reflect.DeepEqual(both[:len(want)], want) {
		t.Errorf("AppendLookup = %v", both)
	}
	both[0] = -1
	if again, _ := r.Lookup("did", Int(1)); !reflect.DeepEqual(again, want) {
		t.Errorf("index posting list aliased by a lookup result: %v", again)
	}
	if !r.Has(want[0]) || r.Has(-1) {
		t.Error("Has disagrees with the stored ids")
	}
}

func TestIndexMaintainedAcrossDeletes(t *testing.T) {
	db := NewDatabase("test")
	db.MustCreateRelation(movieSchema(t))
	r := db.Relation("MOVIE")
	if err := r.CreateIndex("did"); err != nil {
		t.Fatal(err)
	}
	ids := make([]TupleID, 0, 6)
	for i := 1; i <= 6; i++ {
		id, _ := db.Insert("MOVIE", Int(int64(i)), String("t"), Int(2000), Int(7))
		ids = append(ids, id)
	}
	if _, err := db.Delete("MOVIE", ids[2]); err != nil {
		t.Fatal(err)
	}
	got, _ := r.Lookup("did", Int(7))
	if len(got) != 5 {
		t.Errorf("index after delete: %v", got)
	}
	for _, id := range got {
		if id == ids[2] {
			t.Error("deleted tuple still in index")
		}
	}
}

func TestDistinctValues(t *testing.T) {
	db := NewDatabase("test")
	db.MustCreateRelation(movieSchema(t))
	for i := 1; i <= 6; i++ {
		if _, err := db.Insert("MOVIE", Int(int64(i)), String("t"), Int(2000), Int(int64(i%2))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Insert("MOVIE", Int(7), String("t"), Int(2000), Null); err != nil {
		t.Fatal(err)
	}
	vals, err := db.Relation("MOVIE").DistinctValues("did")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vals, []Value{Int(0), Int(1)}) {
		t.Errorf("DistinctValues = %v", vals)
	}
	// A FLOAT column stores both kinds: numerically equal values of
	// different kinds are distinct and order by kind, deterministically.
	db.MustCreateRelation(MustSchema("F", "", Column{"f", TypeFloat}))
	for _, v := range []Value{Float(2), Int(2), Float(1.5), Int(1), Null, Int(2), Float(2)} {
		if _, err := db.Insert("F", v); err != nil {
			t.Fatal(err)
		}
	}
	vals, err = db.Relation("F").DistinctValues("f")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vals, []Value{Int(1), Float(1.5), Int(2), Float(2)}) {
		t.Errorf("DistinctValues over mixed kinds = %v", vals)
	}
	if _, err := db.Relation("F").DistinctValues("nope"); err == nil {
		t.Error("distinct values of an unknown column accepted")
	}
}

// TestIndexEquivalentToScan is the core index invariant: after an arbitrary
// interleaving of inserts and deletes, index lookup equals scan lookup.
func TestIndexEquivalentToScan(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	db := NewDatabase("test")
	db.MustCreateRelation(MustSchema("R", "", Column{"k", TypeInt}, Column{"v", TypeString}))
	rel := db.Relation("R")
	if err := rel.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	var live []TupleID
	for step := 0; step < 3000; step++ {
		if len(live) > 0 && r.Intn(4) == 0 {
			i := r.Intn(len(live))
			if _, err := db.Delete("R", live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		} else {
			id, err := db.Insert("R", Int(int64(r.Intn(20))), String("x"))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		}
	}
	for k := 0; k < 20; k++ {
		v := Int(int64(k))
		idx, _ := rel.Lookup("k", v)
		var scan []TupleID
		rel.Scan(func(tu Tuple) bool {
			if tu.Values[0].Equal(v) {
				scan = append(scan, tu.ID)
			}
			return true
		})
		if !reflect.DeepEqual(idx, scan) {
			t.Fatalf("k=%d: index %v != scan %v", k, idx, scan)
		}
	}
}

func TestCreateRelationErrors(t *testing.T) {
	db := NewDatabase("test")
	db.MustCreateRelation(movieSchema(t))
	if _, err := db.CreateRelation(movieSchema(t)); err == nil {
		t.Error("duplicate relation accepted")
	}
	if _, err := db.CreateRelation(nil); err == nil {
		t.Error("nil schema accepted")
	}
}

func TestInsertWithID(t *testing.T) {
	db := NewDatabase("test")
	db.MustCreateRelation(movieSchema(t))
	if err := db.InsertWithID("MOVIE", 100, Int(1), String("a"), Int(2000), Int(1)); err != nil {
		t.Fatalf("InsertWithID: %v", err)
	}
	if err := db.InsertWithID("MOVIE", 100, Int(2), String("b"), Int(2001), Int(1)); err == nil {
		t.Error("duplicate tuple id accepted")
	}
	if err := db.InsertWithID("MOVIE", 0, Int(3), String("c"), Int(2002), Int(1)); err == nil {
		t.Error("non-positive tuple id accepted")
	}
	// Auto ids must not collide with explicit ids.
	id, err := db.Insert("MOVIE", Int(4), String("d"), Int(2003), Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if id <= 100 {
		t.Errorf("auto id %d collides with explicit id space", id)
	}
}
