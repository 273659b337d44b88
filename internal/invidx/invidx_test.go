package invidx

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"precis/internal/storage"
)

func moviesDB(t *testing.T) *storage.Database {
	t.Helper()
	db := storage.NewDatabase("movies")
	db.MustCreateRelation(storage.MustSchema("DIRECTOR", "did",
		storage.Column{Name: "did", Type: storage.TypeInt},
		storage.Column{Name: "dname", Type: storage.TypeString}))
	db.MustCreateRelation(storage.MustSchema("ACTOR", "aid",
		storage.Column{Name: "aid", Type: storage.TypeInt},
		storage.Column{Name: "aname", Type: storage.TypeString}))
	db.MustCreateRelation(storage.MustSchema("MOVIE", "mid",
		storage.Column{Name: "mid", Type: storage.TypeInt},
		storage.Column{Name: "title", Type: storage.TypeString},
		storage.Column{Name: "year", Type: storage.TypeInt}))
	mustInsert := func(rel string, vals ...storage.Value) storage.TupleID {
		id, err := db.Insert(rel, vals...)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	mustInsert("DIRECTOR", storage.Int(1), storage.String("Woody Allen"))
	mustInsert("DIRECTOR", storage.Int(2), storage.String("Ridley Scott"))
	mustInsert("ACTOR", storage.Int(10), storage.String("Woody Allen"))
	mustInsert("ACTOR", storage.Int(11), storage.String("Woody Harrelson"))
	mustInsert("MOVIE", storage.Int(100), storage.String("Match Point"), storage.Int(2005))
	mustInsert("MOVIE", storage.Int(101), storage.String("Anything Else"), storage.Int(2003))
	return db
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Woody Allen", []string{"woody", "allen"}},
		{"  The Curse-of the Jade Scorpion! ", []string{"the", "curse", "of", "the", "jade", "scorpion"}},
		{"R2D2", []string{"r2d2"}},
		{"", nil},
		{"---", nil},
		{"ÉLÈVE café", []string{"élève", "café"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestLookupSingleToken(t *testing.T) {
	db := moviesDB(t)
	ix := New(db)
	occs := ix.Lookup("woody")
	rels := Relations(occs)
	if !reflect.DeepEqual(rels, []string{"ACTOR", "DIRECTOR"}) {
		t.Errorf("relations = %v", rels)
	}
	// ACTOR has two woodys.
	for _, o := range occs {
		if o.Relation == "ACTOR" && len(o.TupleIDs) != 2 {
			t.Errorf("ACTOR occurrence = %+v", o)
		}
		if o.Relation == "DIRECTOR" && len(o.TupleIDs) != 1 {
			t.Errorf("DIRECTOR occurrence = %+v", o)
		}
	}
}

func TestLookupPhrase(t *testing.T) {
	db := moviesDB(t)
	ix := New(db)
	occs := ix.Lookup("Woody Allen")
	if len(occs) != 2 {
		t.Fatalf("occurrences = %+v", occs)
	}
	for _, o := range occs {
		if len(o.TupleIDs) != 1 {
			t.Errorf("phrase should match exactly one tuple per relation: %+v", o)
		}
		if o.Attribute != "dname" && o.Attribute != "aname" {
			t.Errorf("unexpected attribute %q", o.Attribute)
		}
	}
	// "Woody Harrelson" must not be matched by the phrase "Woody Allen";
	// conversely the phrase "woody harrelson" matches only the actor.
	occs = ix.Lookup("woody harrelson")
	if len(occs) != 1 || occs[0].Relation != "ACTOR" || len(occs[0].TupleIDs) != 1 {
		t.Errorf("phrase woody harrelson = %+v", occs)
	}
}

func TestLookupCaseInsensitive(t *testing.T) {
	db := moviesDB(t)
	ix := New(db)
	a := ix.Lookup("WOODY ALLEN")
	b := ix.Lookup("woody allen")
	if !reflect.DeepEqual(a, b) {
		t.Error("lookup should be case-insensitive")
	}
}

func TestLookupMisses(t *testing.T) {
	db := moviesDB(t)
	ix := New(db)
	if occs := ix.Lookup("nonexistent"); occs != nil {
		t.Errorf("miss returned %+v", occs)
	}
	if occs := ix.Lookup(""); occs != nil {
		t.Errorf("empty term returned %+v", occs)
	}
	// Both words exist but never adjacent in one value.
	if occs := ix.Lookup("allen scott"); occs != nil {
		t.Errorf("non-phrase returned %+v", occs)
	}
	// Phrase where words co-occur in the same attribute but non-adjacent
	// should not match: add such a row.
	if _, err := db.Insert("MOVIE", storage.Int(102), storage.String("Allen meets Woody"), storage.Int(2001)); err != nil {
		t.Fatal(err)
	}
	ix2 := New(db)
	if occs := ix2.Lookup("woody allen"); len(Relations(occs)) != 2 {
		t.Errorf("phrase matching leaked substring semantics: %+v", occs)
	}
}

func TestLookupAll(t *testing.T) {
	db := moviesDB(t)
	ix := New(db)
	res := ix.LookupAll([]string{"Woody Allen", "match", "zzz"})
	if len(res["Woody Allen"]) != 2 {
		t.Errorf("Woody Allen = %+v", res["Woody Allen"])
	}
	if len(res["match"]) != 1 || res["match"][0].Relation != "MOVIE" {
		t.Errorf("match = %+v", res["match"])
	}
	if res["zzz"] != nil {
		t.Errorf("zzz = %+v", res["zzz"])
	}
}

func TestIncrementalAddRemove(t *testing.T) {
	db := moviesDB(t)
	ix := New(db)
	id, err := db.Insert("MOVIE", storage.Int(102), storage.String("Hollywood Ending"), storage.Int(2002))
	if err != nil {
		t.Fatal(err)
	}
	tup, _ := db.Relation("MOVIE").Get(id)
	ix.AddTuple("MOVIE", tup)
	occs := ix.Lookup("hollywood")
	if len(occs) != 1 || len(occs[0].TupleIDs) != 1 || occs[0].TupleIDs[0] != id {
		t.Fatalf("after add: %+v", occs)
	}
	ix.RemoveTuple("MOVIE", tup)
	if occs := ix.Lookup("hollywood"); occs != nil {
		t.Errorf("after remove: %+v", occs)
	}
}

func TestNumTokens(t *testing.T) {
	db := moviesDB(t)
	ix := New(db)
	if ix.NumTokens() == 0 {
		t.Error("NumTokens = 0")
	}
	before := ix.NumTokens()
	id, _ := db.Insert("MOVIE", storage.Int(103), storage.String("zxqj"), storage.Int(1999))
	tup, _ := db.Relation("MOVIE").Get(id)
	ix.AddTuple("MOVIE", tup)
	if ix.NumTokens() != before+1 {
		t.Errorf("NumTokens after add = %d, want %d", ix.NumTokens(), before+1)
	}
	ix.RemoveTuple("MOVIE", tup)
	if ix.NumTokens() != before {
		t.Errorf("NumTokens after remove = %d, want %d", ix.NumTokens(), before)
	}
}

// TestIndexMatchesBruteForce is the index correctness property: after a
// random interleaving of inserts and deletes, Lookup agrees with a direct
// scan for every queried token.
func TestIndexMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	db := storage.NewDatabase("prop")
	db.MustCreateRelation(storage.MustSchema("R", "",
		storage.Column{Name: "a", Type: storage.TypeString},
		storage.Column{Name: "b", Type: storage.TypeString}))
	ix := New(db)
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	randPhrase := func() string {
		n := 1 + r.Intn(3)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = words[r.Intn(len(words))]
		}
		return strings.Join(parts, " ")
	}
	var live []storage.TupleID
	for step := 0; step < 1200; step++ {
		if len(live) > 0 && r.Intn(3) == 0 {
			i := r.Intn(len(live))
			id := live[i]
			tup, _ := db.Relation("R").Get(id)
			ix.RemoveTuple("R", tup)
			if _, err := db.Delete("R", id); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		} else {
			id, err := db.Insert("R", storage.String(randPhrase()), storage.String(randPhrase()))
			if err != nil {
				t.Fatal(err)
			}
			tup, _ := db.Relation("R").Get(id)
			ix.AddTuple("R", tup)
			live = append(live, id)
		}
	}
	for _, w := range words {
		occs := ix.Lookup(w)
		got := map[string][]storage.TupleID{}
		for _, o := range occs {
			got[o.Attribute] = o.TupleIDs
		}
		for col := 0; col < 2; col++ {
			attr := []string{"a", "b"}[col]
			var want []storage.TupleID
			db.Relation("R").Scan(func(tu storage.Tuple) bool {
				for _, tok := range Tokenize(tu.Values[col].AsString()) {
					if tok == w {
						want = append(want, tu.ID)
						break
					}
				}
				return true
			})
			if !reflect.DeepEqual(got[attr], want) {
				t.Fatalf("token %q attr %s: index %v != scan %v", w, attr, got[attr], want)
			}
		}
	}
}

func TestSynonyms(t *testing.T) {
	db := moviesDB(t)
	ix := New(db)
	// Without a synonym, "W. Allen" tokenizes to {w, allen}: "w" misses.
	if occs := ix.LookupExpanded("W. Allen"); occs != nil {
		t.Fatalf("unexpected matches before synonym: %+v", occs)
	}
	ix.AddSynonym("W. Allen", "Woody Allen")
	occs := ix.LookupExpanded("W. Allen")
	rels := Relations(occs)
	if !reflect.DeepEqual(rels, []string{"ACTOR", "DIRECTOR"}) {
		t.Errorf("synonym lookup relations = %v", rels)
	}
	// Direct matches and synonym matches merge without duplicates.
	ix.AddSynonym("woody", "Woody Harrelson")
	occs = ix.LookupExpanded("woody")
	for _, o := range occs {
		if o.Relation == "ACTOR" && len(o.TupleIDs) != 2 {
			t.Errorf("merged ACTOR ids = %v", o.TupleIDs)
		}
	}
	// Plain Lookup is unaffected.
	if got := ix.Lookup("W. Allen"); got != nil {
		t.Errorf("plain lookup affected by synonyms: %+v", got)
	}
	// Degenerate alias is ignored.
	ix.AddSynonym("---", "Woody Allen")
	if got := ix.LookupExpanded("---"); got != nil {
		t.Errorf("degenerate alias matched: %+v", got)
	}
}

// TestContainsFold holds the allocation-free match to the expression it
// replaced.
func TestContainsFold(t *testing.T) {
	values := []string{"", "Woody Allen", "WOODY ALLEN", "woody allen", "Woody  Allen", "Allen, Woody", "Åsa Öst", "ÅSA ÖST", "K", "straße", "İstanbul"}
	terms := []string{"", "woody allen", "Woody Allen", "allen", "y a", "åsa", "Öst", "k", "K", "SS", "i̇"}
	for _, v := range values {
		for _, term := range terms {
			lower := strings.ToLower(term)
			want := strings.Contains(strings.ToLower(v), lower)
			if got := containsFold(v, lower); got != want {
				t.Errorf("containsFold(%q, %q) = %t, want %t", v, lower, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { containsFold("Woody Allen", "woody allen") }); n != 0 {
		t.Errorf("%.0f allocations on an ASCII value", n)
	}
}
