package core

import (
	"strings"
	"testing"

	"precis/internal/dataset"
	"precis/internal/schemagraph"
	"precis/internal/sqlx"
	"precis/internal/storage"
)

// countingDegree counts the calls a constraint receives: on a memo hit it
// must receive none (MaxAttributes carries per-run state).
type countingDegree struct {
	DegreeConstraint
	calls *int
}

func (c countingDegree) Accept(selected []*schemagraph.Path, p *schemagraph.Path) bool {
	*c.calls++
	return c.DegreeConstraint.Accept(selected, p)
}

// TestGenerateSchemaMemoisesOnFrozenGraph: a frozen graph hands out one G′
// per (seeds, constraint, options), annotated and frozen, without consulting
// the constraint again; an unfrozen graph is traversed on every call and its
// G′ arrives unannotated, as it always did.
func TestGenerateSchemaMemoisesOnFrozenGraph(t *testing.T) {
	seeds := []string{"DIRECTOR", "ACTOR"}
	g := paperGraph(t)
	a, err := GenerateSchema(g, seeds, MaxAttributes(6))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSchema(g, seeds, MaxAttributes(6))
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a.Graph.Frozen() {
		t.Fatal("an unfrozen graph memoised its G′")
	}
	if a.Graph.Relation("MOVIE").Heading != "" {
		t.Fatal("an unfrozen graph's G′ arrived annotated")
	}

	g.Freeze()
	calls := 0
	d := countingDegree{MaxAttributes(6), &calls}
	first, err := GenerateSchema(g, seeds, d)
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("the first generation never asked the constraint")
	}
	if !first.Graph.Frozen() || first.Graph.Relation("MOVIE").Heading != "title" {
		t.Fatal("a memoised G′ must be annotated and frozen")
	}
	calls = 0
	again, err := GenerateSchema(g, seeds, d)
	if err != nil {
		t.Fatal(err)
	}
	if again != first || calls != 0 {
		t.Fatalf("second call: same G′ %t, %d constraint calls; want the memoised G′ and none", again == first, calls)
	}
	first.CopyAnnotations(g) // a no-op: the shared G′ stays frozen
	if !first.Graph.Frozen() {
		t.Fatal("CopyAnnotations wrote a memoised G′")
	}
	for name, other := range map[string]func() (*ResultSchema, error){
		"seed order": func() (*ResultSchema, error) { return GenerateSchema(g, []string{"ACTOR", "DIRECTOR"}, d) },
		"seeds":      func() (*ResultSchema, error) { return GenerateSchema(g, seeds[:1], d) },
		"constraint": func() (*ResultSchema, error) { return GenerateSchema(g, seeds, MaxAttributes(7)) },
		"options": func() (*ResultSchema, error) {
			return GenerateSchemaOpts(g, seeds, d, SchemaGeneratorOptions{DisablePruning: true})
		},
		"other graph": func() (*ResultSchema, error) { c := g.Clone(); c.Freeze(); return GenerateSchema(c, seeds, d) },
	} {
		rs, err := other()
		if err != nil {
			t.Fatal(err)
		}
		if rs == first {
			t.Errorf("a different %s found the same G′", name)
		}
	}
	// An error is not kept, and keeps nothing.
	if _, err := GenerateSchema(g, []string{"NOPE"}, d); err == nil {
		t.Fatal("unknown seed relation accepted")
	}

	// A mutating method thaws the graph: the next G′ is generated from the
	// graph as it now is.
	if _, err := g.AddJoin("DIRECTOR", "MOVIE", "did", "did", 0); err != nil {
		t.Fatal(err)
	}
	after, err := GenerateSchema(g, seeds, d)
	if err != nil {
		t.Fatal(err)
	}
	if after == first || g.Frozen() {
		t.Fatal("a mutated graph served its old G′")
	}
	has := func(rs *ResultSchema, from, to string) bool {
		for _, e := range rs.Graph.JoinEdges() {
			if e.From == from && e.To == to {
				return true
			}
		}
		return false
	}
	if !has(first, "DIRECTOR", "MOVIE") || has(after, "DIRECTOR", "MOVIE") {
		t.Fatal("the regenerated G′ does not reflect the new weight")
	}
}

// TestGenerateSchemaHitAllocations: what a hit costs is its key — the seed
// list joined, the constraint rendered.
func TestGenerateSchemaHitAllocations(t *testing.T) {
	g := paperGraph(t)
	g.Freeze()
	for _, seeds := range [][]string{{"DIRECTOR"}, {"DIRECTOR", "ACTOR"}} {
		d := MinPathWeight(0.8)
		if _, err := GenerateSchema(g, seeds, d); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := GenerateSchema(g, seeds, d); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d seed relations: %.0f allocations per hit", len(seeds), allocs)
		if allocs > 4 {
			t.Errorf("%d seed relations: %.0f allocations per hit, bound 4", len(seeds), allocs)
		}
	}
}

// TestLayoutFollowsTheCatalog: D′'s layout is kept per catalog of the
// original, so a relation or a foreign key added to the original after a
// first answer is in the next one, on the same memoised G′.
func TestLayoutFollowsTheCatalog(t *testing.T) {
	full, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	// db is the example without GENRE and without its foreign keys.
	db := storage.NewDatabase("movies")
	for _, name := range full.RelationNames() {
		if name == "GENRE" {
			continue
		}
		if _, err := db.CreateRelation(full.Relation(name).Schema()); err != nil {
			t.Fatal(err)
		}
		full.Relation(name).Scan(func(tu storage.Tuple) bool {
			if err := db.InsertWithID(name, tu.ID, tu.Values...); err != nil {
				t.Fatal(err)
			}
			return true
		})
	}
	var seedIDs []storage.TupleID
	db.Relation("DIRECTOR").Scan(func(tu storage.Tuple) bool {
		seedIDs = append(seedIDs, tu.ID)
		return true
	})
	seeds := map[string][]storage.TupleID{"DIRECTOR": seedIDs}
	generate := func() (*ResultDatabase, error) {
		rs, err := GenerateSchema(g, []string{"DIRECTOR"}, MinPathWeight(0.5))
		if err != nil {
			t.Fatal(err)
		}
		return GenerateDatabase(sqlx.NewEngine(db), rs, seeds, MaxTuplesPerRelation(5), StrategyAuto)
	}
	if _, err := generate(); err == nil || !strings.Contains(err.Error(), "GENRE") {
		t.Fatalf("G′ names GENRE, which the database lacks: got %v", err)
	}
	if _, err := db.CreateRelation(full.Relation("GENRE").Schema()); err != nil {
		t.Fatal(err)
	}
	full.Relation("GENRE").Scan(func(tu storage.Tuple) bool {
		if err := db.InsertWithID("GENRE", tu.ID, tu.Values...); err != nil {
			t.Fatal(err)
		}
		return true
	})
	rd, err := generate()
	if err != nil {
		t.Fatal(err)
	}
	if rel := rd.DB.Relation("GENRE"); rel == nil || rel.Len() == 0 {
		t.Fatal("the relation added to the original is missing from the next D′")
	}
	if n := len(rd.DB.ForeignKeys()); n != 0 {
		t.Fatalf("D′ has %d foreign keys, the original none", n)
	}
	fk := storage.ForeignKey{FromRelation: "MOVIE", FromColumn: "did", ToRelation: "DIRECTOR", ToColumn: "did"}
	if err := db.AddForeignKey(fk); err != nil {
		t.Fatal(err)
	}
	rd2, err := generate()
	if err != nil {
		t.Fatal(err)
	}
	if rd2.Schema != rd.Schema {
		t.Fatal("the catalog change regenerated G′: it depends on the graph alone")
	}
	if fks := rd2.DB.ForeignKeys(); len(fks) != 1 || fks[0] != fk {
		t.Fatalf("the foreign key added to the original is missing from the next D′: %v", fks)
	}
	// The same catalog again: the same layout, found.
	lay, err := rd2.Schema.layout(db)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := rd2.Schema.layout(db); again != lay {
		t.Fatal("one catalog, two layouts")
	}
}
