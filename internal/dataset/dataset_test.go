package dataset

import (
	"math"
	"reflect"
	"testing"
	"unicode/utf8"

	"precis/internal/invidx"
	"precis/internal/storage"
)

func TestExampleMoviesIntegrity(t *testing.T) {
	db, g, err := ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	if v := storage.CheckIntegrity(db); len(v) != 0 {
		t.Errorf("violations: %v", v)
	}
	if err := g.Validate(db); err != nil {
		t.Errorf("graph: %v", err)
	}
	st := db.Stats()
	if st.Relations != 7 {
		t.Errorf("relations = %d", st.Relations)
	}
	for _, rel := range []string{"THEATRE", "PLAY", "MOVIE", "GENRE", "CAST", "ACTOR", "DIRECTOR"} {
		if st.PerRel[rel] == 0 {
			t.Errorf("relation %s is empty", rel)
		}
	}
}

func TestExampleMoviesWoodyAllenOccurrences(t *testing.T) {
	db, _, err := ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	ix := invidx.New(db)
	occs := ix.Lookup("Woody Allen")
	rels := invidx.Relations(occs)
	if !reflect.DeepEqual(rels, []string{"ACTOR", "DIRECTOR"}) {
		t.Errorf("Woody Allen found in %v, want [ACTOR DIRECTOR]", rels)
	}
}

func TestPaperGraphWorkedExamples(t *testing.T) {
	db, g, err := ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	_ = db
	// §3.2: weight of PHONE over THEATRE is 0.8.
	if w := g.Relation("THEATRE").Projection("phone").Weight; w != 0.8 {
		t.Errorf("THEATRE.phone = %v", w)
	}
	// §3.2: weight of PHONE with respect to MOVIE = 0.7 * 1 * 0.8 = 0.56.
	var movieToPlay, playToTheatre float64
	for _, e := range g.Relation("MOVIE").Out() {
		if e.To == "PLAY" {
			movieToPlay = e.Weight
		}
	}
	for _, e := range g.Relation("PLAY").Out() {
		if e.To == "THEATRE" {
			playToTheatre = e.Weight
		}
	}
	if got := movieToPlay * playToTheatre * 0.8; math.Abs(got-0.56) > 1e-9 {
		t.Errorf("transitive phone weight = %v, want 0.56", got)
	}
	// §3.1: GENRE->MOVIE = 1.0, MOVIE->GENRE = 0.9.
	for _, e := range g.Relation("GENRE").Out() {
		if e.To == "MOVIE" && e.Weight != 1.0 {
			t.Errorf("GENRE->MOVIE = %v", e.Weight)
		}
	}
	for _, e := range g.Relation("MOVIE").Out() {
		if e.To == "GENRE" && e.Weight != 0.9 {
			t.Errorf("MOVIE->GENRE = %v", e.Weight)
		}
	}
	// Heading attributes exist where the paper needs them.
	for rel, attr := range map[string]string{"MOVIE": "title", "DIRECTOR": "dname", "ACTOR": "aname"} {
		if g.Relation(rel).Heading != attr {
			t.Errorf("heading of %s = %q, want %q", rel, g.Relation(rel).Heading, attr)
		}
	}
}

func TestSyntheticMoviesDeterministic(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.Films = 100
	cfg.Directors = 20
	cfg.Actors = 100
	cfg.Theatres = 5
	a, err := SyntheticMovies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SyntheticMovies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("same seed, different databases:\n%s\n%s", a, b)
	}
	cfg.Seed = 2
	c, err := SyntheticMovies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same sizes for fixed counts but content should differ.
	aT := a.Relation("MOVIE").Tuples()
	cT := c.Relation("MOVIE").Tuples()
	same := true
	for i := range aT {
		if aT[i].Values[1] != cT[i].Values[1] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical titles")
	}
}

func TestSyntheticMoviesIntegrity(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.Films = 200
	cfg.Directors = 30
	cfg.Actors = 150
	cfg.Theatres = 8
	db, err := SyntheticMovies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v := storage.CheckIntegrity(db); len(v) != 0 {
		t.Fatalf("violations: %v (first of %d)", v[0], len(v))
	}
	if db.Relation("MOVIE").Len() != 200 {
		t.Errorf("films = %d", db.Relation("MOVIE").Len())
	}
	// Graph over the synthetic database validates too.
	g, err := PaperGraph(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(db); err != nil {
		t.Error(err)
	}
	// Join indexes were created.
	if !db.Relation("CAST").HasIndex("aid") || !db.Relation("MOVIE").HasIndex("did") {
		t.Error("join indexes missing")
	}
}

func TestSyntheticConfigValidation(t *testing.T) {
	if _, err := SyntheticMovies(SyntheticConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestChainShape(t *testing.T) {
	cfg := ChainConfig{Relations: 4, RowsPerRel: 50, Fanout: 3, Seed: 9, UniformRows: true}
	db, g, err := Chain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumRelations() != 4 {
		t.Fatalf("relations = %d", db.NumRelations())
	}
	for _, rel := range db.RelationNames() {
		if db.Relation(rel).Len() != 50 {
			t.Errorf("%s has %d rows, want 50", rel, db.Relation(rel).Len())
		}
	}
	if v := storage.CheckIntegrity(db); len(v) != 0 {
		t.Errorf("violations: %v", v)
	}
	if err := g.Validate(db); err != nil {
		t.Error(err)
	}
	// Both directions of every FK are join edges.
	if len(g.JoinEdges()) != 6 {
		t.Errorf("join edges = %d, want 6", len(g.JoinEdges()))
	}
	// Every relation's tokens are searchable.
	ix := invidx.New(db)
	for _, rel := range db.RelationNames() {
		if occs := ix.Lookup("tok" + rel); len(occs) == 0 {
			t.Errorf("no occurrences for tok%s", rel)
		}
	}
}

func TestChainNonUniformFanout(t *testing.T) {
	cfg := ChainConfig{Relations: 3, RowsPerRel: 10, Fanout: 2, Seed: 1, UniformRows: false}
	db, _, err := Chain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if db.Relation("R1").Len() != 20 || db.Relation("R2").Len() != 40 {
		t.Errorf("sizes: R1=%d R2=%d", db.Relation("R1").Len(), db.Relation("R2").Len())
	}
	// Deterministic parenting: each parent has exactly Fanout children.
	r1 := db.Relation("R1")
	counts := map[int64]int{}
	r1.Scan(func(tu storage.Tuple) bool {
		counts[tu.Values[2].AsInt()]++
		return true
	})
	for p, n := range counts {
		if n != 2 {
			t.Errorf("parent %d has %d children", p, n)
		}
	}
}

func TestChainValidation(t *testing.T) {
	if _, _, err := Chain(ChainConfig{Relations: 0, RowsPerRel: 1, Fanout: 1}); err == nil {
		t.Error("zero relations accepted")
	}
	if _, _, err := Chain(ChainConfig{Relations: 1, RowsPerRel: 0, Fanout: 1}); err == nil {
		t.Error("zero rows accepted")
	}
}

func TestRandomWeights(t *testing.T) {
	_, g, err := Chain(ChainConfig{Relations: 3, RowsPerRel: 5, Fanout: 1, Seed: 1, UniformRows: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := RandomWeights(g, 0.3, 0.9, 7); err != nil {
		t.Fatal(err)
	}
	for _, rel := range g.Relations() {
		n := g.Relation(rel)
		for _, p := range n.Projections() {
			if p.Attribute == n.Heading {
				if p.Weight != 1 {
					t.Errorf("heading %s reweighted to %v", p.Key(), p.Weight)
				}
				continue
			}
			if p.Weight == 0 {
				continue // plumbing
			}
			if p.Weight < 0.3 || p.Weight > 0.9 {
				t.Errorf("%s weight %v outside range", p.Key(), p.Weight)
			}
		}
		for _, e := range n.Out() {
			if e.Weight < 0.3 || e.Weight > 0.9 {
				t.Errorf("%s weight %v outside range", e.Key(), e.Weight)
			}
		}
	}
	if err := RandomWeights(g, -1, 0.5, 1); err == nil {
		t.Error("bad range accepted")
	}
	// Determinism.
	_, g2, _ := Chain(ChainConfig{Relations: 3, RowsPerRel: 5, Fanout: 1, Seed: 1, UniformRows: true})
	if err := RandomWeights(g2, 0.3, 0.9, 7); err != nil {
		t.Fatal(err)
	}
	for _, rel := range g.Relations() {
		a := g.Relation(rel).Out()
		b := g2.Relation(rel).Out()
		for i := range a {
			if a[i].Weight != b[i].Weight {
				t.Fatal("RandomWeights not deterministic")
			}
		}
	}
}

func TestStarShape(t *testing.T) {
	db, g, err := Star(StarConfig{Satellites: 5, RowsPerRel: 20, Fanout: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if db.NumRelations() != 6 {
		t.Fatalf("relations = %d", db.NumRelations())
	}
	if len(g.Relation("HUB").Out()) != 5 {
		t.Errorf("hub out-edges = %d", len(g.Relation("HUB").Out()))
	}
	if v := storage.CheckIntegrity(db); len(v) != 0 {
		t.Errorf("violations: %v", v)
	}
	if err := g.Validate(db); err != nil {
		t.Error(err)
	}
	if _, _, err := Star(StarConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestRandomGraph(t *testing.T) {
	g, err := RandomGraph(GraphConfig{Relations: 10, AttrsPerRel: 6, ExtraJoins: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Relations()) != 10 {
		t.Errorf("relations = %d", len(g.Relations()))
	}
	if g.NumProjections() != 60 {
		t.Errorf("projections = %d", g.NumProjections())
	}
	// Connectivity: the spanning chain guarantees at least 18 join edges.
	if len(g.JoinEdges()) < 18 {
		t.Errorf("join edges = %d", len(g.JoinEdges()))
	}
	// Determinism.
	g2, err := RandomGraph(GraphConfig{Relations: 10, AttrsPerRel: 6, ExtraJoins: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if g.Relation("T3").Projection("a2").Weight != g2.Relation("T3").Projection("a2").Weight {
		t.Error("RandomGraph not deterministic")
	}
	if _, err := RandomGraph(GraphConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

// TestKindsHoldsEveryKind: the mixed-kind dataset has what it is for — Ints
// and Floats (NaN and ±Inf among them) in its FLOAT columns, both BOOLs, NULLs
// in every non-key column including the join columns, empty, multi-byte and
// invalid UTF-8 text — and is a valid database whose tokens are indexed.
func TestKindsHoldsEveryKind(t *testing.T) {
	db, g, err := Kinds(1)
	if err != nil {
		t.Fatal(err)
	}
	if v := storage.CheckIntegrity(db); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	if err := g.Validate(db); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, name := range db.RelationNames() {
		rel := db.Relation(name)
		rel.Scan(func(tu storage.Tuple) bool {
			for i, c := range rel.Schema().Columns {
				v := tu.Values[i]
				switch {
				case v.IsNull():
					seen[c.Name+" null"] = true
				case c.Type == storage.TypeFloat && v.Kind() == storage.KindInt:
					seen["float int"] = true
				case c.Type == storage.TypeFloat && math.IsNaN(v.AsFloat()):
					seen["float nan"] = true
				case c.Type == storage.TypeFloat && math.IsInf(v.AsFloat(), 0):
					seen["float inf"] = true
				case c.Type == storage.TypeFloat:
					seen["float"] = true
				case c.Type == storage.TypeBool:
					seen[v.String()] = true
				case c.Type == storage.TypeString && v.AsString() == "":
					seen["empty"] = true
				case c.Type == storage.TypeString && !utf8.ValidString(v.AsString()):
					seen["invalid utf-8"] = true
				case c.Type == storage.TypeString && len(v.AsString()) != utf8.RuneCountInString(v.AsString()):
					seen["multi-byte"] = true
				}
			}
			return true
		})
	}
	for _, want := range []string{"float int", "float nan", "float inf", "float", "true", "false", "empty", "invalid utf-8", "multi-byte",
		"lat null", "open null", "place null", "price null", "flag null", "item null", "text null"} {
		if !seen[want] {
			t.Errorf("no %s value", want)
		}
	}
	ix := invidx.New(db)
	for _, term := range []string{"tokPLACE", "tokITEM", "tokNOTE", "café"} {
		if len(ix.Lookup(term)) == 0 {
			t.Errorf("%q matches nothing", term)
		}
	}
}
