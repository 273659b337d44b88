package schemagraph

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"precis/internal/storage"
)

// tinyGraph builds A -> B -> C with projections.
func tinyGraph(t *testing.T) *Graph {
	t.Helper()
	g := New()
	g.AddRelation("A")
	g.AddRelation("B")
	g.AddRelation("C")
	mustProj := func(rel, attr string, w float64) {
		if _, err := g.AddProjection(rel, attr, w); err != nil {
			t.Fatal(err)
		}
	}
	mustJoin := func(from, to, fc, tc string, w float64) {
		if _, err := g.AddJoin(from, to, fc, tc, w); err != nil {
			t.Fatal(err)
		}
	}
	mustProj("A", "name", 1.0)
	mustProj("A", "x", 0.8)
	mustProj("B", "name", 0.9)
	mustProj("C", "name", 0.7)
	mustJoin("A", "B", "bid", "bid", 0.9)
	mustJoin("B", "A", "bid", "bid", 0.5)
	mustJoin("B", "C", "cid", "cid", 0.6)
	return g
}

func TestAddRelationIdempotent(t *testing.T) {
	g := New()
	a := g.AddRelation("A")
	b := g.AddRelation("A")
	if a != b {
		t.Error("AddRelation created a duplicate node")
	}
	if got := g.Relations(); !reflect.DeepEqual(got, []string{"A"}) {
		t.Errorf("Relations = %v", got)
	}
}

func TestAddProjectionValidation(t *testing.T) {
	g := New()
	g.AddRelation("A")
	if _, err := g.AddProjection("NOPE", "x", 0.5); err == nil {
		t.Error("projection on missing relation accepted")
	}
	if _, err := g.AddProjection("A", "x", 1.5); err == nil {
		t.Error("weight > 1 accepted")
	}
	if _, err := g.AddProjection("A", "x", -0.1); err == nil {
		t.Error("weight < 0 accepted")
	}
	p, err := g.AddProjection("A", "x", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Key() != "A.x" {
		t.Errorf("Key = %q", p.Key())
	}
	// Re-adding updates the weight, no duplicate.
	if _, err := g.AddProjection("A", "x", 0.7); err != nil {
		t.Fatal(err)
	}
	if len(g.Relation("A").Projections()) != 1 {
		t.Error("duplicate projection edge")
	}
	if g.Relation("A").Projection("x").Weight != 0.7 {
		t.Error("weight not updated")
	}
}

func TestAddJoinValidation(t *testing.T) {
	g := New()
	g.AddRelation("A")
	g.AddRelation("B")
	if _, err := g.AddJoin("NOPE", "B", "x", "x", 0.5); err == nil {
		t.Error("join from missing relation accepted")
	}
	if _, err := g.AddJoin("A", "NOPE", "x", "x", 0.5); err == nil {
		t.Error("join to missing relation accepted")
	}
	if _, err := g.AddJoin("A", "B", "x", "x", 2); err == nil {
		t.Error("bad weight accepted")
	}
	e, err := g.AddJoin("A", "B", "x", "x", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Key(), "A->B") {
		t.Errorf("Key = %q", e.Key())
	}
	// Same ordered pair and columns: replaces weight.
	if _, err := g.AddJoin("A", "B", "x", "x", 0.9); err != nil {
		t.Fatal(err)
	}
	if len(g.Relation("A").Out()) != 1 || g.Relation("A").Out()[0].Weight != 0.9 {
		t.Errorf("out = %+v", g.Relation("A").Out())
	}
	// Opposite direction is a distinct edge (paper: two directions, two weights).
	if _, err := g.AddJoin("B", "A", "x", "x", 0.3); err != nil {
		t.Fatal(err)
	}
	if len(g.JoinEdges()) != 2 {
		t.Errorf("JoinEdges = %v", g.JoinEdges())
	}
}

func TestSetHeading(t *testing.T) {
	g := New()
	g.AddRelation("A")
	if err := g.SetHeading("A", "name"); err != nil {
		t.Fatal(err)
	}
	n := g.Relation("A")
	if n.Heading != "name" {
		t.Error("heading not set")
	}
	if p := n.Projection("name"); p == nil || p.Weight != 1.0 {
		t.Error("heading projection should exist with weight 1")
	}
	if err := g.SetHeading("NOPE", "x"); err == nil {
		t.Error("heading on missing relation accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := tinyGraph(t)
	c := g.Clone()
	if _, err := c.AddProjection("A", "name", 0.1); err != nil {
		t.Fatal(err)
	}
	if g.Relation("A").Projection("name").Weight != 1.0 {
		t.Error("clone mutation leaked into original")
	}
	for _, e := range c.Relation("A").Out() {
		e.Weight = 0.01
	}
	if g.Relation("A").Out()[0].Weight != 0.9 {
		t.Error("clone edge mutation leaked into original")
	}
	if c.NumProjections() != g.NumProjections()+0 {
		t.Errorf("clone projections = %d, want %d", c.NumProjections(), g.NumProjections())
	}
}

func TestApplyWeights(t *testing.T) {
	g := tinyGraph(t)
	err := g.ApplyWeights(map[string]float64{
		"A.x":           0.5,
		"A->B(bid=bid)": 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Relation("A").Projection("x").Weight != 0.5 {
		t.Error("projection overlay not applied")
	}
	if g.Relation("A").Out()[0].Weight != 0.4 {
		t.Error("join overlay not applied")
	}
	if err := g.ApplyWeights(map[string]float64{"A.nope": 0.5}); err == nil {
		t.Error("unknown overlay key accepted")
	}
	if err := g.ApplyWeights(map[string]float64{"A.x": 1.5}); err == nil {
		t.Error("bad overlay weight accepted")
	}
}

func TestFromDatabaseAndValidate(t *testing.T) {
	db := storage.NewDatabase("d")
	db.MustCreateRelation(storage.MustSchema("P", "pid",
		storage.Column{Name: "pid", Type: storage.TypeInt},
		storage.Column{Name: "name", Type: storage.TypeString}))
	db.MustCreateRelation(storage.MustSchema("Q", "qid",
		storage.Column{Name: "qid", Type: storage.TypeInt},
		storage.Column{Name: "pid", Type: storage.TypeInt}))
	if err := db.AddForeignKey(storage.ForeignKey{FromRelation: "Q", FromColumn: "pid", ToRelation: "P", ToColumn: "pid"}); err != nil {
		t.Fatal(err)
	}
	g := FromDatabase(db)
	if len(g.Relations()) != 2 {
		t.Fatalf("relations = %v", g.Relations())
	}
	if len(g.JoinEdges()) != 2 {
		t.Fatalf("join edges = %v (want both directions)", g.JoinEdges())
	}
	if g.Relation("P").Projection("name") == nil {
		t.Error("projection edges not created")
	}
	if err := g.Validate(db); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Break it: projection on a missing attribute.
	bad := g.Clone()
	bad.AddRelation("GHOST")
	if err := bad.Validate(db); err == nil {
		t.Error("missing relation accepted")
	}
}

func TestValidateJoinTypeMismatch(t *testing.T) {
	db := storage.NewDatabase("d")
	db.MustCreateRelation(storage.MustSchema("P", "",
		storage.Column{Name: "k", Type: storage.TypeInt}))
	db.MustCreateRelation(storage.MustSchema("Q", "",
		storage.Column{Name: "k", Type: storage.TypeString}))
	g := New()
	g.AddRelation("P")
	g.AddRelation("Q")
	if _, err := g.AddJoin("P", "Q", "k", "k", 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(db); err == nil {
		t.Error("type-mismatched join accepted")
	}
}

func TestPathBasics(t *testing.T) {
	g := tinyGraph(t)
	p := NewPath("A")
	if p.Weight() != 1 || p.End() != "A" || p.Len() != 0 {
		t.Errorf("empty path: %v %v %v", p.Weight(), p.End(), p.Len())
	}
	ab := g.Relation("A").Out()[0] // A->B 0.9
	p2 := p.ExtendJoin(ab)
	if p2 == nil || p2.End() != "B" || math.Abs(p2.Weight()-0.9) > 1e-12 {
		t.Fatalf("p2 = %+v", p2)
	}
	bc := g.Relation("B").Out()[1] // B->C 0.6
	p3 := p2.ExtendJoin(bc)
	if p3 == nil || p3.End() != "C" || math.Abs(p3.Weight()-0.54) > 1e-12 {
		t.Fatalf("p3 = %+v", p3)
	}
	proj := g.Relation("C").Projection("name")
	p4 := p3.ExtendProjection(proj)
	if p4 == nil || !p4.IsProjection() || math.Abs(p4.Weight()-0.378) > 1e-12 || p4.Len() != 3 {
		t.Fatalf("p4 = %+v w=%v", p4, p4.Weight())
	}
	if p4.String() != "A -> B -> C.name" {
		t.Errorf("String = %q", p4.String())
	}
	if !reflect.DeepEqual(p3.RelationSeq(), []string{"A", "B", "C"}) {
		t.Errorf("RelationSeq = %v", p3.RelationSeq())
	}
}

func TestPathAcyclic(t *testing.T) {
	g := tinyGraph(t)
	ab := g.Relation("A").Out()[0]
	ba := g.Relation("B").Out()[0] // B->A
	p := NewPath("A").ExtendJoin(ab)
	if p.ExtendJoin(ba) != nil {
		t.Error("cycle A->B->A accepted")
	}
}

func TestPathExtendMismatches(t *testing.T) {
	g := tinyGraph(t)
	bc := g.Relation("B").Out()[1]
	if NewPath("A").ExtendJoin(bc) != nil {
		t.Error("detached join accepted")
	}
	projC := g.Relation("C").Projection("name")
	if NewPath("A").ExtendProjection(projC) != nil {
		t.Error("detached projection accepted")
	}
	// Projection paths are terminal.
	pp := NewPath("A").ExtendProjection(g.Relation("A").Projection("name"))
	if pp.ExtendJoin(g.Relation("A").Out()[0]) != nil {
		t.Error("extension of projection path accepted")
	}
	if pp.ExtendProjection(g.Relation("A").Projection("x")) != nil {
		t.Error("double projection accepted")
	}
}

func TestPathLessOrdering(t *testing.T) {
	g := tinyGraph(t)
	heavy := NewPath("A").ExtendProjection(g.Relation("A").Projection("name")) // w=1, len 1
	light := NewPath("A").ExtendProjection(g.Relation("A").Projection("x"))    // w=0.8, len 1
	if !heavy.Less(light) || light.Less(heavy) {
		t.Error("weight ordering broken")
	}
	// Equal weight: shorter first. Build two paths of weight 0.9.
	short := NewPath("B").ExtendProjection(g.Relation("B").Projection("name")) // 0.9, len 1
	long := NewPath("A").ExtendJoin(g.Relation("A").Out()[0])                  // A->B, 0.9, len 1 join
	lp := long.ExtendProjection(&Projection{Relation: "B", Attribute: "name", Weight: 1.0})
	if lp == nil {
		t.Fatal("extension failed")
	}
	if !short.Less(lp) {
		t.Error("length tie-break broken")
	}
}

// TestPathWeightMonotone is the §3.2 property: extending a path never
// increases its weight (weights are in [0,1], transfer is multiplicative).
func TestPathWeightMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		g := New()
		n := 2 + r.Intn(5)
		names := make([]string, n)
		for i := range names {
			names[i] = string(rune('A' + i))
			g.AddRelation(names[i])
		}
		p := NewPath(names[0])
		for i := 1; i < n; i++ {
			w := r.Float64()
			e, err := g.AddJoin(names[i-1], names[i], "k", "k", w)
			if err != nil {
				t.Fatal(err)
			}
			before := p.Weight()
			p = p.ExtendJoin(e)
			if p.Weight() > before+1e-12 {
				t.Fatalf("weight increased: %v -> %v", before, p.Weight())
			}
		}
	}
}

func TestDOT(t *testing.T) {
	g := tinyGraph(t)
	if err := g.SetHeading("A", "name"); err != nil {
		t.Fatal(err)
	}
	dot := g.DOT("test")
	for _, want := range []string{
		"digraph \"test\"",
		"\"A\" -> \"B\"",
		"0.90",
		"name • 1.00",
		"rankdir=LR",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Deterministic output.
	if g.DOT("test") != dot {
		t.Error("DOT not deterministic")
	}
}

func TestEscapeDOT(t *testing.T) {
	in := `a"b{c}d|e<f>g`
	out := escapeDOT(in)
	for _, bad := range []string{`"`, "{", "}", "|", "<", ">"} {
		if strings.Contains(strings.ReplaceAll(out, `\`+bad, ""), bad) {
			t.Errorf("unescaped %q in %q", bad, out)
		}
	}
}

// memoGraph is a two-relation graph with one join and its projections.
func memoGraph(t *testing.T) *Graph {
	t.Helper()
	g := New()
	g.AddRelation("A")
	g.AddRelation("B")
	for _, rel := range []string{"A", "B"} {
		if _, err := g.AddProjection(rel, "id", 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.AddJoin("A", "B", "id", "id", 0.5); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestMemoOnlyWhenFrozen: an unfrozen graph and a Clone keep nothing and
// count nothing; a frozen one returns what was stored first; every mutating
// method drops both the memo and the frozen state.
func TestMemoOnlyWhenFrozen(t *testing.T) {
	type key struct{ k string }
	g := memoGraph(t)
	if got := g.Memoise(key{"x"}, 1); got != 1 {
		t.Fatalf("Memoise on an unfrozen graph returned %v", got)
	}
	if _, ok := g.Memo(key{"x"}); ok || g.Frozen() {
		t.Fatal("an unfrozen graph memoised")
	}
	if h, m, n := g.MemoStats(); h != 0 || m != 0 || n != 0 {
		t.Fatalf("unfrozen graph counts %d/%d/%d", h, m, n)
	}

	mutators := map[string]func(*Graph) error{
		"AddRelation":   func(g *Graph) error { g.AddRelation("C"); return nil },
		"AddProjection": func(g *Graph) error { _, err := g.AddProjection("A", "name", 0.5); return err },
		"AddJoin":       func(g *Graph) error { _, err := g.AddJoin("A", "B", "id", "id", 0.9); return err },
		"SetHeading":    func(g *Graph) error { return g.SetHeading("A", "id") },
		"ApplyWeights":  func(g *Graph) error { return g.ApplyWeights(map[string]float64{"A.id": 0.3}) },
	}
	for name, mutate := range mutators {
		g := memoGraph(t)
		g.Freeze()
		g.Freeze() // idempotent: the memo survives
		if _, ok := g.Memo(key{"x"}); ok {
			t.Fatalf("%s: fresh memo holds a value", name)
		}
		if got := g.Memoise(key{"x"}, 1); got != 1 {
			t.Fatalf("%s: Memoise returned %v", name, got)
		}
		if got := g.Memoise(key{"x"}, 2); got != 1 {
			t.Fatalf("%s: a second Memoise under the key returned %v, want the first value", name, got)
		}
		if v, ok := g.Memo(key{"x"}); !ok || v != 1 {
			t.Fatalf("%s: Memo = %v, %v", name, v, ok)
		}
		if h, m, n := g.MemoStats(); h != 1 || m != 1 || n != 1 {
			t.Fatalf("%s: stats %d hits, %d misses, %d entries; want 1, 1, 1", name, h, m, n)
		}
		if c := g.Clone(); c.Frozen() {
			t.Fatalf("%s: a Clone is frozen", name)
		}
		if err := mutate(g); err != nil {
			t.Fatal(err)
		}
		if _, ok := g.Memo(key{"x"}); ok || g.Frozen() {
			t.Fatalf("%s on a frozen graph kept the memo", name)
		}
	}
	// AddRelation of a relation the graph has is not a mutation.
	g = memoGraph(t)
	g.Freeze()
	g.AddRelation("A")
	if !g.Frozen() {
		t.Fatal("AddRelation of an existing relation thawed the graph")
	}
}

// TestMemoIsBounded: the memo never holds more than memoCap values, however
// many keys it is given.
func TestMemoIsBounded(t *testing.T) {
	g := memoGraph(t)
	g.Freeze()
	for i := 0; i < 1000; i++ {
		g.Memoise(i, i)
		if _, _, n := g.MemoStats(); n > memoCap || n < 1 {
			t.Fatalf("after %d keys the memo holds %d values, cap %d", i+1, n, memoCap)
		}
	}
	if v, ok := g.Memo(999); !ok || v != 999 {
		t.Fatalf("the last key stored is gone: %v, %v", v, ok)
	}
}
