package core

import (
	"math"
	"strings"
	"testing"

	"precis/internal/schemagraph"
)

// projPath builds a projection path of the given weight for constraint tests.
func projPath(rel, attr string, w float64) *schemagraph.Path {
	g := schemagraph.New()
	g.AddRelation(rel)
	pr, err := g.AddProjection(rel, attr, w)
	if err != nil {
		panic(err)
	}
	return schemagraph.NewPath(rel).ExtendProjection(pr)
}

// joinPath builds a join path of n hops, each of weight w.
func joinPath(n int, w float64) *schemagraph.Path {
	g := schemagraph.New()
	names := make([]string, n+1)
	for i := range names {
		names[i] = string(rune('A' + i))
		g.AddRelation(names[i])
	}
	p := schemagraph.NewPath(names[0])
	for i := 0; i < n; i++ {
		e, err := g.AddJoin(names[i], names[i+1], "k", "k", w)
		if err != nil {
			panic(err)
		}
		p = p.ExtendJoin(e)
	}
	return p
}

func TestTopProjections(t *testing.T) {
	c := TopProjections(2)
	var sel []*schemagraph.Path
	p1 := projPath("A", "x", 1.0)
	if !c.Accept(sel, p1) {
		t.Error("first projection rejected")
	}
	sel = append(sel, p1)
	p2 := projPath("A", "y", 0.9)
	if !c.Accept(sel, p2) {
		t.Error("second projection rejected")
	}
	sel = append(sel, p2)
	if c.Accept(sel, projPath("A", "z", 0.8)) {
		t.Error("third projection accepted with r=2")
	}
	// Join paths need room for at least one more projection.
	if c.Accept(sel, joinPath(1, 1.0)) {
		t.Error("join path accepted when no projection slot remains")
	}
	if !c.Accept(sel[:1], joinPath(1, 1.0)) {
		t.Error("join path rejected although a slot remains")
	}
}

func TestMaxAttributes(t *testing.T) {
	c := MaxAttributes(2)
	sel := []*schemagraph.Path{projPath("A", "x", 1.0)}
	// Same attribute again (from another seed) does not consume a new slot.
	if !c.Accept(sel, projPath("A", "x", 0.9)) {
		t.Error("duplicate attribute counted twice")
	}
	if !c.Accept(sel, projPath("A", "y", 0.9)) {
		t.Error("second attribute rejected")
	}
	sel = append(sel, projPath("A", "y", 0.9))
	if c.Accept(sel, projPath("B", "z", 0.8)) {
		t.Error("third attribute accepted with n=2")
	}
	// At capacity the schema is complete: a path that would only repeat an
	// attribute is not taken either (it could still add relations and joins).
	if c.Accept(sel, projPath("A", "y", 0.5)) || c.Accept(sel, joinPath(1, 1.0)) {
		t.Error("a path accepted at capacity")
	}
}

func TestMinPathWeight(t *testing.T) {
	c := MinPathWeight(0.9)
	if !c.Accept(nil, projPath("A", "x", 0.9)) {
		t.Error("boundary weight rejected")
	}
	if c.Accept(nil, projPath("A", "x", 0.899)) {
		t.Error("sub-threshold weight accepted")
	}
	if !c.Accept(nil, joinPath(2, 0.95)) {
		t.Error("heavy join path rejected")
	}
	if c.Accept(nil, joinPath(2, 0.5)) {
		t.Error("light join path accepted")
	}
}

func TestMaxPathLength(t *testing.T) {
	c := MaxPathLength(2)
	if !c.Accept(nil, projPath("A", "x", 1.0)) { // length 1
		t.Error("length-1 projection rejected")
	}
	long := joinPath(2, 1.0) // join length 2; a projection would make 3
	if c.Accept(nil, long) {
		t.Error("join path with no room for projection accepted")
	}
	ok := joinPath(1, 1.0)
	if !c.Accept(nil, ok) {
		t.Error("join path with room rejected")
	}
}

func TestAllDegree(t *testing.T) {
	c := AllDegree(MinPathWeight(0.5), TopProjections(1))
	if !c.Accept(nil, projPath("A", "x", 0.9)) {
		t.Error("conjunction rejected valid candidate")
	}
	sel := []*schemagraph.Path{projPath("A", "x", 0.9)}
	if c.Accept(sel, projPath("A", "y", 0.9)) {
		t.Error("conjunction ignored TopProjections")
	}
	if c.Accept(nil, projPath("A", "x", 0.4)) {
		t.Error("conjunction ignored MinPathWeight")
	}
	if !strings.Contains(c.String(), "and") {
		t.Errorf("String = %q", c.String())
	}
}

func TestCardinalityBudgets(t *testing.T) {
	per := MaxTuplesPerRelation(5)
	counts := map[string]int{"R": 3}
	if b := per.Budget("R", counts, 100); b != 2 {
		t.Errorf("per-relation budget = %d", b)
	}
	if b := per.Budget("S", counts, 100); b != 5 {
		t.Errorf("fresh relation budget = %d", b)
	}
	counts["R"] = 9
	if b := per.Budget("R", counts, 100); b != 0 {
		t.Errorf("over-full budget = %d", b)
	}

	tot := MaxTotalTuples(10)
	if b := tot.Budget("R", counts, 7); b != 3 {
		t.Errorf("total budget = %d", b)
	}
	if b := tot.Budget("R", counts, 12); b != 0 {
		t.Errorf("exceeded total budget = %d", b)
	}

	if b := Unlimited().Budget("R", counts, 1<<40); b != math.MaxInt {
		t.Errorf("unlimited budget = %d", b)
	}

	both := AllCardinality(MaxTuplesPerRelation(5), MaxTotalTuples(6))
	counts = map[string]int{"R": 2}
	if b := both.Budget("R", counts, 4); b != 2 {
		t.Errorf("combined budget = %d (min of 3 and 2)", b)
	}
	if got := both.String(); !strings.Contains(got, "and") {
		t.Errorf("String = %q", got)
	}
}

func TestConstraintStrings(t *testing.T) {
	for _, s := range []string{
		TopProjections(3).String(),
		MaxAttributes(4).String(),
		MinPathWeight(0.9).String(),
		MaxPathLength(2).String(),
		MaxTuplesPerRelation(3).String(),
		MaxTotalTuples(9).String(),
		Unlimited().String(),
	} {
		if s == "" {
			t.Error("empty constraint string")
		}
	}
}
