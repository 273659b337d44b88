package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"precis/internal/dataset"
	"precis/internal/schemagraph"
	"precis/internal/spec"
)

// specGraph restates a schema graph in the spec's plain form.
func specGraph(g *schemagraph.Graph) spec.Graph {
	var sg spec.Graph
	for _, name := range g.Relations() {
		sg.Relations = append(sg.Relations, name)
		for _, p := range g.Relation(name).Projections() {
			sg.Projections = append(sg.Projections, spec.Projection{Rel: p.Relation, Attr: p.Attribute, Weight: p.Weight})
		}
		for _, e := range g.Relation(name).Out() {
			sg.Joins = append(sg.Joins, spec.Join{From: e.From, To: e.To, FromCol: e.FromCol, ToCol: e.ToCol, Weight: e.Weight})
		}
	}
	return sg
}

// degreeOf builds the engine's constraint for the spec's: one DegreeConstraint
// per set bound, under AllDegree in the given rotation when there are several.
func degreeOf(d spec.Degree, rotate int) DegreeConstraint {
	var cs []DegreeConstraint
	if d.TopR >= 0 {
		cs = append(cs, TopProjections(d.TopR))
	}
	if d.MinWeight > 0 {
		cs = append(cs, MinPathWeight(d.MinWeight))
	}
	if d.MaxLen >= 0 {
		cs = append(cs, MaxPathLength(d.MaxLen))
	}
	if d.MaxAttrs >= 0 {
		cs = append(cs, MaxAttributes(d.MaxAttrs))
	}
	switch len(cs) {
	case 0:
		return MinPathWeight(0)
	case 1:
		return cs[0]
	}
	rotate %= len(cs)
	return AllDegree(append(cs[rotate:len(cs):len(cs)], cs[:rotate]...)...)
}

// specSchema restates a result schema in the spec's form.
func specSchema(rs *ResultSchema) spec.Schema {
	s := spec.Schema{Projections: map[string][]string{}, SeedInDegree: map[string]int{}, JoinInDegree: map[string]int{}}
	for _, p := range rs.Paths {
		s.Paths = append(s.Paths, p.String())
	}
	s.Relations = rs.Relations()
	slices.Sort(s.Relations)
	for _, rel := range s.Relations {
		if attrs := slices.Clone(rs.Projections(rel)); len(attrs) > 0 {
			slices.Sort(attrs)
			s.Projections[rel] = attrs
		}
		s.SeedInDegree[rel] = rs.SeedInDegree(rel)
		if n := rs.JoinInDegree(rel); n > 0 {
			s.JoinInDegree[rel] = n
		}
	}
	for _, e := range rs.Graph.JoinEdges() {
		s.Joins = append(s.Joins, e.Key())
	}
	slices.Sort(s.Joins)
	return s
}

// TestSchemaMatchesSpec holds GenerateSchema to internal/spec — every acyclic
// path enumerated, sorted, cut where the constraint says — over random schema
// graphs, weightings (drawn, and constant so that whole families of paths
// tie), seed sets and degree constraints: the accepted paths in order, the
// relations, projections and join edges of G′, and both in-degrees. Each case
// runs three ways: the cold traversal of an unfrozen graph, the first call on
// a frozen one, and the memo hit that every later query gets.
func TestSchemaMatchesSpec(t *testing.T) {
	degrees := []spec.Degree{spec.Unbounded}
	with := func(set func(*spec.Degree)) {
		d := spec.Unbounded
		set(&d)
		degrees = append(degrees, d)
	}
	for _, r := range []int{0, 1, 4, 9, 40} {
		with(func(d *spec.Degree) { d.TopR = r })
		with(func(d *spec.Degree) { d.MaxAttrs = r })
		with(func(d *spec.Degree) { d.TopR, d.MaxLen = r, 2 })
		with(func(d *spec.Degree) { d.MaxAttrs, d.MinWeight = r, 0.3 })
	}
	for _, w := range []float64{1, 0.9, 0.81, 0.5, 0.2, 0.05} {
		with(func(d *spec.Degree) { d.MinWeight = w })
		with(func(d *spec.Degree) { d.MinWeight, d.MaxLen = w, 3 })
		with(func(d *spec.Degree) { d.MinWeight, d.TopR, d.MaxAttrs = w, 12, 5 })
	}
	for _, l := range []int{0, 1, 2, 3, 4} {
		with(func(d *spec.Degree) { d.MaxLen = l })
		with(func(d *spec.Degree) { d.MaxLen, d.MaxAttrs, d.TopR, d.MinWeight = l, 6, 8, 0.1 })
	}
	cases := 0
	for seed := int64(1); seed <= 12; seed++ {
		cfg := dataset.GraphConfig{Relations: 2 + int(seed%5), AttrsPerRel: 1 + int(seed%3), ExtraJoins: int(seed % 4), Seed: seed}
		base, err := dataset.RandomGraph(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rels := base.Relations()
		seedSets := [][]string{{rels[0]}, {rels[len(rels)-1]}, {rels[len(rels)-1], rels[0]}}
		if len(rels) > 3 {
			seedSets = append(seedSets, []string{rels[1], rels[3], rels[2]})
		}
		for wi, weights := range [][2]float64{{0, 0}, {0.3, 1}, {1, 1}, {0.9, 0.9}, {0.5, 0.5}} {
			g := base.Clone()
			if wi > 0 {
				if err := dataset.RandomWeights(g, weights[0], weights[1], seed); err != nil {
					t.Fatal(err)
				}
			}
			sg := specGraph(g)
			frozen := g.Clone()
			frozen.Freeze()
			for _, seeds := range seedSets {
				for di, d := range degrees {
					cases++
					name := fmt.Sprintf("graph %+v weights %v seeds %v degree %+v", cfg, weights, seeds, d)
					want := spec.ResultSchema(sg, seeds, d)
					cold, err := GenerateSchema(g, seeds, degreeOf(d, di))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got := specSchema(cold); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: cold traversal\n got %+v\nwant %+v", name, got, want)
					}
					miss, err := GenerateSchema(frozen, seeds, degreeOf(d, di))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					hit, err := GenerateSchema(frozen, seeds, degreeOf(d, di))
					if err != nil || hit != miss {
						t.Fatalf("%s: second call on the frozen graph: %v, same schema %t", name, err, hit == miss)
					}
					if got := specSchema(hit); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: memo hit\n got %+v\nwant %+v", name, got, want)
					}
				}
			}
		}
	}
	t.Logf("%d cases", cases)
}
