// Package spec is an executable statement of what the engine must compute,
// written to be read, not to be fast: plain slices and maps, exhaustive
// enumeration, nothing shared with internal/core. Only _test.go files import
// it; the engine is held to it on generated inputs.
//
// This file states the Result Schema Generator (paper Figure 3, §5.1).
package spec

import (
	"slices"
	"sort"
	"strings"

	"precis/internal/schemagraph"
)

// Projection is a projection edge: attribute Attr of relation Rel.
type Projection struct {
	Rel, Attr string
	Weight    float64
}

// Join is a directed join edge From.FromCol = To.ToCol.
type Join struct {
	From, To, FromCol, ToCol string
	Weight                   float64
}

// Key identifies the edge; two relations may be joined on several column pairs.
func (j Join) Key() string { return j.From + "->" + j.To + "(" + j.FromCol + "=" + j.ToCol + ")" }

// Graph is a weighted schema graph. The order of the slices means nothing.
type Graph struct {
	Relations   []string
	Projections []Projection
	Joins       []Join
}

// FromGraph restates an engine schema graph in the spec's plain form.
func FromGraph(g *schemagraph.Graph) Graph {
	var sg Graph
	for _, name := range g.Relations() {
		sg.Relations = append(sg.Relations, name)
		for _, p := range g.Relation(name).Projections() {
			sg.Projections = append(sg.Projections, Projection{Rel: p.Relation, Attr: p.Attribute, Weight: p.Weight})
		}
		for _, e := range g.Relation(name).Out() {
			sg.Joins = append(sg.Joins, Join{From: e.From, To: e.To, FromCol: e.FromCol, ToCol: e.ToCol, Weight: e.Weight})
		}
	}
	return sg
}

// Degree is a degree constraint, a conjunction of the set bounds. A negative
// count is no bound; MinWeight 0 bounds nothing, weights being non-negative.
type Degree struct {
	TopR      int     // t ≤ r: at most r projection paths
	MinWeight float64 // w_t ≥ w₀: paths at least this heavy
	MaxLen    int     // length(p_t) ≤ l₀: paths of at most l₀ edges, the projection edge included
	MaxAttrs  int     // at most this many distinct attributes
}

// Unbounded is the constraint that admits every path.
var Unbounded = Degree{TopR: -1, MaxLen: -1, MaxAttrs: -1}

// Path is a projection path: joins from a seed relation, then one projection.
type Path struct {
	Seed  string
	Joins []Join
	Proj  Projection
}

// Weight is the product of the edge weights, taken from the seed outwards
// (floating-point multiplication does not associate, and ties are decided on
// the exact product).
func (p Path) Weight() float64 {
	w := 1.0
	for _, j := range p.Joins {
		w *= j.Weight
	}
	return w * p.Proj.Weight
}

// Len is the number of edges.
func (p Path) Len() int { return len(p.Joins) + 1 }

// String renders SEED -> R1 -> R2.attr.
func (p Path) String() string {
	s := p.Seed
	for _, j := range p.Joins {
		s += " -> " + j.To
	}
	return s + "." + p.Proj.Attr
}

// joinKeys renders the join edges taken, which String leaves out.
func (p Path) joinKeys() string {
	keys := make([]string, len(p.Joins))
	for i, j := range p.Joins {
		keys[i] = j.Key()
	}
	return strings.Join(keys, " ")
}

// Before is the order in which paths are considered: heavier first; among
// equal weights the shorter, which relates its ends more closely; then —
// Figure 3 leaves it open — by the rendered text, and between two paths that
// read the same, having taken parallel edges, by the keys of those edges.
func (p Path) Before(q Path) bool {
	if pw, qw := p.Weight(), q.Weight(); pw != qw {
		return pw > qw
	}
	if p.Len() != q.Len() {
		return p.Len() < q.Len()
	}
	if ps, qs := p.String(), q.String(); ps != qs {
		return ps < qs
	}
	return p.joinKeys() < q.joinKeys()
}

// Schema is a result schema G′: the sub-graph the accepted paths cover.
type Schema struct {
	Paths       []string            // the accepted paths, rendered, in order
	Relations   []string            // sorted
	Projections map[string][]string // relation → projected attributes, sorted
	Joins       []string            // join-edge keys, sorted
	// SeedInDegree counts, per relation, the seeds one of whose accepted paths
	// visits it (a seed visits itself); JoinInDegree the join edges of G′
	// arriving at it.
	SeedInDegree, JoinInDegree map[string]int
}

// ResultSchema states Figure 3. P is every acyclic path from a seed relation
// along join edges to a projection edge, of at most d.MaxLen edges — the
// length bound says which paths exist, the other bounds where the list ends.
// P is put in Before's order, and P_d is its longest prefix in which every
// path weighs at least d.MinWeight, has fewer than d.TopR paths before it and
// fewer than d.MaxAttrs distinct attributes among those: the paths are taken
// from the top until a bound is met. G′ is the seeds and what P_d covers.
func ResultSchema(g Graph, seeds []string, d Degree) Schema {
	var all []Path
	for _, seed := range seeds {
		all = append(all, pathsFrom(g, seed, nil, seed, map[string]bool{seed: true}, d.MaxLen)...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Before(all[j]) })

	s := Schema{Projections: map[string][]string{}, SeedInDegree: map[string]int{}, JoinInDegree: map[string]int{}}
	attrs := map[string]bool{}   // REL.attr projected
	joins := map[string]bool{}   // join keys in G′
	visited := map[string]bool{} // "seed\x00relation": the seed's accepted paths visit the relation
	visit := func(seed, rel string) {
		if !visited[seed+"\x00"+rel] {
			visited[seed+"\x00"+rel] = true
			s.SeedInDegree[rel]++
		}
	}
	for _, p := range all {
		if p.Weight() < d.MinWeight || (d.TopR >= 0 && len(s.Paths) >= d.TopR) || (d.MaxAttrs >= 0 && len(attrs) >= d.MaxAttrs) {
			break
		}
		s.Paths = append(s.Paths, p.String())
		visit(p.Seed, p.Seed)
		for _, j := range p.Joins {
			visit(p.Seed, j.To)
			if !joins[j.Key()] {
				joins[j.Key()] = true
				s.Joins = append(s.Joins, j.Key())
				s.JoinInDegree[j.To]++
			}
		}
		if key := p.Proj.Rel + "." + p.Proj.Attr; !attrs[key] {
			attrs[key] = true
			s.Projections[p.Proj.Rel] = append(s.Projections[p.Proj.Rel], p.Proj.Attr)
		}
	}
	for _, seed := range seeds {
		visit(seed, seed) // a seed is in G′, and counts itself, whatever was accepted
	}
	for rel := range s.SeedInDegree {
		s.Relations = append(s.Relations, rel)
		sort.Strings(s.Projections[rel])
	}
	sort.Strings(s.Relations)
	sort.Strings(s.Joins)
	return s
}

// Headed is G′ as a query is answered with it: Figure 3's, plus the heading
// attribute of each of its relations that has one (headings, by relation),
// which §5.3 puts in every result whether a path projects it or not.
func Headed(s Schema, headings map[string]string) Schema {
	projections := map[string][]string{}
	for _, rel := range s.Relations {
		attrs := s.Projections[rel]
		if h := headings[rel]; h != "" && !slices.Contains(attrs, h) {
			attrs = append(slices.Clone(attrs), h)
			sort.Strings(attrs)
		}
		if len(attrs) > 0 {
			projections[rel] = attrs
		}
	}
	s.Projections = projections
	return s
}

// pathsFrom enumerates the projection paths that start with the joins taken
// so far, which end at relation at and have visited the relations in seen:
// one per projection of at, and those of every extension by a join edge that
// leaves at for a relation not yet visited, while the path may still grow
// (maxLen < 0: without bound).
func pathsFrom(g Graph, seed string, taken []Join, at string, seen map[string]bool, maxLen int) []Path {
	if maxLen >= 0 && len(taken)+1 > maxLen {
		return nil
	}
	var out []Path
	for _, pr := range g.Projections {
		if pr.Rel == at {
			out = append(out, Path{Seed: seed, Joins: append([]Join(nil), taken...), Proj: pr})
		}
	}
	for _, j := range g.Joins {
		if j.From != at || seen[j.To] {
			continue
		}
		seen[j.To] = true
		out = append(out, pathsFrom(g, seed, append(taken, j), j.To, seen, maxLen)...)
		delete(seen, j.To)
	}
	return out
}
