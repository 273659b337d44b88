// Package profile implements the personalization layer of §3.1: multiple
// sets of weights targeting different user groups ("reviewers" exploring
// large parts of the database vs "cinema fans" preferring short answers"),
// stored in the system and overlaid on the schema graph at query time,
// together with each profile's default degree and cardinality constraints.
package profile

import (
	"fmt"
	"sort"
	"sync"

	"precis/internal/core"
	"precis/internal/schemagraph"
)

// Profile is one stored personalization: weight overlays keyed by edge key
// (schemagraph.Projection.Key / JoinEdge.Key) plus default constraints.
type Profile struct {
	Name        string
	Description string
	// Weights overlays edge weights; keys use "REL.ATTR" for projections
	// and "FROM->TO(col=col)" for join edges.
	Weights map[string]float64
	// Degree is the profile's default degree constraint (nil: caller must
	// supply one).
	Degree core.DegreeConstraint
	// Cardinality is the profile's default cardinality constraint.
	Cardinality core.CardinalityConstraint
	// Strategy is the profile's retrieval strategy.
	Strategy core.Strategy
}

// Apply returns a copy of g with the profile's weight overlays applied.
// The input graph is never mutated.
func (p *Profile) Apply(g *schemagraph.Graph) (*schemagraph.Graph, error) {
	out := g.Clone()
	if len(p.Weights) == 0 {
		return out, nil
	}
	if err := out.ApplyWeights(p.Weights); err != nil {
		return nil, fmt.Errorf("profile %s: %w", p.Name, err)
	}
	return out, nil
}

// Registry stores named profiles, and with each the graph it was last applied
// to and the result.
type Registry struct {
	byName map[string]*Profile
	mu     sync.Mutex // guards graphs: queries apply profiles concurrently
	graphs map[*Profile]applied
}

// applied is base with a profile's weights overlaid, frozen.
type applied struct{ base, graph *schemagraph.Graph }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Profile), graphs: make(map[*Profile]applied)}
}

// Graph is p.Apply(base), frozen, and the same graph for every call with the
// same base, so what queries memoise on it serves every query under the
// profile. The entry belongs to the *Profile: another profile of that name,
// in another registry, shares nothing with it.
func (r *Registry) Graph(p *Profile, base *schemagraph.Graph) (*schemagraph.Graph, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if a := r.graphs[p]; a.base == base {
		return a.graph, nil
	}
	g, err := p.Apply(base)
	if err != nil {
		return nil, err
	}
	g.Freeze()
	r.graphs[p] = applied{base, g}
	return g, nil
}

// Add registers a profile; the name must be unique and non-empty.
func (r *Registry) Add(p *Profile) error {
	if p == nil || p.Name == "" {
		return fmt.Errorf("profile: profile needs a name")
	}
	if _, ok := r.byName[p.Name]; ok {
		return fmt.Errorf("profile: %s already registered", p.Name)
	}
	r.byName[p.Name] = p
	return nil
}

// Get returns the named profile, or nil.
func (r *Registry) Get(name string) *Profile { return r.byName[name] }

// Names returns the registered profile names, sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Reviewer returns the paper's "reviewer" archetype: in-depth, detailed
// answers exploring larger parts of the database around a single query.
func Reviewer() *Profile {
	return &Profile{
		Name:        "reviewer",
		Description: "in-depth answers exploring a large region of the database",
		Degree:      core.MinPathWeight(0.4),
		Cardinality: core.MaxTuplesPerRelation(25),
		Strategy:    core.StrategyAuto,
	}
}

// Fan returns the paper's "cinema fan" archetype: short answers containing
// only highly related objects.
func Fan() *Profile {
	return &Profile{
		Name:        "fan",
		Description: "short answers with only highly related objects",
		Degree:      core.MinPathWeight(0.9),
		Cardinality: core.MaxTuplesPerRelation(3),
		Strategy:    core.StrategyAuto,
	}
}
