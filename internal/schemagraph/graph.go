// Package schemagraph implements the weighted database schema graph of the
// paper (§3.1): relation nodes and attribute nodes connected by directed,
// weighted join edges and projection edges. The graph drives both the result
// schema generator (which paths are worth following) and the translator
// (heading attributes and template labels annotate nodes and edges).
package schemagraph

import (
	"fmt"
	"sort"
	"strings"

	"precis/internal/storage"
)

// Projection is a projection edge Π connecting an attribute node to its
// container relation node. Weight 1 means the attribute always accompanies
// the relation in an answer; weight 0 means it never does.
type Projection struct {
	Relation  string
	Attribute string
	Weight    float64
	Label     string // NLG template label, e.g. "{subject} was born on {value}"
}

// Key returns the canonical identifier REL.ATTR used for weight overlays.
func (p *Projection) Key() string { return p.Relation + "." + p.Attribute }

// JoinEdge is a directed join edge between two relation nodes. Direction
// expresses dependence: From is the relation already considered for the
// answer, To is the relation whose inclusion the edge suggests. Two
// relations may be connected by two edges in opposite directions carrying
// different weights (the MOVIE->GENRE 0.9 vs GENRE->MOVIE 1.0 example).
type JoinEdge struct {
	From    string
	To      string
	FromCol string
	ToCol   string
	Weight  float64
	Label   string // NLG template label for the relationship
}

// Key returns the canonical identifier FROM->TO(fromCol=toCol).
func (e *JoinEdge) Key() string {
	p := e.keyPieces()
	return strings.Join(p[:], "")
}

// KeyLess reports e.Key() < o.Key() without building either key.
func (e *JoinEdge) KeyLess(o *JoinEdge) bool {
	a, b := e.keyPieces(), o.keyPieces()
	return textCompare(a[:], b[:]) < 0
}

func (e *JoinEdge) keyPieces() [8]string {
	return [8]string{e.From, "->", e.To, "(", e.FromCol, "=", e.ToCol, ")"}
}

// String renders the edge with its weight.
func (e *JoinEdge) String() string {
	return fmt.Sprintf("%s -[%.2f]-> %s on %s=%s", e.From, e.Weight, e.To, e.FromCol, e.ToCol)
}

// RelationNode is a relation node together with its attached projection
// edges and outgoing join edges.
type RelationNode struct {
	Name      string
	Heading   string // heading attribute for NLG; "" if none (junction relations)
	Sentence  string // optional NLG sentence template for the relation
	projs     map[string]*Projection
	projOrder []string      // attribute names in declaration order
	projList  []*Projection // projs in the same order
	out       []*JoinEdge
}

// Projection returns the projection edge for the named attribute, or nil.
func (n *RelationNode) Projection(attr string) *Projection { return n.projs[attr] }

// Projections returns the projection edges in declaration order, under
// Out's contract: the node's own slice, not to be written.
func (n *RelationNode) Projections() []*Projection {
	return n.projList[:len(n.projList):len(n.projList)]
}

// Attributes returns the names of the projected attributes in declaration
// order, under Out's contract: the node's own slice, not to be written.
func (n *RelationNode) Attributes() []string {
	return n.projOrder[:len(n.projOrder):len(n.projOrder)]
}

// Out returns the outgoing join edges in declaration order. The slice is the
// node's own, not a copy: read it, and sort or filter a copy. (Its capacity
// is its length, so appending to it copies.)
func (n *RelationNode) Out() []*JoinEdge { return n.out[:len(n.out):len(n.out)] }

// Graph is the database schema graph G(V, E).
type Graph struct {
	nodes map[string]*RelationNode
	order []string
	memo  *memo // nil unless frozen (memo.go)
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{nodes: make(map[string]*RelationNode)}
}

// AddRelation adds a relation node. It is idempotent for an existing name.
func (g *Graph) AddRelation(name string) *RelationNode {
	if n, ok := g.nodes[name]; ok {
		return n
	}
	g.memo = nil // thaw
	n := &RelationNode{Name: name, projs: make(map[string]*Projection)}
	g.nodes[name] = n
	g.order = append(g.order, name)
	return n
}

// Relation returns the named relation node, or nil.
func (g *Graph) Relation(name string) *RelationNode { return g.nodes[name] }

// Relations returns relation names in insertion order.
func (g *Graph) Relations() []string { return append([]string(nil), g.order...) }

// AddProjection adds (or replaces) a projection edge.
func (g *Graph) AddProjection(relation, attribute string, weight float64) (*Projection, error) {
	if err := checkWeight(weight); err != nil {
		return nil, fmt.Errorf("schemagraph: projection %s.%s: %w", relation, attribute, err)
	}
	n := g.nodes[relation]
	if n == nil {
		return nil, fmt.Errorf("schemagraph: no relation node %s", relation)
	}
	g.memo = nil // thaw
	p, ok := n.projs[attribute]
	if !ok {
		p = &Projection{Relation: relation, Attribute: attribute}
		n.projs[attribute] = p
		n.projOrder = append(n.projOrder, attribute)
		n.projList = append(n.projList, p)
	}
	p.Weight = weight
	return p, nil
}

// AddJoin adds a directed join edge. At most one edge may exist between the
// same ordered pair of relations over the same column pair (paper
// simplification); re-adding replaces the weight.
func (g *Graph) AddJoin(from, to, fromCol, toCol string, weight float64) (*JoinEdge, error) {
	if err := checkWeight(weight); err != nil {
		return nil, fmt.Errorf("schemagraph: join %s->%s: %w", from, to, err)
	}
	fn := g.nodes[from]
	if fn == nil {
		return nil, fmt.Errorf("schemagraph: no relation node %s", from)
	}
	if g.nodes[to] == nil {
		return nil, fmt.Errorf("schemagraph: no relation node %s", to)
	}
	g.memo = nil // thaw
	for _, e := range fn.out {
		if e.To == to && e.FromCol == fromCol && e.ToCol == toCol {
			e.Weight = weight
			return e, nil
		}
	}
	e := &JoinEdge{From: from, To: to, FromCol: fromCol, ToCol: toCol, Weight: weight}
	fn.out = append(fn.out, e)
	return e, nil
}

// SetHeading marks the heading attribute of a relation (the attribute whose
// value characterizes tuples of the relation in narrative output). Per the
// paper, the heading attribute's projection edge gets weight 1 and is always
// present in a result; SetHeading enforces that by upserting the projection.
func (g *Graph) SetHeading(relation, attribute string) error {
	n := g.nodes[relation]
	if n == nil {
		return fmt.Errorf("schemagraph: no relation node %s", relation)
	}
	if _, err := g.AddProjection(relation, attribute, 1.0); err != nil {
		return err
	}
	n.Heading = attribute
	return nil
}

// checkWeight validates w ∈ [0, 1].
func checkWeight(w float64) error {
	if w < 0 || w > 1 {
		return fmt.Errorf("weight %v outside [0,1]", w)
	}
	return nil
}

// JoinEdges returns every join edge of the graph in deterministic order.
func (g *Graph) JoinEdges() []*JoinEdge {
	n := 0
	for _, name := range g.order {
		n += len(g.nodes[name].out)
	}
	out := make([]*JoinEdge, 0, n)
	for _, name := range g.order {
		out = append(out, g.nodes[name].out...)
	}
	return out
}

// NumProjections returns the count of projection edges.
func (g *Graph) NumProjections() int {
	n := 0
	for _, name := range g.order {
		n += len(g.nodes[name].projs)
	}
	return n
}

// Clone returns a deep copy of the graph (nodes, edges, annotations), so
// user profiles can overlay weights without mutating the shared graph. The
// copy is not frozen and memoises nothing.
func (g *Graph) Clone() *Graph {
	out := New()
	for _, name := range g.order {
		n := g.nodes[name]
		cn := out.AddRelation(name)
		cn.Heading = n.Heading
		cn.Sentence = n.Sentence
		for _, p := range n.projList {
			cp := *p
			cn.projs[p.Attribute] = &cp
			cn.projOrder = append(cn.projOrder, p.Attribute)
			cn.projList = append(cn.projList, &cp)
		}
		for _, e := range n.out {
			ce := *e
			cn.out = append(cn.out, &ce)
		}
	}
	return out
}

// ApplyWeights overlays weights keyed by Projection.Key or JoinEdge.Key.
// Unknown keys are reported as an error so profile typos surface early.
func (g *Graph) ApplyWeights(weights map[string]float64) error {
	remaining := make(map[string]float64, len(weights))
	for k, v := range weights {
		if err := checkWeight(v); err != nil {
			return fmt.Errorf("schemagraph: overlay %s: %w", k, err)
		}
		remaining[k] = v
	}
	g.memo = nil // thaw
	for _, name := range g.order {
		n := g.nodes[name]
		for _, p := range n.projList {
			if w, ok := remaining[p.Key()]; ok {
				p.Weight = w
				delete(remaining, p.Key())
			}
		}
		for _, e := range n.out {
			if w, ok := remaining[e.Key()]; ok {
				e.Weight = w
				delete(remaining, e.Key())
			}
		}
	}
	if len(remaining) > 0 {
		keys := make([]string, 0, len(remaining))
		for k := range remaining {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return fmt.Errorf("schemagraph: overlay keys not found: %v", keys)
	}
	return nil
}

// FromDatabase builds a graph skeleton from a database: one relation node
// per relation, a projection edge per attribute (weight 1), and a pair of
// join edges (both directions, weight 1) per declared foreign key. A domain
// expert then adjusts weights, headings and labels.
func FromDatabase(db *storage.Database) *Graph {
	g := New()
	for _, name := range db.RelationNames() {
		g.AddRelation(name)
		for _, c := range db.Relation(name).Schema().Columns {
			if _, err := g.AddProjection(name, c.Name, 1.0); err != nil {
				panic(err) // unreachable: nodes and weights are valid by construction
			}
		}
	}
	for _, fk := range db.ForeignKeys() {
		if _, err := g.AddJoin(fk.FromRelation, fk.ToRelation, fk.FromColumn, fk.ToColumn, 1.0); err != nil {
			panic(err)
		}
		if _, err := g.AddJoin(fk.ToRelation, fk.FromRelation, fk.ToColumn, fk.FromColumn, 1.0); err != nil {
			panic(err)
		}
	}
	return g
}

// Validate checks the graph against a database: every relation node must
// exist, every projection edge must name a real attribute, and every join
// edge must connect columns of matching type.
func (g *Graph) Validate(db *storage.Database) error {
	for _, name := range g.order {
		rel := db.Relation(name)
		if rel == nil {
			return fmt.Errorf("schemagraph: relation node %s has no relation in the database", name)
		}
		n := g.nodes[name]
		for _, a := range n.projOrder {
			if !rel.Schema().HasColumn(a) {
				return fmt.Errorf("schemagraph: projection %s.%s names a missing attribute", name, a)
			}
		}
		if n.Heading != "" && !rel.Schema().HasColumn(n.Heading) {
			return fmt.Errorf("schemagraph: heading %s.%s names a missing attribute", name, n.Heading)
		}
		for _, e := range n.out {
			to := db.Relation(e.To)
			if to == nil {
				return fmt.Errorf("schemagraph: join %s targets missing relation %s", e.Key(), e.To)
			}
			fi := rel.Schema().ColumnIndex(e.FromCol)
			ti := to.Schema().ColumnIndex(e.ToCol)
			if fi < 0 {
				return fmt.Errorf("schemagraph: join %s names missing column %s.%s", e.Key(), e.From, e.FromCol)
			}
			if ti < 0 {
				return fmt.Errorf("schemagraph: join %s names missing column %s.%s", e.Key(), e.To, e.ToCol)
			}
			if rel.Schema().Columns[fi].Type != to.Schema().Columns[ti].Type {
				return fmt.Errorf("schemagraph: join %s connects %s and %s columns", e.Key(),
					rel.Schema().Columns[fi].Type, to.Schema().Columns[ti].Type)
			}
		}
	}
	return nil
}
