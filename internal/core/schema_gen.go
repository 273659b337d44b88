package core

import (
	"container/heap"
	"fmt"
	"slices"
	"sort"
	"strings"

	"precis/internal/schemagraph"
)

// ResultSchema is the output of the Result Schema Generator: the sub-graph
// G' of the database schema graph containing the relations related to a
// query, the attributes to project on each, and the bookkeeping the Result
// Database Generator needs (join edges in weight order, in-degrees, seed
// attribution).
//
// A result schema generated from a frozen graph is that graph's one G' for
// its seeds and constraint, shared by every query that asks for it: read it,
// never write it. Its Graph is frozen too, and memoises what the later stages
// derive from G' (the join order, the layout of D' per catalog).
type ResultSchema struct {
	// Graph is the result schema graph G' (a sub-graph of the input graph,
	// with the same weights on the surviving edges).
	Graph *schemagraph.Graph
	// Seeds are the relations containing the query tokens, in input order.
	Seeds []string
	// Paths are the accepted projection paths P_d in acceptance order
	// (decreasing weight, shorter first among equal weights).
	Paths []*schemagraph.Path
	// seedsByRelation maps each relation of G' to the set of seed relations
	// whose accepted paths visit it (the paper's in-degree counts these).
	seedsByRelation map[string]map[string]bool
}

// Relations returns the relations of G' in deterministic order.
func (rs *ResultSchema) Relations() []string { return rs.Graph.Relations() }

// Projections returns the projected attributes of rel in G', in the
// relation's declaration order. The slice is G's own (RelationNode.Attributes):
// callers read it, and copy it before changing it.
func (rs *ResultSchema) Projections(rel string) []string {
	n := rs.Graph.Relation(rel)
	if n == nil {
		return nil
	}
	return n.Attributes()
}

// SeedInDegree returns the paper's in-degree of a relation: the number of
// input (seed) relations whose accepted paths include it.
func (rs *ResultSchema) SeedInDegree(rel string) int { return len(rs.seedsByRelation[rel]) }

// JoinInDegree returns the number of join edges of G' arriving at rel; the
// result database generator postpones joins departing from a relation until
// all arriving joins have executed, and this is the counter it decrements.
func (rs *ResultSchema) JoinInDegree(rel string) int { return rs.joinPlan().arriving[rel] }

// SeedDistance returns each relation's join-edge distance from the nearest
// seed within G' (seeds are at distance 0; unreachable relations get a
// large sentinel). The data generator uses it to break ties among
// equal-weight joins: edges departing closer to the seeds execute first,
// matching the paper's intuition that shorter paths connect more closely
// related entities.
func (rs *ResultSchema) SeedDistance() map[string]int {
	const unreachable = 1 << 20
	dist := make(map[string]int, len(rs.Graph.Relations()))
	for _, rel := range rs.Graph.Relations() {
		dist[rel] = unreachable
	}
	queue := make([]string, 0, len(rs.Seeds))
	for _, s := range rs.Seeds {
		if _, ok := dist[s]; ok {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	edges := rs.Graph.JoinEdges()
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range edges {
			if e.From != cur {
				continue
			}
			if d := dist[cur] + 1; d < dist[e.To] {
				dist[e.To] = d
				queue = append(queue, e.To)
			}
		}
	}
	return dist
}

// JoinEdgesByWeight returns the join edges of G' in the order the result
// database generator considers them: decreasing weight; among equal
// weights, edges whose source is nearer a seed first; remaining ties break
// on the edge key for determinism. The slice is the caller's own.
func (rs *ResultSchema) JoinEdgesByWeight() []*schemagraph.JoinEdge {
	return slices.Clone(rs.joinPlan().byWeight)
}

// joinPlan is what executeJoins needs of G' alone. It is shared: read only.
type joinPlan struct {
	byWeight []*schemagraph.JoinEdge // JoinEdgesByWeight's order
	arriving map[string]int          // join edges of G' arriving at each relation
}

type joinPlanKey struct{}

// joinPlan sorts and counts the join edges of G', once when G' is frozen.
func (rs *ResultSchema) joinPlan() *joinPlan {
	if v, ok := rs.Graph.Memo(joinPlanKey{}); ok {
		return v.(*joinPlan)
	}
	edges := rs.Graph.JoinEdges()
	dist := rs.SeedDistance()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Weight != edges[j].Weight {
			return edges[i].Weight > edges[j].Weight
		}
		if dist[edges[i].From] != dist[edges[j].From] {
			return dist[edges[i].From] < dist[edges[j].From]
		}
		return edges[i].Key() < edges[j].Key()
	})
	p := &joinPlan{byWeight: edges, arriving: make(map[string]int)}
	for _, e := range edges {
		p.arriving[e.To]++
	}
	return rs.Graph.Memoise(joinPlanKey{}, p).(*joinPlan)
}

// NumAttributes returns the number of projected attributes across G'.
func (rs *ResultSchema) NumAttributes() int { return rs.Graph.NumProjections() }

// pathQueue is the priority queue QP of candidate paths, ordered by
// decreasing weight then increasing length (Path.Less).
type pathQueue []*schemagraph.Path

func (q pathQueue) Len() int           { return len(q) }
func (q pathQueue) Less(i, j int) bool { return q[i].Less(q[j]) }
func (q pathQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pathQueue) Push(x any)        { *q = append(*q, x.(*schemagraph.Path)) }
func (q *pathQueue) Pop() any {
	old := *q
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return p
}

// SchemaGeneratorOptions tune the generator; the zero value is the paper's
// algorithm. DisablePruning turns off the expansion cut-off (ablation).
type SchemaGeneratorOptions struct {
	DisablePruning bool
}

// GenerateSchema runs the Result Schema Algorithm (paper Figure 3): a
// best-first traversal of the weighted schema graph g starting from the
// seed relations (those containing query tokens), gradually constructing
// projection paths in decreasing weight order until the degree constraint d
// fails. It returns the result schema G'.
//
// G' is a function of (g, seeds, d): a frozen g is traversed once per (seeds,
// d.String()), and every later call returns the same *ResultSchema, annotated
// (CopyAnnotations) and immutable, without consulting d. An unfrozen g is
// traversed on every call.
func GenerateSchema(g *schemagraph.Graph, seeds []string, d DegreeConstraint) (*ResultSchema, error) {
	return GenerateSchemaOpts(g, seeds, d, SchemaGeneratorOptions{})
}

// schemaKey is what G' depends on besides the graph it is memoised on.
type schemaKey struct {
	seeds, degree string
	opts          SchemaGeneratorOptions
}

// GenerateSchemaOpts is GenerateSchema with explicit options.
func GenerateSchemaOpts(g *schemagraph.Graph, seeds []string, d DegreeConstraint, opts SchemaGeneratorOptions) (*ResultSchema, error) {
	if d == nil {
		return nil, fmt.Errorf("core: nil degree constraint")
	}
	if !g.Frozen() {
		return traverse(g, seeds, d, opts)
	}
	key := schemaKey{strings.Join(seeds, "\x1f"), d.String(), opts}
	if v, ok := g.Memo(key); ok {
		return v.(*ResultSchema), nil
	}
	rs, err := traverse(g, seeds, d, opts)
	if err != nil {
		return nil, err
	}
	rs.CopyAnnotations(g)
	rs.Graph.Freeze()
	return g.Memoise(key, rs).(*ResultSchema), nil
}

// traverse is Figure 3 itself.
func traverse(g *schemagraph.Graph, seeds []string, d DegreeConstraint, opts SchemaGeneratorOptions) (*ResultSchema, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("core: no seed relations (query tokens matched nothing)")
	}
	seen := make(map[string]bool, len(seeds))
	for _, s := range seeds {
		if g.Relation(s) == nil {
			return nil, fmt.Errorf("core: seed relation %s is not in the schema graph", s)
		}
		if seen[s] {
			return nil, fmt.Errorf("core: duplicate seed relation %s", s)
		}
		seen[s] = true
	}

	rs := &ResultSchema{
		Graph:           schemagraph.New(),
		Seeds:           append([]string(nil), seeds...),
		seedsByRelation: make(map[string]map[string]bool),
	}

	// Step 1: QP starts with every edge attached to a seed relation, as a
	// length-1 path.
	qp := &pathQueue{}
	for _, seed := range seeds {
		base := schemagraph.NewPath(seed)
		node := g.Relation(seed)
		for _, pr := range node.Projections() {
			if p := base.ExtendProjection(pr); p != nil {
				heap.Push(qp, p)
			}
		}
		for _, e := range node.Out() {
			if p := base.ExtendJoin(e); p != nil {
				heap.Push(qp, p)
			}
		}
	}

	// Step 2: best-first expansion. An extension the constraint refuses
	// already is not queued.
	push := func(np *schemagraph.Path) {
		if np != nil && (opts.DisablePruning || d.Accept(rs.Paths, np)) {
			heap.Push(qp, np)
		}
	}
	for qp.Len() > 0 {
		p := heap.Pop(qp).(*schemagraph.Path)

		// 2.2: projection paths arrive in decreasing weight, so the first one
		// refused ends the loop (the formal prefix semantics of §5.1). A join
		// path refused is one not worth expanding — too long, too light, or
		// nothing left to project — and says nothing about the paths behind it.
		if !d.Accept(rs.Paths, p) {
			if p.IsProjection() {
				break
			}
			continue
		}

		if p.IsProjection() {
			// 2.3 (projection): accept the path into P_d and fold its
			// nodes and edges into G'.
			rs.Paths = append(rs.Paths, p)
			rs.merge(p)
			continue
		}

		// 2.3 (join): expand p with every edge attached to its end.
		end := g.Relation(p.End())
		for _, pr := range end.Projections() {
			push(p.ExtendProjection(pr))
		}
		for _, e := range end.Out() {
			push(p.ExtendJoin(e))
		}
	}

	// The seed relations are part of the result even if only their heading
	// projection survived; make sure each seed node exists so the data
	// generator can place the matching tuples.
	for _, seed := range seeds {
		rs.ensureRelation(seed)
		rs.attributeSeed(seed, seed)
	}
	return rs, nil
}

// ensureRelation copies the relation node (name, heading, sentence template)
// into G' if absent.
func (rs *ResultSchema) ensureRelation(name string) {
	if rs.Graph.Relation(name) != nil {
		return
	}
	n := rs.Graph.AddRelation(name)
	n.Heading = ""
	rs.seedsByRelation[name] = make(map[string]bool)
}

func (rs *ResultSchema) attributeSeed(rel, seed string) {
	set := rs.seedsByRelation[rel]
	if set == nil {
		set = make(map[string]bool)
		rs.seedsByRelation[rel] = set
	}
	set[seed] = true
}

// merge folds an accepted projection path into G': its relation nodes, join
// edges and final projection edge, and the seed attribution of every
// relation it visits.
func (rs *ResultSchema) merge(p *schemagraph.Path) {
	rs.ensureRelation(p.Start)
	rs.attributeSeed(p.Start, p.Start)
	for _, e := range p.Joins {
		rs.ensureRelation(e.To)
		rs.attributeSeed(e.To, p.Start)
		// AddJoin is idempotent for an existing (from,to,cols) edge.
		if _, err := rs.Graph.AddJoin(e.From, e.To, e.FromCol, e.ToCol, e.Weight); err != nil {
			panic(err) // unreachable: nodes were just ensured
		}
		if lbl := e.Label; lbl != "" {
			rs.setJoinLabel(e)
		}
	}
	if _, err := rs.Graph.AddProjection(p.Proj.Relation, p.Proj.Attribute, p.Proj.Weight); err != nil {
		panic(err)
	}
	if n := rs.Graph.Relation(p.Proj.Relation); n != nil {
		if pr := n.Projection(p.Proj.Attribute); pr != nil {
			pr.Label = p.Proj.Label
		}
	}
}

// setJoinLabel copies the NLG label onto the matching edge in G'.
func (rs *ResultSchema) setJoinLabel(src *schemagraph.JoinEdge) {
	n := rs.Graph.Relation(src.From)
	if n == nil {
		return
	}
	for _, e := range n.Out() {
		if e.To == src.To && e.FromCol == src.FromCol && e.ToCol == src.ToCol {
			e.Label = src.Label
		}
	}
}

// CopyAnnotations copies heading attributes and sentence templates for the
// relations of G' from the full graph, so the translator can render the
// result. Called by the query pipeline after schema generation; a frozen G'
// — GenerateSchema memoised it — is annotated already, and shared: untouched.
func (rs *ResultSchema) CopyAnnotations(g *schemagraph.Graph) {
	if rs.Graph.Frozen() {
		return
	}
	for _, name := range rs.Graph.Relations() {
		src := g.Relation(name)
		dst := rs.Graph.Relation(name)
		if src == nil || dst == nil {
			continue
		}
		dst.Sentence = src.Sentence
		if src.Heading != "" {
			// The heading attribute is by definition always present in a
			// result (§5.3): its projection edge has weight 1.
			if err := rs.Graph.SetHeading(name, src.Heading); err == nil {
				if sp := src.Projection(src.Heading); sp != nil {
					if dp := dst.Projection(src.Heading); dp != nil {
						dp.Label = sp.Label
					}
				}
			}
		}
	}
}
