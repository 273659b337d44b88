package baseline

import (
	"fmt"
	"sort"
	"strings"

	"precis/internal/invidx"
	"precis/internal/schemagraph"
	"precis/internal/storage"
)

// Full DISCOVER-style candidate networks: schema-level trees whose nodes
// are relations, some annotated with a query term they must match, covering
// every term of the query. Unlike the pairwise path search of
// TupleTreeSearch, networks handle any number of terms and may repeat a
// relation (ACTOR—CAST—MOVIE—CAST—ACTOR connects two actors through one
// movie). Networks are enumerated smallest-first on the schema graph and
// then evaluated on the data; results rank by ascending join count.

// netNode is one relation node of a candidate network tree.
type netNode struct {
	rel      string
	term     int // index into the query terms, -1 for a free node
	children []*netNode
}

// clone deep-copies a tree.
func (n *netNode) clone() *netNode {
	out := &netNode{rel: n.rel, term: n.term}
	for _, c := range n.children {
		out.children = append(out.children, c.clone())
	}
	return out
}

// size counts nodes.
func (n *netNode) size() int {
	s := 1
	for _, c := range n.children {
		s += c.size()
	}
	return s
}

// covered accumulates term indexes present in the tree.
func (n *netNode) covered(into map[int]bool) {
	if n.term >= 0 {
		into[n.term] = true
	}
	for _, c := range n.children {
		c.covered(into)
	}
}

// minimal reports whether every leaf carries a term (DISCOVER's minimality
// condition: a free leaf adds joins without adding coverage).
func (n *netNode) minimal() bool {
	if len(n.children) == 0 {
		return n.term >= 0
	}
	for _, c := range n.children {
		if !c.minimal() {
			return false
		}
	}
	return true
}

// canon renders a canonical form for deduplication: children sorted by
// their own canonical forms.
func (n *netNode) canon() string {
	parts := make([]string, 0, len(n.children))
	for _, c := range n.children {
		parts = append(parts, c.canon())
	}
	sort.Strings(parts)
	return fmt.Sprintf("%s#%d(%s)", n.rel, n.term, strings.Join(parts, ","))
}

// flatten lists nodes pre-order.
func (n *netNode) flatten() []*netNode {
	out := []*netNode{n}
	for _, c := range n.children {
		out = append(out, c.flatten()...)
	}
	return out
}

// NetworkSearch finds joined tuple trees covering every query term through
// DISCOVER-style candidate networks of at most maxNodes relation nodes,
// returning at most topK trees ranked by ascending join count. It
// generalizes TupleTreeSearch to any number of terms.
func NetworkSearch(db *storage.Database, g *schemagraph.Graph, ix *invidx.Index, terms []string, maxNodes, topK int) ([]TupleTree, error) {
	if len(terms) == 0 {
		return nil, fmt.Errorf("baseline: no query terms")
	}
	if topK <= 0 {
		topK = 100
	}
	if maxNodes <= 0 {
		maxNodes = 5
	}
	// Resolve term occurrences; a term with none means no covering tree.
	termIDs := make([]map[string][]storage.TupleID, len(terms))
	for i, term := range terms {
		occs := ix.Lookup(term)
		if len(occs) == 0 {
			return nil, nil
		}
		byRel := map[string][]storage.TupleID{}
		for _, o := range occs {
			byRel[o.Relation] = storage.UnionIDs(byRel[o.Relation], o.TupleIDs)
		}
		termIDs[i] = byRel
	}

	networks := enumerateNetworks(g, termIDs, maxNodes)
	var out []TupleTree
	ev := &netEvaluator{db: db, g: g, termIDs: termIDs}
	for _, nw := range networks {
		trees := ev.evaluate(nw, topK-len(out))
		out = append(out, trees...)
		if len(out) >= topK {
			break
		}
	}
	sortTrees(out)
	return out, nil
}

// enumerateNetworks grows candidate networks breadth-first: seeds are
// single term-annotated nodes of terms[0]; expansion either attaches a new
// node (free or term-annotated) via a schema join edge, or annotates
// nothing further. Complete networks (all terms covered, minimal) are
// collected smallest-first.
func enumerateNetworks(g *schemagraph.Graph, termIDs []map[string][]storage.TupleID, maxNodes int) []*netNode {
	adjacency := map[string][]string{}
	for _, e := range g.JoinEdges() {
		adjacency[e.From] = append(adjacency[e.From], e.To)
	}
	for rel := range adjacency {
		sort.Strings(adjacency[rel])
		adjacency[rel] = dedupeSorted(adjacency[rel])
	}
	termRels := make([][]string, len(termIDs))
	for i, byRel := range termIDs {
		for rel := range byRel {
			termRels[i] = append(termRels[i], rel)
		}
		sort.Strings(termRels[i])
	}

	var complete []*netNode
	seen := map[string]bool{}
	frontier := []*netNode{}
	for _, rel := range termRels[0] {
		frontier = append(frontier, &netNode{rel: rel, term: 0})
	}

	const maxNetworks = 64
	for len(frontier) > 0 && len(complete) < maxNetworks {
		var next []*netNode
		for _, nw := range frontier {
			key := nw.canon()
			if seen[key] {
				continue
			}
			seen[key] = true
			cov := map[int]bool{}
			nw.covered(cov)
			if len(cov) == len(termIDs) && nw.minimal() {
				complete = append(complete, nw)
				continue // grown supersets of a complete network add nothing
			}
			if nw.size() >= maxNodes {
				continue
			}
			// Budget prune: every uncovered term needs either a new node or
			// an annotatable free node already in the tree.
			uncovered := len(termIDs) - len(cov)
			annotatable := 0
			for _, at := range nw.flatten() {
				if at.term >= 0 {
					continue
				}
				for t := range termIDs {
					if !cov[t] {
						if _, ok := termIDs[t][at.rel]; ok {
							annotatable++
							break
						}
					}
				}
			}
			if uncovered > (maxNodes-nw.size())+annotatable {
				continue
			}
			// Expand: attach a new node to every existing node via every
			// adjacent relation; the new node is either free or annotated
			// with a still-uncovered term that occurs in that relation.
			for idx, at := range nw.flatten() {
				for _, adj := range adjacency[at.rel] {
					// Free node.
					next = append(next, attach(nw, idx, &netNode{rel: adj, term: -1}))
					// Term nodes.
					for t := range termIDs {
						if cov[t] {
							continue
						}
						if _, ok := termIDs[t][adj]; ok {
							next = append(next, attach(nw, idx, &netNode{rel: adj, term: t}))
						}
					}
				}
				// A node may itself cover an additional term (one tuple
				// containing several terms is handled at evaluation).
				if at.term >= 0 {
					continue
				}
				for t := range termIDs {
					if cov[t] {
						continue
					}
					if _, ok := termIDs[t][at.rel]; ok {
						annotated := nw.clone()
						annotated.flatten()[idx].term = t
						next = append(next, annotated)
					}
				}
			}
		}
		frontier = next
	}
	return complete
}

// attach clones the tree and adds child under the idx-th node (pre-order).
func attach(nw *netNode, idx int, child *netNode) *netNode {
	out := nw.clone()
	out.flatten()[idx].children = append(out.flatten()[idx].children, child)
	return out
}

// netEvaluator instantiates a candidate network on the data.
type netEvaluator struct {
	db      *storage.Database
	g       *schemagraph.Graph
	termIDs []map[string][]storage.TupleID
}

// evaluate returns up to limit tuple trees matching the network.
func (ev *netEvaluator) evaluate(nw *netNode, limit int) []TupleTree {
	if limit <= 0 {
		return nil
	}
	var out []TupleTree
	var assign func(nodes []*netNode, tuples []storage.TupleID) bool
	flat := nw.flatten()

	// candidates returns the tuple ids admissible for one node given the
	// tuple already bound to its parent (or all term tuples for the root).
	candidates := func(n *netNode, parent *netNode, parentID storage.TupleID) []storage.TupleID {
		var base []storage.TupleID
		if parent == nil {
			base = ev.termIDs[n.term][n.rel]
		} else {
			base = ev.joinFrom(parent.rel, parentID, n.rel)
		}
		if n.term < 0 || parent == nil {
			return base
		}
		want := map[storage.TupleID]bool{}
		for _, id := range ev.termIDs[n.term][n.rel] {
			want[id] = true
		}
		var out []storage.TupleID
		for _, id := range base {
			if want[id] {
				out = append(out, id)
			}
		}
		return out
	}

	parentOf := parentIndex(nw)
	assign = func(nodes []*netNode, tuples []storage.TupleID) bool {
		i := len(tuples)
		if i == len(nodes) {
			// Distinct tuples per node keep trees informative.
			seen := map[storage.TupleID]bool{}
			for _, id := range tuples {
				if seen[id] {
					return true
				}
				seen[id] = true
			}
			rels := make([]string, len(nodes))
			for j, n := range nodes {
				rels[j] = n.rel
			}
			out = append(out, TupleTree{
				Relations: rels,
				TupleIDs:  append([]storage.TupleID(nil), tuples...),
				Joins:     len(nodes) - 1,
			})
			return len(out) < limit
		}
		n := nodes[i]
		var parent *netNode
		var parentID storage.TupleID
		if pi := parentOf[i]; pi >= 0 {
			parent = nodes[pi]
			parentID = tuples[pi]
		}
		for _, id := range candidates(n, parent, parentID) {
			if !assign(nodes, append(tuples, id)) {
				return false
			}
		}
		return true
	}
	assign(flat, make([]storage.TupleID, 0, len(flat)))
	return out
}

// parentIndex maps each pre-order position to its parent's position
// (-1 for the root).
func parentIndex(nw *netNode) []int {
	var out []int
	var walk func(n *netNode, parent int)
	walk = func(n *netNode, parent int) {
		idx := len(out)
		out = append(out, parent)
		for _, c := range n.children {
			walk(c, idx)
		}
	}
	walk(nw, -1)
	return out
}

// joinFrom returns tuples of toRel joining the given tuple of fromRel via
// any schema join edge between the two relations.
func (ev *netEvaluator) joinFrom(fromRel string, fromID storage.TupleID, toRel string) []storage.TupleID {
	from := ev.db.Relation(fromRel)
	to := ev.db.Relation(toRel)
	if from == nil || to == nil {
		return nil
	}
	t, ok := from.Get(fromID)
	if !ok {
		return nil
	}
	var out []storage.TupleID
	seen := map[storage.TupleID]bool{}
	node := ev.g.Relation(fromRel)
	if node == nil {
		return nil
	}
	for _, e := range node.Out() {
		if e.To != toRel {
			continue
		}
		fi := from.Schema().ColumnIndex(e.FromCol)
		if fi < 0 {
			continue
		}
		v := t.Values[fi]
		if v.IsNull() {
			continue
		}
		ids, err := to.Lookup(e.ToCol, v)
		if err != nil {
			continue
		}
		for _, id := range ids {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func dedupeSorted(xs []string) []string {
	out := xs[:0]
	prev := ""
	for i, x := range xs {
		if i == 0 || x != prev {
			out = append(out, x)
		}
		prev = x
	}
	return out
}
