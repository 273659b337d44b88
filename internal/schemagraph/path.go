package schemagraph

import (
	"strings"
)

// Path is a directed path on the schema graph starting at a relation node.
// A path whose Proj is nil is a (transitive) join path between relations; a
// path with Proj set is a (transitive) projection path ending at an
// attribute node (§3.2). Path weight is the product of constituent edge
// weights, so weight never increases as a path grows.
type Path struct {
	Start  string
	Joins  []*JoinEdge
	Proj   *Projection
	weight float64
}

// NewPath returns the empty join path anchored at a relation (weight 1).
func NewPath(start string) *Path {
	return &Path{Start: start, weight: 1}
}

// Weight returns the multiplicative weight of the path.
func (p *Path) Weight() float64 { return p.weight }

// IsProjection reports whether the path ends in a projection edge.
func (p *Path) IsProjection() bool { return p.Proj != nil }

// End returns the last relation node of the path (the projection target's
// container for projection paths).
func (p *Path) End() string {
	if len(p.Joins) == 0 {
		return p.Start
	}
	return p.Joins[len(p.Joins)-1].To
}

// Len returns the number of edges in the path (join edges plus the final
// projection edge if present), the paper's path length.
func (p *Path) Len() int {
	n := len(p.Joins)
	if p.Proj != nil {
		n++
	}
	return n
}

// Visits reports whether the path touches the named relation node.
func (p *Path) Visits(rel string) bool {
	if p.Start == rel {
		return true
	}
	for _, e := range p.Joins {
		if e.To == rel {
			return true
		}
	}
	return false
}

// RelationSeq returns the sequence of relation nodes the path traverses.
func (p *Path) RelationSeq() []string {
	out := make([]string, 0, len(p.Joins)+1)
	out = append(out, p.Start)
	for _, e := range p.Joins {
		out = append(out, e.To)
	}
	return out
}

// ExtendJoin returns a new path with e appended. It returns nil when the
// extension would revisit a relation (paths must be acyclic) or when e does
// not attach to the path's end.
func (p *Path) ExtendJoin(e *JoinEdge) *Path {
	if p.Proj != nil {
		return nil // projection paths are terminal
	}
	if e.From != p.End() {
		return nil
	}
	if p.Visits(e.To) {
		return nil
	}
	joins := make([]*JoinEdge, len(p.Joins)+1)
	copy(joins, p.Joins)
	joins[len(p.Joins)] = e
	return &Path{Start: p.Start, Joins: joins, weight: p.weight * e.Weight}
}

// ExtendProjection returns a new projection path with pr appended, or nil
// when pr's container is not the path's end relation.
func (p *Path) ExtendProjection(pr *Projection) *Path {
	if p.Proj != nil {
		return nil
	}
	if pr.Relation != p.End() {
		return nil
	}
	return &Path{Start: p.Start, Joins: p.Joins, Proj: pr, weight: p.weight * pr.Weight}
}

// appendPieces appends the strings the path's text is made of: the start
// relation, " -> " and the target of every join, "." and the attribute of the
// projection.
func (p *Path) appendPieces(dst []string) []string {
	dst = append(dst, p.Start)
	for _, e := range p.Joins {
		dst = append(dst, " -> ", e.To)
	}
	if p.Proj != nil {
		dst = append(dst, ".", p.Proj.Attribute)
	}
	return dst
}

// String renders the path as START -> R1 -> R2[.attr].
func (p *Path) String() string {
	var buf [16]string
	return strings.Join(p.appendPieces(buf[:0]), "")
}

// Less orders candidate paths the way the result schema algorithm requires:
// by decreasing weight; among equal weights, by increasing length (shorter
// paths connect more closely related entities); remaining ties break on the
// rendered path text for determinism — p.String() < q.String(), decided
// without rendering either — and, between two paths that read the same
// because they took parallel join edges, on the keys of those edges.
func (p *Path) Less(q *Path) bool {
	if p.weight != q.weight {
		return p.weight > q.weight
	}
	if p.Len() != q.Len() {
		return p.Len() < q.Len()
	}
	var a, b [16]string
	if c := textCompare(p.appendPieces(a[:0]), q.appendPieces(b[:0])); c != 0 {
		return c < 0
	}
	for i, e := range p.Joins {
		ek, ok := e.keyPieces(), q.Joins[i].keyPieces()
		if c := textCompare(ek[:], ok[:]); c != 0 {
			return c < 0
		}
	}
	return false
}

// textCompare compares the concatenation of a with the concatenation of b,
// piece against piece.
func textCompare(a, b []string) int {
	var x, y string // what is left of the current piece of a and of b
	for {
		for x == "" && len(a) > 0 {
			x, a = a[0], a[1:]
		}
		for y == "" && len(b) > 0 {
			y, b = b[0], b[1:]
		}
		if x == "" || y == "" {
			return len(x) - len(y)
		}
		n := min(len(x), len(y))
		if c := strings.Compare(x[:n], y[:n]); c != 0 {
			return c
		}
		x, y = x[n:], y[n:]
	}
}
