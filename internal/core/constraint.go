// Package core implements the paper's primary contribution: answering
// précis queries. It contains the Result Schema Generator (Figure 3), the
// Result Database Generator (Figure 5) with its NaïveQ and Round-Robin
// tuple-retrieval strategies, and the degree and cardinality constraints
// (Tables 1 and 2) that bound the schema and data size of an answer.
package core

import (
	"fmt"
	"math"
	"strings"

	"precis/internal/schemagraph"
)

// DegreeConstraint is the d(.) predicate of the paper (Table 1). The result
// schema generator considers candidate paths in decreasing weight order and
// asks whether the ordered prefix P_d ∪ {p} still satisfies the constraint.
// selected contains the projection paths accepted so far; candidate may be a
// projection path (about to be accepted) or a join path (about to be
// expanded — accepting it must leave room for at least one more projection,
// otherwise expansion is pointless and the path is pruned).
type DegreeConstraint interface {
	Accept(selected []*schemagraph.Path, candidate *schemagraph.Path) bool
	String() string
}

// topProjections implements "t <= r": at most r top-weighted projections.
type topProjections struct{ r int }

// TopProjections keeps the r top-weighted projection paths.
func TopProjections(r int) DegreeConstraint { return topProjections{r} }

func (c topProjections) Accept(selected []*schemagraph.Path, candidate *schemagraph.Path) bool {
	if candidate.IsProjection() {
		return len(selected)+1 <= c.r
	}
	return len(selected) < c.r
}

func (c topProjections) String() string { return fmt.Sprintf("t <= %d", c.r) }

// maxAttributes implements the degree used in the paper's Figure 7
// experiment: the maximum number of distinct attributes projected in the
// answer — paths are taken until that many have been collected. It differs
// from TopProjections when several paths project the same attribute.
//
// Accept is called once per candidate path with an append-only selected
// slice, so the distinct-attribute set is memoized incrementally: the cache
// is valid while selected is a same-backing extension of the slice it was
// built from, and rebuilt from scratch otherwise.
type maxAttributes struct {
	n int

	cachedFrom []*schemagraph.Path // prefix the cache was built over
	attrs      map[string]bool
}

// MaxAttributes bounds the number of distinct projected attributes. The
// returned constraint carries a memo and must not be shared between
// concurrent generator runs; create one per query.
func MaxAttributes(n int) DegreeConstraint { return &maxAttributes{n: n} }

func (c *maxAttributes) distinct(selected []*schemagraph.Path) map[string]bool {
	valid := c.attrs != nil && len(c.cachedFrom) <= len(selected)
	if valid && len(c.cachedFrom) > 0 && c.cachedFrom[0] != selected[0] {
		valid = false
	}
	if valid {
		// Extend over the newly appended suffix only.
		for _, p := range selected[len(c.cachedFrom):] {
			c.attrs[p.Proj.Key()] = true
		}
	} else {
		c.attrs = make(map[string]bool, len(selected))
		for _, p := range selected {
			c.attrs[p.Proj.Key()] = true
		}
	}
	c.cachedFrom = selected
	return c.attrs
}

func (c *maxAttributes) Accept(selected []*schemagraph.Path, _ *schemagraph.Path) bool {
	return len(c.distinct(selected)) < c.n
}

func (c *maxAttributes) String() string { return fmt.Sprintf("attrs <= %d", c.n) }

// minPathWeight implements "w_t >= w0": only projections whose transitive
// path weight meets the threshold. The paper recommends it as the constraint
// most immune to database restructuring (§3.4).
type minPathWeight struct{ w float64 }

// MinPathWeight keeps projections with path weight >= w.
func MinPathWeight(w float64) DegreeConstraint { return minPathWeight{w} }

func (c minPathWeight) Accept(_ []*schemagraph.Path, candidate *schemagraph.Path) bool {
	return candidate.Weight() >= c.w
}

func (c minPathWeight) String() string { return fmt.Sprintf("w >= %v", c.w) }

// maxPathLength implements "length(p_t) <= l0".
type maxPathLength struct{ l int }

// MaxPathLength keeps projection paths of length at most l (a join path of
// length l-1 may still grow a projection edge, so join paths pass while
// strictly shorter than l).
func MaxPathLength(l int) DegreeConstraint { return maxPathLength{l} }

func (c maxPathLength) Accept(_ []*schemagraph.Path, candidate *schemagraph.Path) bool {
	if candidate.IsProjection() {
		return candidate.Len() <= c.l
	}
	return candidate.Len() < c.l
}

func (c maxPathLength) String() string { return fmt.Sprintf("len <= %d", c.l) }

// allDegree combines constraints conjunctively.
type allDegree struct{ cs []DegreeConstraint }

// AllDegree requires every constraint to hold.
func AllDegree(cs ...DegreeConstraint) DegreeConstraint { return allDegree{cs} }

func (c allDegree) Accept(selected []*schemagraph.Path, candidate *schemagraph.Path) bool {
	for _, d := range c.cs {
		if !d.Accept(selected, candidate) {
			return false
		}
	}
	return true
}

func (c allDegree) String() string {
	parts := make([]string, len(c.cs))
	for i, d := range c.cs {
		parts[i] = d.String()
	}
	return strings.Join(parts, " and ")
}

// CardinalityConstraint is the c(.) predicate of the paper (Table 2). The
// result database generator asks for the remaining tuple budget of a
// relation given the tuples placed so far.
type CardinalityConstraint interface {
	// Budget returns how many more tuples may be added to rel, given the
	// current per-relation counts and total count. math.MaxInt means
	// unlimited.
	Budget(rel string, perRel map[string]int, total int) int
	String() string
}

// maxTuplesPerRelation implements "card(R_t) <= c0".
type maxTuplesPerRelation struct{ c int }

// MaxTuplesPerRelation caps every result relation at c tuples.
func MaxTuplesPerRelation(c int) CardinalityConstraint { return maxTuplesPerRelation{c} }

func (k maxTuplesPerRelation) Budget(rel string, perRel map[string]int, _ int) int {
	b := k.c - perRel[rel]
	if b < 0 {
		return 0
	}
	return b
}

func (k maxTuplesPerRelation) String() string { return fmt.Sprintf("card(R) <= %d", k.c) }

// maxTotalTuples implements "card(D') <= c0".
type maxTotalTuples struct{ c int }

// MaxTotalTuples caps the whole result database at c tuples.
func MaxTotalTuples(c int) CardinalityConstraint { return maxTotalTuples{c} }

func (k maxTotalTuples) Budget(_ string, _ map[string]int, total int) int {
	b := k.c - total
	if b < 0 {
		return 0
	}
	return b
}

func (k maxTotalTuples) String() string { return fmt.Sprintf("card(D) <= %d", k.c) }

// unlimited imposes no bound.
type unlimited struct{}

// Unlimited imposes no cardinality bound.
func Unlimited() CardinalityConstraint { return unlimited{} }

func (unlimited) Budget(string, map[string]int, int) int { return math.MaxInt }
func (unlimited) String() string                         { return "unbounded" }

// allCardinality combines constraints conjunctively (minimum budget wins),
// the paper's "a combination of those is also possible".
type allCardinality struct{ cs []CardinalityConstraint }

// AllCardinality requires every constraint to hold.
func AllCardinality(cs ...CardinalityConstraint) CardinalityConstraint { return allCardinality{cs} }

func (k allCardinality) Budget(rel string, perRel map[string]int, total int) int {
	b := math.MaxInt
	for _, c := range k.cs {
		if cb := c.Budget(rel, perRel, total); cb < b {
			b = cb
		}
	}
	return b
}

func (k allCardinality) String() string {
	parts := make([]string, len(k.cs))
	for i, c := range k.cs {
		parts[i] = c.String()
	}
	return strings.Join(parts, " and ")
}
