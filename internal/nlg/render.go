package nlg

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"precis/internal/core"
	"precis/internal/invidx"
	"precis/internal/schemagraph"
	"precis/internal/storage"
)

// Renderer synthesizes the narrative form of a précis. Translation is
// realized separately for every occurrence of a token (paper §5.3): the
// narrative starts at the relation containing the token, renders the clause
// of that relation (heading attribute first), then composes clauses for the
// foreign-key relationships of the result schema graph, carrying the
// subject through heading-less junction relations.
type Renderer struct {
	// Macros are available to every template (MOVIE_LIST etc.).
	Macros Macros
	// MaxClauses caps narrative length per occurrence; 0 means the default
	// of 64. A précis "may be incomplete in many ways" (§1) — the cap keeps
	// big results readable.
	MaxClauses int

	// cache memoizes parsed label/sentence templates by source text; safe
	// under the concurrent queries the précis engine allows.
	cache sync.Map
}

// parse returns the cached parse of a template source.
func (r *Renderer) parse(src string) (*Template, error) {
	if v, ok := r.cache.Load(src); ok {
		return v.(*Template), nil
	}
	t, err := ParseTemplate(src)
	if err != nil {
		return nil, err
	}
	r.cache.Store(src, t)
	return t, nil
}

// NewRenderer returns a Renderer with an empty macro registry.
func NewRenderer() *Renderer { return &Renderer{Macros: Macros{}} }

// DefineMacro parses and registers a "DEFINE NAME as ..." macro.
func (r *Renderer) DefineMacro(def string) error {
	name, t, err := ParseDefine(def)
	if err != nil {
		return err
	}
	r.Macros[name] = t
	return nil
}

// Narrative renders the result database for the given token occurrences
// (as returned by the inverted index). Each occurrence of the token yields
// one paragraph; paragraphs are separated by blank lines. A tuple matched
// by several occurrences (two query terms, or two attributes of one tuple)
// is narrated once, at its first position.
//
// Partial answers (rd.Partial(), a resource budget truncated generation)
// render as well-formed narratives: clauses whose joined tuples were cut
// simply do not appear — the clause walk only follows edges to tuples that
// actually made it into the result database, so dangling references are
// trimmed rather than rendered half-empty — and a truncation note naming
// the exhausted budget dimension is appended as a final paragraph.
func (r *Renderer) Narrative(rd *core.ResultDatabase, occs []invidx.Occurrence) (string, error) {
	n := &narration{r: r, rd: rd, rels: map[string]*relInfo{}}
	type seed struct {
		rel string
		id  storage.TupleID
	}
	narrated := map[seed]bool{}
	var paragraphs []string
	for _, occ := range occs {
		ri := n.rel(occ.Relation)
		if ri.rel == nil {
			continue
		}
		for _, id := range occ.TupleIDs {
			t, ok := ri.rel.Get(id)
			if !ok || narrated[seed{occ.Relation, id}] {
				continue // cut by the cardinality constraint or budget, or already told
			}
			narrated[seed{occ.Relation, id}] = true
			p, err := n.paragraph(ri, t)
			if err != nil {
				return "", err
			}
			if p != "" {
				paragraphs = append(paragraphs, p)
			}
		}
	}
	if note := truncationNote(rd.Truncation); note != "" {
		paragraphs = append(paragraphs, note)
	}
	return strings.Join(paragraphs, "\n\n"), nil
}

// truncationNote phrases a budget cut for the reader; empty for complete
// answers.
func truncationNote(reason core.TruncationReason) string {
	switch reason {
	case core.TruncateNone:
		return ""
	case core.TruncateDeadline:
		return "(This answer was truncated: the time budget ran out; some related information is omitted.)"
	case core.TruncateTupleBudget:
		return "(This answer was truncated: the tuple budget ran out; some related information is omitted.)"
	case core.TruncateStepBudget:
		return "(This answer was truncated: the join budget ran out; some related information is omitted.)"
	case core.TruncateByteBudget:
		return "(This answer was truncated: the size budget ran out; some related information is omitted.)"
	default:
		return "(This answer was truncated; some related information is omitted.)"
	}
}

// maxClauses resolves the clause cap.
func (r *Renderer) maxClauses() int {
	if r.MaxClauses > 0 {
		return r.MaxClauses
	}
	return 64
}

// narration is the state of one Narrative call: per-relation metadata, built
// lazily and dropped with the call (an error abandons it mid-walk), so the
// shared Renderer stays stateless. Joins probe the hash indexes the result
// database already carries on the join columns of G′, so the walk is linear
// in the result database.
type narration struct {
	r    *Renderer
	rd   *core.ResultDatabase
	rels map[string]*relInfo
	ids  []storage.TupleID // joinTuples' probe buffer, reused across calls
}

// relInfo is what the walk needs to know about one relation of G′.
type relInfo struct {
	name   string
	rel    *storage.Relation         // nil if the result database lacks it
	node   *schemagraph.RelationNode // nil if G′ lacks it
	cols   map[string]int            // upper-cased column name -> position
	edges  []*schemagraph.JoinEdge   // out-edges by decreasing weight, then key
	onPath bool                      // the walk is currently below this relation
}

func (n *narration) rel(name string) *relInfo {
	if ri, ok := n.rels[name]; ok {
		return ri
	}
	ri := &relInfo{name: name, rel: n.rd.DB.Relation(name), node: n.rd.Schema.Graph.Relation(name)}
	if ri.rel != nil {
		ri.cols = make(map[string]int, len(ri.rel.Schema().Columns))
		for ci, col := range ri.rel.Schema().Columns {
			ri.cols[strings.ToUpper(col.Name)] = ci
		}
	}
	if ri.node != nil {
		ri.edges = ri.node.Out()
		sort.SliceStable(ri.edges, func(i, j int) bool {
			if ri.edges[i].Weight != ri.edges[j].Weight {
				return ri.edges[i].Weight > ri.edges[j].Weight
			}
			return ri.edges[i].Key() < ri.edges[j].Key()
		})
	}
	n.rels[name] = ri
	return ri
}

// frame binds the columns of one relation to a group of its tuples; a chain
// of frames is the rendering context of a clause. @ATTR resolves to the
// newest frame whose relation has that column — an all-NULL group shadows an
// older binding with an empty list — and a column's value list is
// materialised only when a template reads it.
type frame struct {
	parent *frame
	rel    *relInfo
	group  []storage.Tuple
	cols   [][]string // value lists read so far, by column position
}

func (f *frame) values(name string) []string {
	for ; f != nil; f = f.parent {
		ci, ok := f.rel.cols[name]
		if !ok {
			continue
		}
		if f.cols == nil {
			f.cols = make([][]string, len(f.rel.rel.Schema().Columns))
		}
		if f.cols[ci] == nil {
			vals := make([]string, 0, len(f.group))
			for _, t := range f.group {
				if v := t.Values[ci]; !v.IsNull() {
					vals = append(vals, v.String())
				}
			}
			f.cols[ci] = vals
		}
		return f.cols[ci]
	}
	return nil
}

// paragraph renders the clauses for one seed tuple.
func (n *narration) paragraph(ri *relInfo, seed storage.Tuple) (string, error) {
	var clauses []string

	// Clause 1: the relation's own sentence, heading attribute first.
	group := []storage.Tuple{seed}
	sentence := ""
	if ri.node != nil && ri.node.Sentence != "" {
		t, err := n.r.parse(ri.node.Sentence)
		if err != nil {
			return "", fmt.Errorf("nlg: sentence template of %s: %w", ri.name, err)
		}
		sentence, err = t.render(&frame{rel: ri, group: group}, n.r.Macros)
		if err != nil {
			return "", err
		}
	} else {
		sentence = n.r.defaultSentence(n.rd, ri.name, seed)
	}
	if s := strings.TrimSpace(sentence); s != "" {
		clauses = append(clauses, s)
	}

	// No outer subject: expand binds the seed as the group of its relation.
	ri.onPath = true
	sub, err := n.expand(ri, group, nil, n.r.maxClauses()-len(clauses))
	ri.onPath = false
	if err != nil {
		return "", err
	}
	clauses = append(clauses, sub...)
	return strings.Join(clauses, " "), nil
}

// expand walks the join edges of the result schema from rel, composing
// clauses that combine information from joined relations (§5.3: "each of
// these clauses has as subject the heading attribute of the relation that
// has the primary key").
func (n *narration) expand(from *relInfo, anchors []storage.Tuple, subject *frame, budget int) ([]string, error) {
	if budget <= 0 || len(anchors) == 0 || from.node == nil {
		return nil, nil
	}
	// One group per anchor tuple when this relation has a heading, so each
	// subject keeps its own clauses; else all anchors form one group.
	step := len(anchors)
	if from.node.Heading != "" {
		step = 1
	}
	var clauses []string
	for _, e := range from.edges {
		to := n.rel(e.To)
		if to.onPath {
			continue
		}
		// A heading-less relation with no label is a pure junction (CAST,
		// PLAY): traverse through it without a clause of its own; the
		// current group stays the subject on the far side.
		through := to.node != nil && to.node.Heading == "" && e.Label == ""
		to.onPath = true
		for i := 0; i < len(anchors) && budget > 0; i += step {
			group := anchors[i : i+step]
			joined, err := n.joinTuples(from, to, e, group)
			if err != nil {
				return nil, err
			}
			if len(joined) == 0 {
				continue
			}
			bound := &frame{parent: subject, rel: from, group: group}
			if !through {
				clause, err := n.joinClause(e, group, joined, &frame{parent: bound, rel: to, group: joined})
				if err != nil {
					return nil, err
				}
				if c := strings.TrimSpace(clause); c != "" {
					clauses = append(clauses, c)
					budget--
				}
			}
			// Recurse with the joined tuples as anchors; the subject for
			// deeper clauses is the current group's bindings.
			sub, err := n.expand(to, joined, bound, budget)
			if err != nil {
				return nil, err
			}
			clauses = append(clauses, sub...)
			budget -= len(sub)
		}
		to.onPath = false
	}
	return clauses, nil
}

// joinClause renders the clause of edge e for one group and its joined
// tuples: the annotated label against ctx, or the generic fallback.
func (n *narration) joinClause(e *schemagraph.JoinEdge, group, joined []storage.Tuple, ctx *frame) (string, error) {
	if e.Label == "" {
		return n.r.defaultJoinClause(n.rd, e.From, e.To, group, joined), nil
	}
	t, err := n.r.parse(e.Label)
	if err != nil {
		return "", fmt.Errorf("nlg: label of %s: %w", e.Key(), err)
	}
	return t.render(ctx, n.r.Macros)
}

// joinTuples returns the tuples of e.To in the result database joining any
// anchor tuple via e, in tuple-id order (the id order of the source database
// is its insertion order, which keeps lists stable regardless of which join
// populated the result relation first). NULLs join nothing. Each anchor
// value is one AppendLookup on the result relation: a probe of the hash
// index a generated result database carries on e.ToCol, a scan of the
// relation when a hand-built one has none — slower, the same tuples. A
// failed lookup fails the narrative; it never drops a clause.
func (n *narration) joinTuples(from, to *relInfo, e *schemagraph.JoinEdge, anchors []storage.Tuple) ([]storage.Tuple, error) {
	if to.rel == nil || !to.rel.Schema().HasColumn(e.ToCol) {
		return nil, nil
	}
	fi := from.rel.Schema().ColumnIndex(e.FromCol)
	if fi < 0 {
		return nil, nil
	}
	ids := n.ids[:0]
	for _, a := range anchors {
		v := a.Values[fi]
		if v.IsNull() {
			continue
		}
		var err error
		if ids, err = to.rel.AppendLookup(ids, e.ToCol, v); err != nil {
			return nil, fmt.Errorf("nlg: join %s: %w", e.Key(), err)
		}
	}
	if len(anchors) > 1 {
		// One posting list is already in id order; several are merged, and
		// anchors sharing a value brought the same list twice.
		slices.Sort(ids)
		ids = slices.Compact(ids)
	}
	n.ids = ids
	if len(ids) == 0 {
		return nil, nil
	}
	out := make([]storage.Tuple, 0, len(ids))
	for _, id := range ids {
		if t, ok := to.rel.Get(id); ok {
			out = append(out, t)
		}
	}
	return out, nil
}

// defaultSentence renders a fallback clause for a relation without an
// annotated sentence template.
func (r *Renderer) defaultSentence(rd *core.ResultDatabase, rel string, t storage.Tuple) string {
	relation := rd.DB.Relation(rel)
	node := rd.Schema.Graph.Relation(rel)
	heading := ""
	if node != nil {
		heading = node.Heading
	}
	var head string
	var rest []string
	for _, col := range rd.DisplayColumns(rel) {
		ci := relation.Schema().ColumnIndex(col)
		if ci < 0 {
			continue
		}
		v := t.Values[ci]
		if v.IsNull() {
			continue
		}
		if col == heading {
			head = v.String()
			continue
		}
		rest = append(rest, fmt.Sprintf("%s: %s", col, v.String()))
	}
	switch {
	case head != "" && len(rest) > 0:
		return fmt.Sprintf("%s (%s).", head, strings.Join(rest, "; "))
	case head != "":
		return head + "."
	case len(rest) > 0:
		return fmt.Sprintf("%s (%s).", rel, strings.Join(rest, "; "))
	default:
		return ""
	}
}

// defaultJoinClause renders a fallback clause for a join edge without an
// annotated label: the heading values of the joined tuples attached to the
// anchor's heading.
func (r *Renderer) defaultJoinClause(rd *core.ResultDatabase, from, to string, anchors, joined []storage.Tuple) string {
	subjects := r.headingValues(rd, from, anchors)
	objects := r.headingValues(rd, to, joined)
	if len(objects) == 0 {
		return ""
	}
	name := strings.ToLower(to)
	if len(subjects) == 0 {
		return fmt.Sprintf("Related %s: %s.", name, strings.Join(objects, ", "))
	}
	return fmt.Sprintf("The %s of %s: %s.", name, strings.Join(subjects, ", "), strings.Join(objects, ", "))
}

// headingValues extracts heading-attribute values (or first display column)
// of the tuples; for anchors it returns the single subject string.
func (r *Renderer) headingValues(rd *core.ResultDatabase, rel string, tuples []storage.Tuple) []string {
	relation := rd.DB.Relation(rel)
	node := rd.Schema.Graph.Relation(rel)
	if relation == nil {
		return nil
	}
	col := ""
	if node != nil && node.Heading != "" {
		col = node.Heading
	} else if disp := rd.DisplayColumns(rel); len(disp) > 0 {
		col = disp[0]
	}
	ci := relation.Schema().ColumnIndex(col)
	if ci < 0 {
		return nil
	}
	var out []string
	for _, t := range tuples {
		if v := t.Values[ci]; !v.IsNull() {
			out = append(out, v.String())
		}
	}
	return out
}
