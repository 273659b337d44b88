package nlg

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

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
	p := bufPool.Get().(*[]byte)
	n := &narration{r: r, rd: rd, rels: relInfos(rd), buf: (*p)[:0], maxClauses: r.maxClauses()}
	err := n.narrate(occs)
	out := ""
	if err == nil {
		out = string(n.buf)
	}
	putBuf(p, n.buf)
	return out, err
}

// narrate appends the paragraphs of every occurrence, then the truncation
// note, to n.buf.
func (n *narration) narrate(occs []invidx.Occurrence) error {
	type seed struct {
		rel string
		id  storage.TupleID
	}
	narrated := map[seed]bool{}
	for _, occ := range occs {
		ri := n.rel(occ.Relation)
		if ri == nil || ri.rel == nil {
			continue
		}
		for _, id := range occ.TupleIDs {
			t, ok := ri.rel.Get(id)
			if !ok || narrated[seed{occ.Relation, id}] {
				continue // cut by the cardinality constraint or budget, or already told
			}
			narrated[seed{occ.Relation, id}] = true
			if err := n.paragraph(ri, t); err != nil {
				return err
			}
			if n.clauses > 0 {
				n.paragraphs++
			}
		}
	}
	if note := truncationNote(n.rd.Truncation); note != "" {
		n.clauses = 0
		n.buf = append(n.buf, n.separator()...)
		n.buf = append(n.buf, note...)
	}
	return nil
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
// when the call starts and dropped with it (an error abandons it mid-walk),
// so the shared Renderer stays stateless. Joins probe the indexes the result
// database already carries on the join columns of G′, so the walk is linear
// in the result database.
//
// The narrative is written front to back into buf (a pooled scratch buffer
// Narrative copies out of once): a clause is rendered at its end, trimmed in
// place, and dropped together with its separator when nothing is left.
type narration struct {
	r    *Renderer
	rd   *core.ResultDatabase
	rels []relInfo // never grown: frames and the walk hold pointers into it

	buf        []byte
	paragraphs int // non-empty paragraphs finished so far
	clauses    int // clauses kept in the paragraph being written
	maxClauses int // a paragraph stops growing here

	ids    []storage.TupleID // joinTuples' probe buffer, reused across calls
	tuples []storage.Tuple   // stack of tuple groups; one is dead when the loop iteration that joined it ends
	frames []*frame          // stack of binding frames, reused the same way, made eight at a time
	used   int               // frames[:used] are live
}

// separator is what goes before the next clause: nothing at the very start,
// a blank line before a paragraph's first clause, a space otherwise.
func (n *narration) separator() string {
	switch {
	case n.clauses > 0:
		return " "
	case n.paragraphs > 0:
		return "\n\n"
	default:
		return ""
	}
}

// beginClause appends the separator of the next clause and returns where
// the separator and the clause start, for endClause.
func (n *narration) beginClause() (mark, start int) {
	mark = len(n.buf)
	n.buf = append(n.buf, n.separator()...)
	return mark, len(n.buf)
}

// endClause trims the white space around the clause rendered since
// beginClause (in place, as strings.TrimSpace would) and counts it; an empty
// clause goes uncounted, and its separator with it.
func (n *narration) endClause(mark, start int) {
	clause := bytes.TrimRightFunc(n.buf[start:], unicode.IsSpace)
	trimmed := bytes.TrimLeftFunc(clause, unicode.IsSpace)
	if len(trimmed) == 0 {
		n.buf = n.buf[:mark]
		return
	}
	if len(trimmed) < len(clause) {
		copy(clause, trimmed)
	}
	n.buf = n.buf[:start+len(trimmed)]
	n.clauses++
}

// bind pushes a frame binding rel's columns to group below parent.
func (n *narration) bind(parent *frame, rel *relInfo, group []storage.Tuple) *frame {
	if n.used == len(n.frames) {
		block := make([]frame, 8)
		for i := range block {
			n.frames = append(n.frames, &block[i])
		}
	}
	f := n.frames[n.used]
	n.used++
	*f = frame{parent: parent, rel: rel, group: group}
	return f
}

// relInfo is what the walk needs to know about one relation of G′.
type relInfo struct {
	name   string
	rel    *storage.Relation         // nil if the result database lacks it
	node   *schemagraph.RelationNode // nil if G′ lacks it
	edges  []*schemagraph.JoinEdge   // out-edges by decreasing weight, then key
	onPath bool                      // the walk is currently below this relation
	// asked remembers the first eight names column resolved, hit or miss, so a
	// template's @ATTR costs one scan of the schema per call, not one per value.
	asked [8]struct {
		name string
		ci   int
	}
	nAsked int
}

// relInfos describes every relation of G′, then those only the result
// database has, in one slice.
func relInfos(rd *core.ResultDatabase) []relInfo {
	g := rd.Schema.Graph
	names := g.Relations()
	edges := outEdges(g, names)
	for _, name := range rd.DB.RelationNames() {
		if g.Relation(name) == nil {
			names = append(names, name)
		}
	}
	rels := make([]relInfo, len(names))
	for i, name := range names {
		rels[i] = relInfo{name: name, rel: rd.DB.Relation(name), node: g.Relation(name)}
		if node := rels[i].node; node != nil {
			n := len(node.Out())
			rels[i].edges, edges = edges[:n:n], edges[n:]
		}
	}
	return rels
}

type outEdgesKey struct{}

// outEdges returns the join edges of g relation by relation (names, in
// order), each relation's by decreasing weight, then key. A frozen G′ is
// sorted once: the slice is read only.
func outEdges(g *schemagraph.Graph, names []string) []*schemagraph.JoinEdge {
	if v, ok := g.Memo(outEdgesKey{}); ok {
		return v.([]*schemagraph.JoinEdge)
	}
	all := g.JoinEdges()
	rest := all
	for _, name := range names {
		n := len(g.Relation(name).Out())
		slices.SortStableFunc(rest[:n], func(a, b *schemagraph.JoinEdge) int {
			switch {
			case a.Weight != b.Weight:
				return cmp.Compare(b.Weight, a.Weight)
			case a.KeyLess(b):
				return -1
			case b.KeyLess(a):
				return 1
			}
			return 0
		})
		rest = rest[n:]
	}
	if g.Frozen() { // asked first: handing Memoise the slice boxes it, kept or not
		all = g.Memoise(outEdgesKey{}, all).([]*schemagraph.JoinEdge)
	}
	return all
}

// rel returns the named relation's entry, nil for a name neither G′ nor the
// result database knows.
func (n *narration) rel(name string) *relInfo {
	for i := range n.rels {
		if n.rels[i].name == name {
			return &n.rels[i]
		}
	}
	return nil
}

// column returns the position of the column a template calls name — column
// names match upper-cased, and of two that collide the later one is meant —
// or -1.
func (ri *relInfo) column(name string) int {
	for _, a := range ri.asked[:ri.nAsked] {
		if a.name == name {
			return a.ci
		}
	}
	ci := -1
	if ri.rel != nil {
		cols := ri.rel.Schema().Columns
		for ci = len(cols) - 1; ci >= 0 && !isUpperOf(cols[ci].Name, name); ci-- {
		}
	}
	if ri.nAsked < len(ri.asked) {
		ri.asked[ri.nAsked].name, ri.asked[ri.nAsked].ci = name, ci
		ri.nAsked++
	}
	return ci
}

// isUpperOf reports strings.ToUpper(s) == upper, building nothing when s is
// ASCII.
func isUpperOf(s, upper string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return strings.ToUpper(s) == upper
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if i >= len(upper) || upper[i] != c {
			return false
		}
	}
	return len(s) == len(upper)
}

// frame binds the columns of one relation to a group of its tuples; a chain
// of frames is the rendering context of a clause. @ATTR resolves to the
// newest frame whose relation has that column — an all-NULL group shadows an
// older binding with an empty list — and its values are appended straight
// from the group's tuples, NULLs skipped.
type frame struct {
	parent *frame
	rel    *relInfo
	group  []storage.Tuple
	// counts[ci] is one more than the number of non-NULL values of column ci
	// in group, 0 while nobody asked. A column past the array is counted on
	// every read.
	counts [12]int32
}

// column resolves an attribute name to the frame that binds it and the
// column's position there; nil when no frame of the chain has it.
func (f *frame) column(name string) (*frame, int) {
	for ; f != nil; f = f.parent {
		if ci := f.rel.column(name); ci >= 0 {
			return f, ci
		}
	}
	return nil, 0
}

// count is the number of non-NULL values of column ci in the group.
func (f *frame) count(ci int) int {
	if ci < len(f.counts) && f.counts[ci] > 0 {
		return int(f.counts[ci] - 1)
	}
	c := 0
	for _, t := range f.group {
		if !t.Values[ci].IsNull() {
			c++
		}
	}
	if ci < len(f.counts) {
		f.counts[ci] = int32(c + 1)
	}
	return c
}

func (f *frame) arity(name string) int {
	b, ci := f.column(name)
	if b == nil {
		return 0
	}
	return b.count(ci)
}

func (f *frame) appendValue(dst []byte, name string, i int) []byte {
	b, ci := f.column(name)
	if b.count(ci) < len(b.group) {
		// NULLs in the column: the i-th value that is not one.
		for k, t := range b.group {
			if t.Values[ci].IsNull() {
				continue
			}
			if i == 0 {
				i = k
				break
			}
			i--
		}
	}
	return b.group[i].Values[ci].AppendText(dst)
}

// paragraph renders the clauses for one seed tuple; n.clauses counts the ones
// it kept.
func (n *narration) paragraph(ri *relInfo, seed storage.Tuple) error {
	n.clauses = 0
	n.tuples = append(n.tuples[:0], seed)
	group := n.tuples
	n.used = 0 // both stacks start over: the last paragraph is finished

	// Clause 1: the relation's own sentence, heading attribute first.
	mark, start := n.beginClause()
	if ri.node != nil && ri.node.Sentence != "" {
		t, err := n.r.parse(ri.node.Sentence)
		if err != nil {
			return fmt.Errorf("nlg: sentence template of %s: %w", ri.name, err)
		}
		n.buf, err = t.appendTo(n.buf, n.bind(nil, ri, group), n.r.Macros)
		if err != nil {
			return err
		}
	} else {
		n.buf = append(n.buf, n.r.defaultSentence(n.rd, ri.name, seed)...)
	}
	n.endClause(mark, start)

	// No outer subject: expand binds the seed as the group of its relation.
	ri.onPath = true
	err := n.expand(ri, group, nil)
	ri.onPath = false
	return err
}

// expand walks the join edges of the result schema from rel, composing
// clauses that combine information from joined relations (§5.3: "each of
// these clauses has as subject the heading attribute of the relation that
// has the primary key"). It stops when the paragraph has maxClauses clauses.
func (n *narration) expand(from *relInfo, anchors []storage.Tuple, subject *frame) error {
	if n.clauses >= n.maxClauses || len(anchors) == 0 || from.node == nil {
		return nil
	}
	// One group per anchor tuple when this relation has a heading, so each
	// subject keeps its own clauses; else all anchors form one group.
	step := len(anchors)
	if from.node.Heading != "" {
		step = 1
	}
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
		for i := 0; i < len(anchors) && n.clauses < n.maxClauses; i += step {
			group := anchors[i : i+step]
			// The joined tuples and the frames of this iteration are dead
			// when it ends: both stacks are cut back to here.
			tuples, frames := len(n.tuples), n.used
			joined, err := n.joinTuples(from, to, e, group)
			if err != nil {
				return err
			}
			if len(joined) == 0 {
				continue
			}
			bound := n.bind(subject, from, group)
			if !through {
				mark, start := n.beginClause()
				if err := n.joinClause(e, group, joined, bound, to); err != nil {
					return err
				}
				n.endClause(mark, start)
			}
			// Recurse with the joined tuples as anchors; the subject for
			// deeper clauses is the current group's bindings.
			if err := n.expand(to, joined, bound); err != nil {
				return err
			}
			n.tuples, n.used = n.tuples[:tuples], frames
		}
		to.onPath = false
	}
	return nil
}

// joinClause appends the clause of edge e for one group and its joined
// tuples: the annotated label against the joined tuples bound below the
// group's frame, or the generic fallback.
func (n *narration) joinClause(e *schemagraph.JoinEdge, group, joined []storage.Tuple, bound *frame, to *relInfo) error {
	if e.Label == "" {
		n.buf = append(n.buf, n.r.defaultJoinClause(n.rd, e.From, e.To, group, joined)...)
		return nil
	}
	t, err := n.r.parse(e.Label)
	if err != nil {
		return fmt.Errorf("nlg: label of %s: %w", e.Key(), err)
	}
	n.buf, err = t.appendTo(n.buf, n.bind(bound, to, joined), n.r.Macros)
	return err
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
	// The group goes on top of the tuple stack; expand pops it. A grown
	// stack moves to a new array and the groups below stay readable in the
	// old one.
	start := len(n.tuples)
	n.tuples = to.rel.AppendTuples(n.tuples, ids)
	return n.tuples[start:], nil
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
