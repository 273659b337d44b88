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
	// Macros are available to every template (MOVIE_LIST etc.). They are
	// looked up by name as a clause renders: one G′ is narrated by renderers
	// with macros of their own, and a macro defined later is the one used.
	Macros Macros
	// MaxClauses caps narrative length per occurrence; 0 means the default
	// of 64. A précis "may be incomplete in many ways" (§1) — the cap keeps
	// big results readable.
	MaxClauses int
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
	n := narrationPool.Get().(*narration)
	n.start(r, rd, compile(rd.Schema.Graph))
	err := n.narrate(occs)
	out := ""
	if err == nil {
		out = string(n.buf)
	}
	n.release()
	return out, err
}

// plan is the narration of one G′ compiled: its relations by position, each
// with its parsed sentence and its out-edges in walk order, each edge with its
// target's position, whether it is a pure junction, and its parsed label. The
// attributes the templates name are numbered (attr), and a narration resolves
// each number to a column once per relation. A frozen G′ keeps its plan beside
// its other memos; an unfrozen one is compiled per call. It is read only.
type plan struct {
	rels  []planRel
	edges int // join edges of G′: a narration keeps an edgeState per edge
}

type planRel struct {
	name, lower string
	heading     string
	display     []string  // G′'s projections: ResultDatabase.DisplayColumns
	sentence    *Template // nil: the fallback sentence
	sentErr     error     // a sentence that does not parse, as the walk reports it
	edges       []planEdge
}

type planEdge struct {
	*schemagraph.JoinEdge
	to, slot int  // e.To's position in plan.rels; the edge's edgeState
	through  bool // a pure junction (CAST, PLAY): walked through, no clause
	label    *Template
	labelErr error
}

type planKey struct{}

// compile returns G′'s plan. A template that does not parse is kept as its
// error, which fails only a narrative that reaches its clause.
func compile(g *schemagraph.Graph) *plan {
	if v, ok := g.Memo(planKey{}); ok {
		return v.(*plan)
	}
	names := g.Relations()
	p := &plan{rels: make([]planRel, len(names))}
	for i, name := range names {
		node := g.Relation(name)
		pr := &p.rels[i]
		*pr = planRel{name: name, lower: strings.ToLower(name), heading: node.Heading, display: node.Attributes()}
		if node.Sentence != "" {
			if pr.sentence, pr.sentErr = ParseTemplate(node.Sentence); pr.sentErr != nil {
				pr.sentErr = fmt.Errorf("nlg: sentence template of %s: %w", name, pr.sentErr)
			}
		}
		for _, e := range node.Out() {
			pe := planEdge{JoinEdge: e, to: slices.Index(names, e.To), through: g.Relation(e.To).Heading == "" && e.Label == ""}
			if e.Label != "" {
				if pe.label, pe.labelErr = ParseTemplate(e.Label); pe.labelErr != nil {
					pe.labelErr = fmt.Errorf("nlg: label of %s: %w", e.Key(), pe.labelErr)
				}
			}
			pr.edges = append(pr.edges, pe)
		}
		slices.SortStableFunc(pr.edges, func(a, b planEdge) int {
			switch {
			case a.Weight != b.Weight:
				return cmp.Compare(b.Weight, a.Weight)
			case a.KeyLess(b.JoinEdge):
				return -1
			case b.KeyLess(a.JoinEdge):
				return 1
			}
			return 0
		})
		for k := range pr.edges {
			pr.edges[k].slot = p.edges
			p.edges++
		}
	}
	if g.Frozen() { // asked first: handing Memoise the plan boxes it, kept or not
		p = g.Memoise(planKey{}, p).(*plan)
	}
	return p
}

// narrationPool keeps the per-call state between calls: its tables and the
// narrative buffer. release drops everything it referred to of an answer.
var narrationPool = sync.Pool{New: func() any { return new(narration) }}

// maxPooledBuf is the largest narrative buffer the pool keeps; a bigger one is
// left to the collector, so one huge narrative cannot pin its memory.
const maxPooledBuf = 1 << 20

// narration is the state of one Narrative call: the plan, and what the walk
// writes — the D′ side of the plan's relations and edges, resolved as the walk
// first needs them, the on-path flags, the tuple and frame stacks, and the
// buffer. Joins read the indexes the result database carries on the join
// columns of G′, so the walk is linear in the result database.
//
// The narrative is written front to back into buf (Narrative copies it out
// once): a clause is rendered at its end, trimmed in place, and dropped
// together with its separator when nothing is left.
type narration struct {
	r    *Renderer
	rd   *core.ResultDatabase
	plan *plan

	rels     []relState  // parallel to plan.rels; frames point into it
	edges    []edgeState // by planEdge.slot
	cols     []int16     // the relations' column tables, a row each
	display  []int16     // the relations' display columns, a run each
	narrated map[seed]bool

	buf        []byte
	paragraphs int // non-empty paragraphs finished so far
	clauses    int // clauses kept in the paragraph being written
	maxClauses int // a paragraph stops growing here

	ids    []storage.TupleID // joinTuples' probe buffer, reused across its calls
	tuples []storage.Tuple   // stack of tuple groups; one is dead when the loop iteration that joined it ends
	frames []*frame          // stack of binding frames, reused the same way, made eight at a time
	used   int               // frames[:used] are live
}

// seed is a tuple a paragraph was told about: its relation's position and id.
type seed struct {
	rel int
	id  storage.TupleID
}

// relState is a relation of the plan in this narration's D′.
type relState struct {
	rel    *storage.Relation // nil if the result database lacks it
	onPath bool              // the walk is currently below this relation
	// cols[a.id] is the column a template's attribute a names here, plus two:
	// 1 when none does, 0 until asked.
	cols []int16
	// display holds the positions of the plan's display columns, and head
	// that of the column fallback clauses name a tuple by, once shown is set.
	display []int16
	head    int
	shown   bool
}

// edgeState is a join edge's D′ side, resolved when the walk first takes it.
type edgeState struct {
	resolved bool
	from     int               // the join column in the source; -1: the edge joins nothing
	index    *storage.RunIndex // the arrival column's, nil when D′ has none there
	indexed  bool              // a lookup returns one index list: in id order
}

// start readies a pooled narration for rd under p.
func (n *narration) start(r *Renderer, rd *core.ResultDatabase, p *plan) {
	n.r, n.rd, n.plan = r, rd, p
	n.maxClauses = r.MaxClauses
	if n.maxClauses <= 0 {
		n.maxClauses = 64
	}
	width := int(attrIDs.count.Load()) // every template in reach was parsed before now
	n.cols = resize(n.cols, len(p.rels)*width)
	n.rels = resize(n.rels, len(p.rels))
	for i := range n.rels {
		n.rels[i] = relState{rel: rd.DB.Relation(p.rels[i].name), cols: n.cols[i*width : (i+1)*width : (i+1)*width]}
	}
	n.edges = resize(n.edges, p.edges)
	if n.narrated == nil {
		n.narrated = map[seed]bool{}
	}
}

// resize returns s at length n, zeroed.
func resize[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// release returns n to the pool holding nothing of the answer: no relation,
// tuple or index of D′, and no row of the base.
func (n *narration) release() {
	n.r, n.rd, n.plan = nil, nil, nil
	clear(n.rels)
	clear(n.edges)
	clear(n.narrated)
	for _, f := range n.frames {
		*f = frame{}
	}
	n.display, n.ids, n.tuples = n.display[:0], nil, nil
	n.paragraphs, n.clauses, n.used = 0, 0, 0
	n.buf = n.buf[:0]
	if cap(n.buf) > maxPooledBuf {
		n.buf = nil
	}
	narrationPool.Put(n)
}

// narrate appends the paragraphs of every occurrence, then the truncation
// note, to n.buf. A relation of D′ that G′ lacks has neither a sentence nor a
// display column to tell its tuples by: its occurrences add nothing.
func (n *narration) narrate(occs []invidx.Occurrence) error {
	for _, occ := range occs {
		ri := slices.IndexFunc(n.plan.rels, func(pr planRel) bool { return pr.name == occ.Relation })
		if ri < 0 || n.rels[ri].rel == nil {
			continue
		}
		for _, id := range occ.TupleIDs {
			t, ok := n.rels[ri].rel.Get(id)
			if !ok || n.narrated[seed{ri, id}] {
				continue // cut by the cardinality constraint or budget, or already told
			}
			n.narrated[seed{ri, id}] = true
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
func (n *narration) bind(parent *frame, rel *relState, group []storage.Tuple) *frame {
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

// column returns the position of the column attribute a names — column names
// match upper-cased, and of two that collide the later one is meant — or -1.
// The answer is kept in rs.cols for the rest of the narration.
func (rs *relState) column(a attr) int {
	known := int(a.id) < len(rs.cols) // not, for a template parsed after the narration began
	if known && rs.cols[a.id] != 0 {
		return int(rs.cols[a.id]) - 2
	}
	ci := -1
	if rs.rel != nil {
		cols := rs.rel.Schema().Columns
		for ci = len(cols) - 1; ci >= 0 && !isUpperOf(cols[ci].Name, a.name); ci-- {
		}
	}
	if known {
		rs.cols[a.id] = int16(ci + 2)
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
	rel    *relState
	group  []storage.Tuple
	// counts[ci] is one more than the number of non-NULL values of column ci
	// in group, 0 while nobody asked. A column past the array is counted on
	// every read.
	counts [12]int32
}

// column resolves an attribute to the frame that binds it and the column's
// position there; nil when no frame of the chain has it.
func (f *frame) column(a attr) (*frame, int) {
	for ; f != nil; f = f.parent {
		if ci := f.rel.column(a); ci >= 0 {
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

func (f *frame) arity(a attr) int {
	b, ci := f.column(a)
	if b == nil {
		return 0
	}
	return b.count(ci)
}

func (f *frame) appendValue(dst []byte, a attr, i int) []byte {
	b, ci := f.column(a)
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

// paragraph renders the clauses for one seed tuple of relation ri; n.clauses
// counts the ones it kept.
func (n *narration) paragraph(ri int, seed storage.Tuple) error {
	n.clauses = 0
	n.tuples = append(n.tuples[:0], seed)
	group := n.tuples
	n.used = 0 // both stacks start over: the last paragraph is finished
	pr, rs := &n.plan.rels[ri], &n.rels[ri]

	// Clause 1: the relation's own sentence, heading attribute first.
	mark, start := n.beginClause()
	switch {
	case pr.sentErr != nil:
		return pr.sentErr
	case pr.sentence != nil:
		var err error
		if n.buf, err = pr.sentence.appendTo(n.buf, n.bind(nil, rs, group), n.r.Macros); err != nil {
			return err
		}
	default:
		n.appendDefaultSentence(ri, seed)
	}
	n.endClause(mark, start)

	// No outer subject: expand binds the seed as the group of its relation.
	rs.onPath = true
	err := n.expand(ri, group, nil)
	rs.onPath = false
	return err
}

// expand walks the join edges of the result schema from relation from,
// composing clauses that combine information from joined relations (§5.3:
// "each of these clauses has as subject the heading attribute of the relation
// that has the primary key"). It stops when the paragraph has maxClauses
// clauses.
func (n *narration) expand(from int, anchors []storage.Tuple, subject *frame) error {
	if n.clauses >= n.maxClauses || len(anchors) == 0 {
		return nil
	}
	// One group per anchor tuple when this relation has a heading, so each
	// subject keeps its own clauses; else all anchors form one group.
	pr := &n.plan.rels[from]
	step := len(anchors)
	if pr.heading != "" {
		step = 1
	}
	for k := range pr.edges {
		e := &pr.edges[k]
		to := &n.rels[e.to]
		if to.onPath {
			continue
		}
		to.onPath = true
		for i := 0; i < len(anchors) && n.clauses < n.maxClauses; i += step {
			group := anchors[i : i+step]
			// The joined tuples and the frames of this iteration are dead
			// when it ends: both stacks are cut back to here.
			tuples, frames := len(n.tuples), n.used
			joined, err := n.joinTuples(from, e, group)
			if err != nil {
				return err
			}
			if len(joined) == 0 {
				continue
			}
			bound := n.bind(subject, &n.rels[from], group)
			// A pure junction is traversed without a clause of its own: the
			// current group stays the subject on the far side.
			if !e.through {
				mark, start := n.beginClause()
				if err := n.joinClause(from, e, group, joined, bound); err != nil {
					return err
				}
				n.endClause(mark, start)
			}
			// Recurse with the joined tuples as anchors; the subject for
			// deeper clauses is the current group's bindings.
			if err := n.expand(e.to, joined, bound); err != nil {
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
func (n *narration) joinClause(from int, e *planEdge, group, joined []storage.Tuple, bound *frame) error {
	switch {
	case e.labelErr != nil:
		return e.labelErr
	case e.label == nil:
		n.appendDefaultJoinClause(from, e.to, group, joined)
		return nil
	}
	var err error
	n.buf, err = e.label.appendTo(n.buf, n.bind(bound, &n.rels[e.to], joined), n.r.Macros)
	return err
}

// joinTuples returns the tuples of e.To in the result database joining any
// anchor tuple via e, in tuple-id order (the id order of the source database
// is its insertion order, which keeps lists stable regardless of which join
// populated the result relation first). NULLs join nothing. Each anchor
// value is one lookup: in the RunIndex a generated result database carries
// on e.ToCol, else through the relation — a hash index, or a scan of a
// hand-built D′ that has none. Only one index list is in id order as it
// comes; anything else is sorted. A failed lookup fails the narrative; it
// never drops a clause.
func (n *narration) joinTuples(from int, e *planEdge, anchors []storage.Tuple) ([]storage.Tuple, error) {
	j, to := n.edge(from, e), n.rels[e.to].rel
	if j.from < 0 {
		return nil, nil
	}
	ids := n.ids[:0]
	for _, a := range anchors {
		v := a.Values[j.from]
		if v.IsNull() {
			continue
		}
		var err error
		if j.index != nil {
			ids, err = j.index.AppendLookup(ids, v)
		} else {
			ids, err = to.AppendLookup(ids, e.ToCol, v)
		}
		if err != nil {
			return nil, fmt.Errorf("nlg: join %s: %w", e.Key(), err)
		}
	}
	if len(anchors) > 1 || !j.indexed {
		// Several lists are merged, and anchors sharing a value brought the
		// same list twice.
		slices.Sort(ids)
		ids = slices.Compact(ids)
	}
	n.ids = ids
	// The group goes on top of the tuple stack; expand pops it. A grown
	// stack moves to a new array and the groups below stay readable in the
	// old one.
	start := len(n.tuples)
	n.tuples = to.AppendTuples(n.tuples, ids)
	return n.tuples[start:], nil
}

// edge returns e's state, resolving its columns and index the first time.
func (n *narration) edge(from int, e *planEdge) *edgeState {
	j := &n.edges[e.slot]
	if !j.resolved {
		j.resolved, j.from = true, -1
		src, dst := n.rels[from].rel, n.rels[e.to].rel
		if src != nil && dst != nil && dst.Schema().HasColumn(e.ToCol) {
			j.from = src.Schema().ColumnIndex(e.FromCol)
			j.index = dst.RunIndexOn(e.ToCol)
			j.indexed = j.index != nil || dst.HasIndex(e.ToCol)
		}
	}
	return j
}

// shown resolves relation ri's display and heading columns, once.
func (n *narration) shown(ri int) *relState {
	rs := &n.rels[ri]
	if !rs.shown {
		pr, schema := &n.plan.rels[ri], rs.rel.Schema()
		start := len(n.display)
		for _, col := range pr.display {
			n.display = append(n.display, int16(schema.ColumnIndex(col)))
		}
		rs.display = n.display[start:len(n.display):len(n.display)]
		head := pr.heading
		if head == "" && len(pr.display) > 0 {
			head = pr.display[0]
		}
		rs.head, rs.shown = schema.ColumnIndex(head), true
	}
	return rs
}

// appendDefaultSentence appends the fallback clause of a relation without a
// sentence template: "HEADING (col: value; ...)." over its display columns,
// NULLs left out, the relation's name when the heading is not among them or
// has nothing to say.
func (n *narration) appendDefaultSentence(ri int, t storage.Tuple) {
	pr, rs := &n.plan.rels[ri], n.shown(ri)
	start, head := len(n.buf), -1
	for k, ci := range rs.display {
		if ci >= 0 && pr.display[k] == pr.heading {
			if v := t.Values[ci]; !v.IsNull() && v != storage.String("") {
				head = int(ci)
			}
		}
	}
	if head >= 0 {
		n.buf = t.Values[head].AppendText(n.buf)
	} else {
		n.buf = append(n.buf, pr.name...)
	}
	sep := " ("
	for k, ci := range rs.display {
		if ci < 0 || pr.display[k] == pr.heading || t.Values[ci].IsNull() {
			continue
		}
		n.buf = append(append(append(n.buf, sep...), pr.display[k]...), ": "...)
		n.buf = t.Values[ci].AppendText(n.buf)
		sep = "; "
	}
	switch {
	case sep == "; ":
		n.buf = append(n.buf, ")."...)
	case head >= 0:
		n.buf = append(n.buf, '.')
	default:
		n.buf = n.buf[:start]
	}
}

// appendDefaultJoinClause appends the fallback clause of a join edge without
// a label: "The to of SUBJECTS: OBJECTS." — the heading values of the joined
// tuples attached to the anchors' — "Related to: OBJECTS." when the anchors
// have none, nothing when the joined tuples have none.
func (n *narration) appendDefaultJoinClause(from, to int, anchors, joined []storage.Tuple) {
	start := len(n.buf)
	n.buf = append(append(append(n.buf, "The "...), n.plan.rels[to].lower...), " of "...)
	if n.appendHeadings(from, anchors) == 0 {
		n.buf = append(append(n.buf[:start], "Related "...), n.plan.rels[to].lower...)
	}
	n.buf = append(n.buf, ": "...)
	if n.appendHeadings(to, joined) == 0 {
		n.buf = n.buf[:start]
		return
	}
	n.buf = append(n.buf, '.')
}

// appendHeadings appends the non-NULL heading values (or first display
// column values) of the tuples, comma-separated, and returns their number.
func (n *narration) appendHeadings(ri int, tuples []storage.Tuple) int {
	rs, c := n.shown(ri), 0
	if rs.head < 0 {
		return 0
	}
	for _, t := range tuples {
		if v := t.Values[rs.head]; !v.IsNull() {
			if c > 0 {
				n.buf = append(n.buf, ", "...)
			}
			n.buf = v.AppendText(n.buf)
			c++
		}
	}
	return c
}
