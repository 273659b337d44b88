package nlg

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"precis/internal/core"
	"precis/internal/invidx"
	"precis/internal/schemagraph"
	"precis/internal/storage"
)

// This file is the test-only reference translator: the clause walk as it was
// before the per-narrative join index, lazy binding frames and the compiled
// plan — a relation scan per edge per anchor group, a cloned Context map and
// visited set per clause, every template parsed where it is used, and the
// fallback clauses built with fmt. It is deliberately naive;
// differential_test.go holds the production walk byte-identical to it.

// refNarrative is Renderer.Narrative over the reference walk.
func refNarrative(r *Renderer, rd *core.ResultDatabase, occs []invidx.Occurrence) (string, error) {
	var paragraphs []string
	type seed struct {
		rel string
		id  storage.TupleID
	}
	seen := map[seed]bool{}
	for _, occ := range occs {
		rel := rd.DB.Relation(occ.Relation)
		if rel == nil {
			continue
		}
		for _, id := range occ.TupleIDs {
			t, ok := getTuple(rel, id)
			if !ok || seen[seed{occ.Relation, id}] {
				continue
			}
			seen[seed{occ.Relation, id}] = true
			p, err := r.refParagraph(rd, occ.Relation, t)
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

// refParagraph renders the clauses for one seed tuple.
func (r *Renderer) refParagraph(rd *core.ResultDatabase, relName string, seed storage.Tuple) (string, error) {
	var clauses []string

	// Clause 1: the relation's own sentence, heading attribute first.
	ctx := Context{}
	r.refBindTuples(ctx, rd, relName, []storage.Tuple{seed})
	node := rd.Schema.Graph.Relation(relName)
	sentence := ""
	if node != nil && node.Sentence != "" {
		t, err := ParseTemplate(node.Sentence)
		if err != nil {
			return "", fmt.Errorf("nlg: sentence template of %s: %w", relName, err)
		}
		sentence, err = t.Render(ctx, r.Macros)
		if err != nil {
			return "", err
		}
	} else {
		sentence = refDefaultSentence(rd, relName, seed)
	}
	if s := strings.TrimSpace(sentence); s != "" {
		clauses = append(clauses, s)
	}

	visited := map[string]bool{relName: true}
	maxClauses := r.MaxClauses
	if maxClauses <= 0 {
		maxClauses = 64
	}
	sub, err := r.refExpand(rd, relName, []storage.Tuple{seed}, ctx, visited, maxClauses-len(clauses))
	if err != nil {
		return "", err
	}
	clauses = append(clauses, sub...)
	return strings.Join(clauses, " "), nil
}

// cloneSet copies a string set.
func cloneSet(in map[string]bool) map[string]bool {
	out := make(map[string]bool, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// cloneContext copies a rendering context (value slices are shared; they
// are never mutated after binding).
func cloneContext(in Context) Context {
	out := make(Context, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// refExpand walks the join edges of the result schema from rel, composing
// clauses that combine information from joined relations (§5.3: "each of
// these clauses has as subject the heading attribute of the relation that
// has the primary key").
func (r *Renderer) refExpand(rd *core.ResultDatabase, rel string, anchors []storage.Tuple, subject Context, visited map[string]bool, budget int) ([]string, error) {
	if budget <= 0 || len(anchors) == 0 {
		return nil, nil
	}
	node := rd.Schema.Graph.Relation(rel)
	if node == nil {
		return nil, nil
	}
	edges := slices.Clone(node.Out())
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].Weight != edges[j].Weight {
			return edges[i].Weight > edges[j].Weight
		}
		return edges[i].Key() < edges[j].Key()
	})

	var clauses []string
	for _, e := range edges {
		if visited[e.To] || budget <= 0 {
			continue
		}
		toNode := rd.Schema.Graph.Relation(e.To)
		branchVisited := cloneSet(visited)
		branchVisited[e.To] = true

		// A heading-less relation with no label is a pure junction (CAST,
		// PLAY): traverse through it. The current anchors become the
		// subject on the far side — per anchor tuple when this relation has
		// a heading, so each subject keeps its own clauses.
		if toNode != nil && toNode.Heading == "" && e.Label == "" {
			var passGroups [][]storage.Tuple
			if node.Heading != "" {
				for i := range anchors {
					passGroups = append(passGroups, anchors[i:i+1])
				}
			} else {
				passGroups = [][]storage.Tuple{anchors}
			}
			for _, group := range passGroups {
				joined := r.refJoinTuples(rd, e, group)
				if len(joined) == 0 {
					continue
				}
				passSubject := cloneContext(subject)
				r.refBindTuples(passSubject, rd, rel, group)
				sub, err := r.refExpand(rd, e.To, joined, passSubject, branchVisited, budget)
				if err != nil {
					return nil, err
				}
				clauses = append(clauses, sub...)
				budget -= len(sub)
			}
			continue
		}

		// Group per anchor tuple when the current relation has a heading
		// (one clause per subject), else treat all anchors as one group.
		var groups [][]storage.Tuple
		if node.Heading != "" {
			for i := range anchors {
				groups = append(groups, anchors[i:i+1])
			}
		} else {
			groups = [][]storage.Tuple{anchors}
		}
		for _, group := range groups {
			if budget <= 0 {
				break
			}
			joined := r.refJoinTuples(rd, e, group)
			if len(joined) == 0 {
				continue
			}
			ctx := cloneContext(subject)
			r.refBindTuples(ctx, rd, rel, group)
			r.refBindTuples(ctx, rd, e.To, joined)
			var clause string
			if e.Label != "" {
				t, err := ParseTemplate(e.Label)
				if err != nil {
					return nil, fmt.Errorf("nlg: label of %s: %w", e.Key(), err)
				}
				clause, err = t.Render(ctx, r.Macros)
				if err != nil {
					return nil, err
				}
			} else {
				clause = refDefaultJoinClause(rd, rel, e.To, group, joined)
			}
			if c := strings.TrimSpace(clause); c != "" {
				clauses = append(clauses, c)
				budget--
			}
			// Recurse with the joined tuples as anchors; the subject for
			// deeper clauses is the current group's bindings.
			deeper := cloneContext(subject)
			r.refBindTuples(deeper, rd, rel, group)
			sub, err := r.refExpand(rd, e.To, joined, deeper, branchVisited, budget)
			if err != nil {
				return nil, err
			}
			clauses = append(clauses, sub...)
			budget -= len(sub)
		}
	}
	return clauses, nil
}

// refJoinTuples returns the tuples of e.To in the result database joining any
// anchor tuple via e, in tuple-id order.
func (r *Renderer) refJoinTuples(rd *core.ResultDatabase, e *schemagraph.JoinEdge, anchors []storage.Tuple) []storage.Tuple {
	return joinAcross(rd, e.From, e.FromCol, e.To, e.ToCol, anchors)
}

// joinAcross matches anchors' FromCol values against ToCol of the target
// relation in the result database.
func joinAcross(rd *core.ResultDatabase, from, fromCol, to, toCol string, anchors []storage.Tuple) []storage.Tuple {
	fromRel := rd.DB.Relation(from)
	toRel := rd.DB.Relation(to)
	if fromRel == nil || toRel == nil {
		return nil
	}
	fi := fromRel.Schema().ColumnIndex(fromCol)
	ti := toRel.Schema().ColumnIndex(toCol)
	if fi < 0 || ti < 0 {
		return nil
	}
	want := make(map[storage.Value]bool, len(anchors))
	for _, a := range anchors {
		if v := a.Values[fi]; !v.IsNull() {
			want[v] = true
		}
	}
	var out []storage.Tuple
	scanTuples(toRel, func(t storage.Tuple) bool {
		if want[t.Values[ti]] {
			out = append(out, t)
		}
		return true
	})
	// Order by original tuple id: the id order of the source database is
	// its insertion order, which keeps lists stable regardless of which
	// join populated the result relation first.
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// refBindTuples binds every column of rel's result relation to the value lists
// across the given tuples.
func (r *Renderer) refBindTuples(ctx Context, rd *core.ResultDatabase, rel string, tuples []storage.Tuple) {
	relation := rd.DB.Relation(rel)
	if relation == nil {
		return
	}
	for ci, col := range relation.Schema().Columns {
		vals := make([]string, 0, len(tuples))
		for _, t := range tuples {
			if v := t.Values[ci]; !v.IsNull() {
				vals = append(vals, v.String())
			}
		}
		ctx.Bind(col.Name, vals)
	}
}

// refDefaultSentence renders a fallback clause for a relation without an
// annotated sentence template.
func refDefaultSentence(rd *core.ResultDatabase, rel string, t storage.Tuple) string {
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

// refDefaultJoinClause renders a fallback clause for a join edge without an
// annotated label: the heading values of the joined tuples attached to the
// anchor's heading.
func refDefaultJoinClause(rd *core.ResultDatabase, from, to string, anchors, joined []storage.Tuple) string {
	subjects := refHeadingValues(rd, from, anchors)
	objects := refHeadingValues(rd, to, joined)
	if len(objects) == 0 {
		return ""
	}
	name := strings.ToLower(to)
	if len(subjects) == 0 {
		return fmt.Sprintf("Related %s: %s.", name, strings.Join(objects, ", "))
	}
	return fmt.Sprintf("The %s of %s: %s.", name, strings.Join(subjects, ", "), strings.Join(objects, ", "))
}

// refHeadingValues extracts heading-attribute values (or first display column)
// of the tuples.
func refHeadingValues(rd *core.ResultDatabase, rel string, tuples []storage.Tuple) []string {
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

// scanTuples is Relation.Scan on any relation, a result relation included.
func scanTuples(rel storage.Table, fn func(storage.Tuple) bool) {
	rel.ScanRows(func(id storage.TupleID, row storage.Row) bool {
		return fn(storage.Tuple{ID: id, Values: row.Values()})
	})
}

// getTuple is Relation.Get on a result relation.
func getTuple(rel *storage.ResultRelation, id storage.TupleID) (storage.Tuple, bool) {
	row, ok := rel.Row(id)
	if !ok {
		return storage.Tuple{}, false
	}
	return storage.Tuple{ID: id, Values: row.Values()}, true
}
