package sqlx

import (
	"fmt"

	"precis/internal/storage"
)

// This file is the test-only reference executor: every part of a statement
// checked on every tuple, the naive way — no planner, no index, no block
// reads — and plan_test.go holds every access path of ExecStmt to the rows it
// returns.

// refSelect returns what st selects from rel: the ids of the tuples it keeps,
// in its list's order when it lists ids and in insertion (= ascending id)
// order otherwise, cut to its LIMIT, and their values read from the stored
// tuples; or the error of the first column it names — a selected one, then
// Col — that rel lacks.
func refSelect(rel *storage.Relation, st *SelectStmt) ([]storage.TupleID, [][]storage.Value, error) {
	schema := rel.Schema()
	cols := st.Columns
	if cols == nil {
		cols = schema.ColumnNames()
	}
	for _, c := range append(cols[:len(cols):len(cols)], st.Col) {
		if c != "" && schema.ColumnIndex(c) < 0 {
			return nil, nil, fmt.Errorf("sql: relation %s has no column %s", schema.Name, c)
		}
	}
	keeps := func(t storage.Tuple) bool {
		if st.Exclude != nil && st.Exclude.Has(t.ID) {
			return false
		}
		if st.Col == "" {
			return true
		}
		ci := schema.ColumnIndex(st.Col)
		for _, w := range st.Values {
			if k, ok := schema.Columns[ci].Type.Key(w); ok && t.Values[ci] == k {
				return true
			}
		}
		return false
	}
	var kept []storage.Tuple
	if st.IDs != nil {
		for _, id := range st.IDs {
			if t, ok := rel.Get(id); ok && keeps(t) {
				kept = append(kept, t)
			}
		}
	} else {
		rel.Scan(func(t storage.Tuple) bool {
			if keeps(t) {
				kept = append(kept, t)
			}
			return true
		})
	}
	if st.Limit >= 0 && len(kept) > st.Limit {
		kept = kept[:st.Limit]
	}
	var ids []storage.TupleID
	var rows [][]storage.Value
	for _, t := range kept {
		row := make([]storage.Value, len(cols))
		for i, c := range cols {
			row[i] = t.Values[schema.ColumnIndex(c)]
		}
		ids, rows = append(ids, t.ID), append(rows, row)
	}
	return ids, rows, nil
}

// values decodes rows, nil for none: what a result's rows read, comparable
// with reflect.DeepEqual.
func values(rows []storage.Row) [][]storage.Value {
	if len(rows) == 0 {
		return nil
	}
	out := make([][]storage.Value, len(rows))
	for i, row := range rows {
		out[i] = row.Values()
	}
	return out
}
