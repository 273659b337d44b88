package sqlx

import (
	"fmt"

	"precis/internal/storage"
)

// This file is the test-only reference executor: the tree-walking evaluator
// as it was before predicates were compiled and before the access path's own
// conjunct was left out of the per-tuple check, driven by a full scan. It is
// deliberately naive — no planner, no index — and plan_test.go holds every
// access path of execSelect to the rows it returns.

// refSelectIDs returns the ids of the tuples of rel matching where, in
// insertion (= ascending id) order, or the error of the first column where
// names that rel lacks.
func refSelectIDs(rel *storage.Relation, where Expr) ([]storage.TupleID, error) {
	var ids []storage.TupleID
	err := refColumns(rel.Schema(), where)
	if err != nil {
		return nil, err
	}
	rel.Scan(func(t storage.Tuple) bool {
		ok := true
		if where != nil {
			ok, err = refEval(rel.Schema(), where, t)
		}
		if ok {
			ids = append(ids, t.ID)
		}
		return err == nil
	})
	return ids, err
}

// refSelectRows projects the tuples refSelectIDs finds onto cols (rowid or a
// column name), reading every value from the stored tuple. A column cols names
// that rel lacks is an error before any that where names.
func refSelectRows(rel *storage.Relation, where Expr, cols []string) ([]storage.TupleID, [][]storage.Value, error) {
	for _, c := range cols {
		if err := refColumns(rel.Schema(), &ColumnRef{Name: c}); err != nil {
			return nil, nil, err
		}
	}
	ids, err := refSelectIDs(rel, where)
	if err != nil {
		return nil, nil, err
	}
	var rows [][]storage.Value
	for _, id := range ids {
		t, _ := rel.Get(id)
		row := make([]storage.Value, len(cols))
		for i, c := range cols {
			if c == RowIDColumn {
				row[i] = storage.Int(int64(id))
			} else {
				row[i] = t.Values[rel.Schema().ColumnIndex(c)]
			}
		}
		rows = append(rows, row)
	}
	return ids, rows, nil
}

// refColumns returns an error for the first column e names, left to right,
// that schema lacks.
func refColumns(schema *storage.Schema, e Expr) error {
	switch e := e.(type) {
	case *ColumnRef:
		if e.Name != RowIDColumn && schema.ColumnIndex(e.Name) < 0 {
			return fmt.Errorf("sql: relation %s has no column %s", schema.Name, e.Name)
		}
	case *Compare:
		if err := refColumns(schema, e.Left); err != nil {
			return err
		}
		return refColumns(schema, e.Right)
	case *InList:
		return refColumns(schema, e.Left)
	case *Logical:
		if err := refColumns(schema, e.Left); err != nil {
			return err
		}
		return refColumns(schema, e.Right)
	case *Not:
		return refColumns(schema, e.Inner)
	}
	return nil
}

func refValue(schema *storage.Schema, e Expr, t storage.Tuple) (storage.Value, error) {
	switch e := e.(type) {
	case *ColumnRef:
		if e.Name == RowIDColumn {
			return storage.Int(int64(t.ID)), nil
		}
		return t.Values[schema.ColumnIndex(e.Name)], nil
	case *Literal:
		return e.Value, nil
	default:
		return storage.Null, fmt.Errorf("sql: expression %q is not a scalar", exprString(e))
	}
}

func refEval(schema *storage.Schema, e Expr, t storage.Tuple) (bool, error) {
	switch e := e.(type) {
	case *Compare:
		l, err := refValue(schema, e.Left, t)
		if err != nil {
			return false, err
		}
		r, err := refValue(schema, e.Right, t)
		if err != nil {
			return false, err
		}
		if l.IsNull() || r.IsNull() {
			return false, nil
		}
		switch e.Op {
		case OpEq:
			return l.Equal(r), nil
		case OpNe:
			return !l.Equal(r), nil
		case OpLt:
			return l.Compare(r) < 0, nil
		case OpLe:
			return l.Compare(r) <= 0, nil
		case OpGt:
			return l.Compare(r) > 0, nil
		case OpGe:
			return l.Compare(r) >= 0, nil
		}
		return false, nil
	case *InList:
		l, err := refValue(schema, e.Left, t)
		if err != nil {
			return false, err
		}
		if l.IsNull() {
			return false, nil
		}
		found := false
		for _, v := range e.Values {
			if l.Equal(v) {
				found = true
				break
			}
		}
		return found != e.Not, nil
	case *RowIDInSet:
		return e.Set.Has(t.ID) != e.Not, nil
	case *RowIDIn:
		for _, id := range e.IDs {
			if id == t.ID {
				return true, nil
			}
		}
		return false, nil
	case *Logical:
		l, err := refEval(schema, e.Left, t)
		if err != nil {
			return false, err
		}
		if e.And {
			if !l {
				return false, nil
			}
			return refEval(schema, e.Right, t)
		}
		if l {
			return true, nil
		}
		return refEval(schema, e.Right, t)
	case *Not:
		v, err := refEval(schema, e.Inner, t)
		if err != nil {
			return false, err
		}
		return !v, nil
	default:
		return false, fmt.Errorf("sql: expression %q is not boolean", exprString(e))
	}
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
