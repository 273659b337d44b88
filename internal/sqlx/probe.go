package sqlx

import (
	"fmt"
	"slices"

	"precis/internal/faultinject"
	"precis/internal/storage"
)

// Groups is the answer of one Probe: per probed value, in order, the ascending
// ids of the tuples holding it, group i ending at IDs[Ends[i]]. The caller owns it.
type Groups struct {
	IDs   []storage.TupleID
	Ends  []int
	Stats Stats
}

// Group returns group i, a sub-slice of IDs.
func (g *Groups) Group(i int) []storage.TupleID {
	start := 0
	if i > 0 {
		start = g.Ends[i-1]
	}
	return g.IDs[start:g.Ends[i]]
}

// Probe opens one scan per value on rel.col — the paper's Round-Robin scans,
// all at once: group i holds, ascending, the ids of the live tuples whose col
// holds values[i], converted to col's type (ColType.Key) as every lookup
// converts it. values must be sorted by Value.Compare (DistinctValues
// order); groups are disjoint, so a value whose key is its predecessor's
// (Int(1), Float(1)) gets an empty group, as do NULL, which joins nothing,
// and a value that cannot convert. A hash index on col answers from its
// posting lists and reads no tuple — an index lookup per value and a tuple
// read per posting, the cost model's units; a scan of rel per value
// otherwise. Like ExecStmt it leaves the engine's totals alone.
func (e *Engine) Probe(rel, col string, values []storage.Value) (*Groups, error) {
	if err := faultinject.Fire(faultinject.SiteSQLSelect); err != nil {
		return nil, fmt.Errorf("sql: probe on %s: %w", rel, err)
	}
	r := e.db.Relation(rel)
	if r == nil {
		return nil, fmt.Errorf("sql: no relation %s", rel)
	}
	if !r.Schema().HasColumn(col) {
		return nil, fmt.Errorf("sql: relation %s has no column %s", rel, col)
	}
	if !slices.IsSortedFunc(values, storage.Value.Compare) {
		return nil, fmt.Errorf("sql: probe on %s.%s: values are not sorted", rel, col)
	}
	// A driving value mostly has a partner, so the ids start at one each.
	g := &Groups{IDs: make([]storage.TupleID, 0, len(values)), Ends: make([]int, len(values))}
	var err error
	if g.IDs, err = r.AppendLookups(g.IDs, g.Ends, col, values); err != nil {
		return nil, fmt.Errorf("sql: probe on %s: %w", rel, err)
	}
	// A value whose key is its predecessor's gives up its group, which holds
	// the predecessor's tuples again.
	t, kept, start, prev := r.Schema().Columns[r.Schema().ColumnIndex(col)].Type, 0, 0, storage.Null
	for i, v := range values {
		k, ok := t.Key(v)
		if !ok {
			k = storage.Null // no key, and no tuples
		}
		if k != prev {
			kept += copy(g.IDs[kept:], g.IDs[start:g.Ends[i]])
		}
		start, g.Ends[i], prev = g.Ends[i], kept, k
	}
	g.IDs = g.IDs[:kept]
	if r.HasIndex(col) {
		g.Stats.IndexLookups = len(values)
	} else {
		g.Stats.Scanned = len(values) * r.Len()
	}
	g.Stats.TupleReads = len(g.IDs)
	return g, nil
}
