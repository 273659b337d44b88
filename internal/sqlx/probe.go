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
// Equals values[i]. values must be sorted by Value.Compare (DistinctValues
// order); groups are disjoint, so a value that compares equal to its
// predecessor (Int(1), Float(1)) gets an empty group, as does NULL, which
// joins nothing. A hash index on col answers from its posting lists and reads
// no tuple — an index lookup per value and a tuple read per posting, the cost
// model's units; one scan of rel otherwise. Like ExecStmt it leaves the
// engine's totals alone.
func (e *Engine) Probe(rel, col string, values []storage.Value) (*Groups, error) {
	if err := faultinject.Fire(faultinject.SiteSQLSelect); err != nil {
		return nil, fmt.Errorf("sql: probe on %s: %w", rel, err)
	}
	r := e.db.Relation(rel)
	if r == nil {
		return nil, fmt.Errorf("sql: no relation %s", rel)
	}
	ci := r.Schema().ColumnIndex(col)
	if ci < 0 {
		return nil, fmt.Errorf("sql: relation %s has no column %s", rel, col)
	}
	if !slices.IsSortedFunc(values, storage.Value.Compare) {
		return nil, fmt.Errorf("sql: probe on %s.%s: values are not sorted", rel, col)
	}
	g := &Groups{Ends: make([]int, 0, len(values))}
	if _, probeable := (probeValues{list: values}).shape(); !probeable || !r.HasIndex(col) {
		g.scan(r, ci, values)
		return g, nil
	}
	// A driving value mostly has a partner, so the ids start at one each.
	g.IDs, g.Ends = make([]storage.TupleID, 0, len(values)), g.Ends[:len(values)]
	var err error
	if g.IDs, err = appendPostings(g.IDs, g.Ends, r, col, values); err != nil {
		return nil, err
	}
	g.Stats.IndexLookups = len(values)
	g.Stats.TupleReads = len(g.IDs)
	return g, nil
}

// lookupBlock is how many values appendPostings expands to their index keys
// and hands to one AppendLookups call, which resolves them together.
const lookupBlock = 32

// appendPostings appends to ids, for each of vals in order, the ascending ids
// of rel's tuples whose indexed col Equals it — the posting list of every key
// the value can be stored under (indexKeys) — and sets ends[i], unless ends is
// nil, to where vals[i]'s ids end. NULL matches nothing, and a value that
// compares equal to its predecessor adds nothing to what that one found.
func appendPostings(ids []storage.TupleID, ends []int, rel *storage.Relation, col string, vals []storage.Value) ([]storage.TupleID, error) {
	schema := rel.Schema()
	colType := schema.Columns[schema.ColumnIndex(col)].Type
	var (
		keys    [2 * lookupBlock]storage.Value
		keyEnds [2 * lookupBlock]int
		nkeys   [lookupBlock]uint8 // keys looked up for each value of the block
	)
	for base := 0; base < len(vals); base += lookupBlock {
		block := vals[base:min(base+lookupBlock, len(vals))]
		nk := 0
		for i, v := range block {
			nkeys[i] = 0
			if v.IsNull() || (base+i > 0 && v.Compare(vals[base+i-1]) == 0) {
				continue
			}
			k, n := indexKeys(colType, v)
			nk += copy(keys[nk:], k[:n])
			nkeys[i] = uint8(n)
		}
		start := len(ids)
		var err error
		if ids, err = rel.AppendLookups(ids, keyEnds[:nk], col, keys[:nk]); err != nil {
			return nil, fmt.Errorf("sql: access path on %s: %w", rel.Name(), err)
		}
		k := 0
		for i := range block {
			end := start
			if n := int(nkeys[i]); n > 0 {
				end = keyEnds[k+n-1]
				if n == 2 && start < keyEnds[k] && keyEnds[k] < end {
					slices.Sort(ids[start:end]) // Int(1) and Float(1) of a FLOAT column: two ascending lists
				}
				k += n
			}
			if ends != nil {
				ends[base+i] = end
			}
			start = end
		}
	}
	return ids, nil
}

// scan fills g without an index: one visit per tuple, binary-searched to the
// first value its column Equals (Compare ties exactly what Equal matches).
func (g *Groups) scan(r *storage.Relation, ci int, values []storage.Value) {
	groups := make([][]storage.TupleID, len(values))
	r.Scan(func(t storage.Tuple) bool {
		g.Stats.Scanned++
		if v := t.Values[ci]; !v.IsNull() {
			if i, ok := slices.BinarySearchFunc(values, v, storage.Value.Compare); ok {
				groups[i] = append(groups[i], t.ID)
			}
		}
		return true
	})
	for _, ids := range groups {
		slices.Sort(ids) // scan order is insertion order
		g.IDs = append(g.IDs, ids...)
		g.Ends = append(g.Ends, len(g.IDs))
	}
	g.Stats.TupleReads = len(g.IDs)
}
