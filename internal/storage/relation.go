package storage

import (
	"fmt"
	"slices"
	"sort"

	"precis/internal/faultinject"
)

// TupleID is the engine-assigned identity of a stored tuple, unique within a
// database. It plays the role of Oracle's rowid in the paper's architecture:
// the inverted index records tuple ids, and the result-database generator
// fetches tuples by id.
type TupleID int64

// Tuple is one stored row: its id plus one value per schema column.
type Tuple struct {
	ID     TupleID
	Values []Value
}

// slot is the physical storage of a tuple; dead slots are tombstones left by
// deletions so that positions remain stable for live scans.
type slot struct {
	tuple Tuple
	dead  bool
}

// Relation is a populated relation: a schema, its tuples in insertion order,
// and hash indexes on selected columns.
type Relation struct {
	schema  *Schema
	slots   []slot
	byID    map[TupleID]int
	indexes map[string]*HashIndex
	ordered map[string]*OrderedIndex
	live    int
}

// newRelation builds an empty relation for the schema. If the schema has a
// primary key, an index on it is created eagerly so uniqueness checks are O(1).
func newRelation(s *Schema) *Relation {
	r := &Relation{
		schema:  s,
		byID:    make(map[TupleID]int),
		indexes: make(map[string]*HashIndex),
		ordered: make(map[string]*OrderedIndex),
	}
	if s.Key != "" {
		r.indexes[s.Key] = newHashIndex(s.Key, s.ColumnIndex(s.Key))
	}
	return r
}

// Schema returns the relation schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Name returns the relation name.
func (r *Relation) Name() string { return r.schema.Name }

// Len returns the number of live tuples.
func (r *Relation) Len() int { return r.live }

// insert stores a tuple with the given id. Values must already be validated.
func (r *Relation) insert(id TupleID, vals []Value) (TupleID, error) {
	if len(vals) != len(r.schema.Columns) {
		return 0, fmt.Errorf("storage: %s expects %d values, got %d",
			r.schema.Name, len(r.schema.Columns), len(vals))
	}
	for i, v := range vals {
		col := r.schema.Columns[i]
		if !col.Type.Accepts(v.Kind()) {
			return 0, fmt.Errorf("storage: %s.%s is %s, cannot store %s value %q",
				r.schema.Name, col.Name, col.Type, v.Kind(), v.String())
		}
	}
	if key := r.schema.Key; key != "" {
		kv := vals[r.schema.ColumnIndex(key)]
		if kv.IsNull() {
			return 0, fmt.Errorf("storage: %s primary key %s cannot be NULL", r.schema.Name, key)
		}
		if len(r.indexes[key].ids[kv]) > 0 {
			return 0, fmt.Errorf("storage: %s primary key %s=%s already exists",
				r.schema.Name, key, kv.String())
		}
	}
	t := Tuple{ID: id, Values: append([]Value(nil), vals...)}
	pos := len(r.slots)
	r.slots = append(r.slots, slot{tuple: t})
	r.byID[id] = pos
	r.live++
	for _, idx := range r.indexes {
		idx.add(t)
	}
	for _, idx := range r.ordered {
		idx.add(t)
	}
	return id, nil
}

// delete removes the tuple with the given id. It reports whether it existed.
func (r *Relation) delete(id TupleID) bool {
	pos, ok := r.byID[id]
	if !ok {
		return false
	}
	t := r.slots[pos].tuple
	r.slots[pos].dead = true
	delete(r.byID, id)
	r.live--
	for _, idx := range r.indexes {
		idx.remove(t)
	}
	for _, idx := range r.ordered {
		idx.remove(t)
	}
	return true
}

// Get returns the tuple with the given id.
func (r *Relation) Get(id TupleID) (Tuple, bool) {
	pos, ok := r.byID[id]
	if !ok {
		return Tuple{}, false
	}
	return r.slots[pos].tuple, true
}

// Has reports whether a tuple with the given id is stored. It makes a
// relation usable as an id set (sqlx.IDSet) without materializing its ids.
func (r *Relation) Has(id TupleID) bool {
	_, ok := r.byID[id]
	return ok
}

// Scan calls fn for each live tuple in insertion order until fn returns
// false or the relation is exhausted.
func (r *Relation) Scan(fn func(Tuple) bool) {
	for i := range r.slots {
		if r.slots[i].dead {
			continue
		}
		if !fn(r.slots[i].tuple) {
			return
		}
	}
}

// Tuples returns all live tuples in insertion order.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, 0, r.live)
	r.Scan(func(t Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// CreateIndex builds (or returns) a hash index on the named column.
func (r *Relation) CreateIndex(column string) (*HashIndex, error) {
	ci := r.schema.ColumnIndex(column)
	if ci < 0 {
		return nil, fmt.Errorf("storage: relation %s has no column %s", r.schema.Name, column)
	}
	if idx, ok := r.indexes[column]; ok {
		return idx, nil
	}
	idx := newHashIndex(column, ci)
	r.Scan(func(t Tuple) bool {
		idx.add(t)
		return true
	})
	r.indexes[column] = idx
	return idx, nil
}

// HasIndex reports whether the named column has a hash index.
func (r *Relation) HasIndex(column string) bool {
	_, ok := r.indexes[column]
	return ok
}

// CreateOrderedIndex builds (or returns) a B-tree index on the named
// column, enabling index-backed range scans.
func (r *Relation) CreateOrderedIndex(column string) (*OrderedIndex, error) {
	ci := r.schema.ColumnIndex(column)
	if ci < 0 {
		return nil, fmt.Errorf("storage: relation %s has no column %s", r.schema.Name, column)
	}
	if idx, ok := r.ordered[column]; ok {
		return idx, nil
	}
	idx := newOrderedIndex(column, ci)
	r.Scan(func(t Tuple) bool {
		idx.add(t)
		return true
	})
	r.ordered[column] = idx
	return idx, nil
}

// OrderedIndexOn returns the ordered index on the named column, or nil.
func (r *Relation) OrderedIndexOn(column string) *OrderedIndex { return r.ordered[column] }

// IndexedColumns returns the indexed column names, sorted.
func (r *Relation) IndexedColumns() []string {
	cols := make([]string, 0, len(r.indexes))
	for c := range r.indexes {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	return cols
}

// Lookup returns the ids of tuples whose column equals v, in ascending id
// order. It uses the column's index when present and falls back to a scan.
func (r *Relation) Lookup(column string, v Value) ([]TupleID, error) {
	return r.AppendLookup(nil, column, v)
}

// AppendLookup is Lookup appending to dst, so a multi-value probe gathers
// every posting list into one buffer instead of copying each list twice.
func (r *Relation) AppendLookup(dst []TupleID, column string, v Value) ([]TupleID, error) {
	if err := faultinject.Fire(faultinject.SiteStorageLookup); err != nil {
		return nil, fmt.Errorf("storage: lookup %s.%s: %w", r.schema.Name, column, err)
	}
	if idx, ok := r.indexes[column]; ok {
		return append(dst, idx.ids[v]...), nil
	}
	ci := r.schema.ColumnIndex(column)
	if ci < 0 {
		return nil, fmt.Errorf("storage: relation %s has no column %s", r.schema.Name, column)
	}
	r.Scan(func(t Tuple) bool {
		if t.Values[ci].Equal(v) {
			dst = append(dst, t.ID)
		}
		return true
	})
	return dst, nil
}

// DistinctValues returns the distinct non-NULL values of the named column,
// sorted by Value.Compare (numerically equal values of different kinds, which
// Compare ties, order by kind).
func (r *Relation) DistinctValues(column string) ([]Value, error) {
	ci := r.schema.ColumnIndex(column)
	if ci < 0 {
		return nil, fmt.Errorf("storage: relation %s has no column %s", r.schema.Name, column)
	}
	vals := make([]Value, 0, r.live)
	r.Scan(func(t Tuple) bool {
		if v := t.Values[ci]; !v.IsNull() {
			vals = append(vals, v)
		}
		return true
	})
	slices.SortFunc(vals, func(a, b Value) int {
		if c := a.Compare(b); c != 0 {
			return c
		}
		return int(a.kind) - int(b.kind)
	})
	return slices.Compact(vals), nil
}

// HashIndex is an equality index mapping column values to sorted tuple ids.
type HashIndex struct {
	column string
	colIdx int
	ids    map[Value][]TupleID
}

func newHashIndex(column string, colIdx int) *HashIndex {
	return &HashIndex{column: column, colIdx: colIdx, ids: make(map[Value][]TupleID)}
}

// Column returns the indexed column name.
func (ix *HashIndex) Column() string { return ix.column }

func (ix *HashIndex) add(t Tuple) {
	v := t.Values[ix.colIdx]
	ids := ix.ids[v]
	// Keep the per-value posting list sorted; appends are almost always at
	// the end because tuple ids are monotonically assigned.
	pos := sort.Search(len(ids), func(i int) bool { return ids[i] >= t.ID })
	ids = append(ids, 0)
	copy(ids[pos+1:], ids[pos:])
	ids[pos] = t.ID
	ix.ids[v] = ids
}

func (ix *HashIndex) remove(t Tuple) {
	v := t.Values[ix.colIdx]
	ids := ix.ids[v]
	pos := sort.Search(len(ids), func(i int) bool { return ids[i] >= t.ID })
	if pos < len(ids) && ids[pos] == t.ID {
		ids = append(ids[:pos], ids[pos+1:]...)
		if len(ids) == 0 {
			delete(ix.ids, v)
		} else {
			ix.ids[v] = ids
		}
	}
}

// Cardinality returns the number of distinct indexed values.
func (ix *HashIndex) Cardinality() int { return len(ix.ids) }

// update replaces a tuple's values in place, revalidating types and key
// uniqueness and keeping every index current.
func (r *Relation) update(id TupleID, vals []Value) error {
	pos, ok := r.byID[id]
	if !ok {
		return fmt.Errorf("storage: relation %s has no tuple %d", r.schema.Name, id)
	}
	if len(vals) != len(r.schema.Columns) {
		return fmt.Errorf("storage: %s expects %d values, got %d",
			r.schema.Name, len(r.schema.Columns), len(vals))
	}
	for i, v := range vals {
		col := r.schema.Columns[i]
		if !col.Type.Accepts(v.Kind()) {
			return fmt.Errorf("storage: %s.%s is %s, cannot store %s value %q",
				r.schema.Name, col.Name, col.Type, v.Kind(), v.String())
		}
	}
	old := r.slots[pos].tuple
	if key := r.schema.Key; key != "" {
		ki := r.schema.ColumnIndex(key)
		kv := vals[ki]
		if kv.IsNull() {
			return fmt.Errorf("storage: %s primary key %s cannot be NULL", r.schema.Name, key)
		}
		if !kv.Equal(old.Values[ki]) {
			if len(r.indexes[key].ids[kv]) > 0 {
				return fmt.Errorf("storage: %s primary key %s=%s already exists",
					r.schema.Name, key, kv.String())
			}
		}
	}
	for _, idx := range r.indexes {
		idx.remove(old)
	}
	for _, idx := range r.ordered {
		idx.remove(old)
	}
	updated := Tuple{ID: id, Values: append([]Value(nil), vals...)}
	r.slots[pos].tuple = updated
	for _, idx := range r.indexes {
		idx.add(updated)
	}
	for _, idx := range r.ordered {
		idx.add(updated)
	}
	return nil
}
