package storage

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"precis/internal/faultinject"
)

// Reader is read access to a database: what Export, VerifySubDatabase and
// the integrity checks take. *Database and *Result are both one.
type Reader interface {
	Name() string
	RelationNames() []string
	ForeignKeys() []ForeignKey
	Table(name string) Table // nil when there is no such relation
}

// Table is read access to one relation of a Reader.
type Table interface {
	Schema() *Schema
	ScanRows(fn func(TupleID, Row) bool)
	IndexedColumns() []string
	holds(column string, v Value, skip TupleID) bool
}

// Result is the result database D′ of one query (paper Figure 5): tuples the
// query selected from a database, not a database of their own. A relation
// holds its projected schema (shared, read only), the ids and rows it was
// given in insertion order, an id set and join indexes. Append and Index are
// its only writes; once they return, any number of readers may read.
type Result struct {
	name string
	rels []ResultRelation
	fks  []ForeignKey
}

// ResultRelation is one relation of a Result.
type ResultRelation struct {
	schema *Schema
	ids    []TupleID
	rows   []Row   // parallel to ids
	set    []int32 // open-addressed by idHash: a position + 1, 0 when empty
	joins  []joinIndex
}

// joinIndex is a column's equality index: a sorted array per key kind, as
// HashIndex splits them, matching kinds exactly; NULL joins nothing.
type joinIndex struct {
	col  int
	ints []entry[int64] // by key, then match
	vals []entry[Value] // every other kind: by distinctOrder, then match
}

type entry[K any] struct {
	key K
	m   Match
}

// Match names a tuple of a result relation: its id in the high 32 bits and
// its position in the low 32, so that matches order as their ids do.
type Match uint64

// ID returns the tuple's id.
func (m Match) ID() TupleID { return TupleID(m >> 32) }

// Pos returns the tuple's position, where At reads its row.
func (m Match) Pos() int { return int(uint32(m)) }

// NewResult returns an empty result database with one relation per schema;
// the schemas and foreign keys are shared, and nobody may change them.
func NewResult(name string, schemas []*Schema, fks []ForeignKey) *Result {
	res := &Result{name: name, rels: make([]ResultRelation, len(schemas)), fks: fks}
	for i, s := range schemas {
		res.rels[i].schema = s
	}
	return res
}

// Name returns the database name.
func (res *Result) Name() string { return res.name }

// Relation returns the named relation, or nil.
func (res *Result) Relation(name string) *ResultRelation {
	for i := range res.rels {
		if res.rels[i].schema.Name == name {
			return &res.rels[i]
		}
	}
	return nil
}

// Table is Relation as a Reader hands it out.
func (res *Result) Table(name string) Table {
	if r := res.Relation(name); r != nil {
		return r
	}
	return nil
}

// RelationNames returns the relation names in creation order.
func (res *Result) RelationNames() []string {
	names := make([]string, len(res.rels))
	for i := range res.rels {
		names[i] = res.rels[i].schema.Name
	}
	return names
}

// NumRelations returns the number of relations.
func (res *Result) NumRelations() int { return len(res.rels) }

// TotalTuples returns the number of tuples across all relations.
func (res *Result) TotalTuples() int {
	n := 0
	for i := range res.rels {
		n += len(res.rels[i].ids)
	}
	return n
}

// ForeignKeys returns the foreign keys.
func (res *Result) ForeignKeys() []ForeignKey { return slices.Clone(res.fks) }

// SetForeignKeys replaces the foreign keys.
func (res *Result) SetForeignKeys(fks []ForeignKey) { res.fks = slices.Clone(fks) }

func (r *ResultRelation) Schema() *Schema { return r.schema }

func (r *ResultRelation) Len() int { return len(r.ids) }

// At returns the row at position pos, in [0, Len()).
func (r *ResultRelation) At(pos int) Row { return r.rows[pos] }

// Has reports whether the relation holds the tuple: it is an sqlx.IDSet.
func (r *ResultRelation) Has(id TupleID) bool { return r.find(id) >= 0 }

// Row returns the row of the tuple with the given id.
func (r *ResultRelation) Row(id TupleID) (Row, bool) {
	if pos := r.find(id); pos >= 0 {
		return r.rows[pos], true
	}
	return Row{}, false
}

// AppendRows appends the row of every id, the zero Row for one not held.
func (r *ResultRelation) AppendRows(dst []Row, ids []TupleID) []Row {
	for _, id := range ids {
		row, _ := r.Row(id)
		dst = append(dst, row)
	}
	return dst
}

// ScanRows calls fn for each tuple in insertion order until fn returns false.
func (r *ResultRelation) ScanRows(fn func(TupleID, Row) bool) {
	for i, id := range r.ids {
		if !fn(id, r.rows[i]) {
			return
		}
	}
}

// IndexedColumns returns the names of the columns with a join index.
func (r *ResultRelation) IndexedColumns() []string {
	cols := make([]string, len(r.joins))
	for i, ix := range r.joins {
		cols[i] = r.schema.Columns[ix.col].Name
	}
	return cols
}

// find returns the position of the tuple with the given id, -1 if none.
func (r *ResultRelation) find(id TupleID) int {
	if len(r.set) == 0 {
		return -1
	}
	return int(r.set[r.slot(id)]) - 1
}

// slot returns the index of id's entry in the set, or of the empty one it
// would take.
func (r *ResultRelation) slot(id TupleID) int {
	mask := len(r.set) - 1
	i := idHash(id, bits.Len(uint(mask)))
	for r.set[i] != 0 && r.ids[r.set[i]-1] != id {
		i = (i + 1) & mask
	}
	return i
}

// Append adds the tuples (ids[i], rows[i]) whose ids (1 to MaxTupleID) the
// relation does not hold yet, a repeated id once under its first row, and
// reports how many. It takes both slices over, compacting them in place: an
// empty relation keeps them as its own. It drops the relation's join indexes.
func (r *ResultRelation) Append(ids []TupleID, rows []Row) int {
	base := len(r.ids)
	if need := 2 * (base + len(ids)); need > len(r.set) {
		r.set = make([]int32, max(8, 1<<bits.Len(uint(need-1))))
		for pos, id := range r.ids {
			r.set[r.slot(id)] = int32(pos + 1)
		}
	}
	if base == 0 {
		r.ids, r.rows = ids, rows
	} else {
		r.ids, r.rows = append(r.ids, ids...), append(r.rows, rows...)
	}
	n := base
	for i := base; i < len(r.ids); i++ {
		if id, at := r.ids[i], r.slot(r.ids[i]); r.set[at] == 0 {
			r.ids[n], r.rows[n], r.set[at] = id, r.rows[i], int32(n+1)
			n++
		}
	}
	clear(r.rows[n:])
	r.ids, r.rows = r.ids[:n], r.rows[:n]
	if n > base {
		r.joins = nil
	}
	return n - base
}

// Index gives the named column a join index unless it has one: the column's
// DistinctValues and AppendMatches then read it instead of building one each.
func (r *ResultRelation) Index(column string) {
	if col := r.schema.ColumnIndex(column); col >= 0 && r.join(col) == nil {
		r.joins = append(r.joins, r.build(col))
	}
}

// indexOf returns the join index of column col: the relation's own, or one
// built for the caller alone, so that a read changes nothing.
func (r *ResultRelation) indexOf(col int) *joinIndex {
	if ix := r.join(col); ix != nil {
		return ix
	}
	ix := r.build(col)
	return &ix
}

func (r *ResultRelation) build(col int) joinIndex {
	ix := joinIndex{col: col, ints: make([]entry[int64], 0, len(r.rows))}
	for pos, row := range r.rows {
		switch v, m := row.Value(col), Match(uint64(r.ids[pos])<<32|uint64(pos)); v.kind {
		case KindNull:
		case KindInt:
			ix.ints = append(ix.ints, entry[int64]{v.AsInt(), m})
		default:
			ix.vals = append(ix.vals, entry[Value]{v, m})
		}
	}
	slices.SortFunc(ix.ints, func(a, b entry[int64]) int { return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.m, b.m)) })
	slices.SortFunc(ix.vals, func(a, b entry[Value]) int { return cmp.Or(distinctOrder(a.key, b.key), cmp.Compare(a.m, b.m)) })
	return ix
}

func (r *ResultRelation) join(col int) *joinIndex {
	for i := range r.joins {
		if r.joins[i].col == col {
			return &r.joins[i]
		}
	}
	return nil
}

// DistinctValues returns the distinct non-NULL values of the named column in
// distinctOrder, a walk of its join index.
func (r *ResultRelation) DistinctValues(column string) ([]Value, error) {
	return r.AppendDistinctValues(nil, column)
}

// AppendDistinctValues is DistinctValues appending to dst.
func (r *ResultRelation) AppendDistinctValues(dst []Value, column string) ([]Value, error) {
	col := r.schema.ColumnIndex(column)
	if col < 0 {
		return nil, fmt.Errorf("storage: relation %s has no column %s", r.schema.Name, column)
	}
	start, ix := len(dst), r.indexOf(col)
	n := len(ix.vals)
	for i := range ix.ints {
		if i == 0 || ix.ints[i].key != ix.ints[i-1].key {
			n++
		}
	}
	dst = slices.Grow(dst, n)
	for i, e := range ix.ints {
		if i == 0 || e.key != ix.ints[i-1].key {
			dst = append(dst, Int(e.key))
		}
	}
	for i, e := range ix.vals {
		if i == 0 || e.key != ix.vals[i-1].key {
			dst = append(dst, e.key)
		}
	}
	if len(ix.ints) > 0 && len(ix.vals) > 0 {
		slices.SortFunc(dst[start:], distinctOrder) // an integer may tie a float
	}
	return dst, nil
}

// AppendMatches appends the tuples whose column col holds exactly v, ids
// ascending; NULL matches nothing. The SiteStorageLookup fault fires once.
func (r *ResultRelation) AppendMatches(dst []Match, col int, v Value) ([]Match, error) {
	if err := faultinject.Fire(faultinject.SiteStorageLookup); err != nil {
		return nil, fmt.Errorf("storage: lookup %s: %w", r.schema.Name, err)
	}
	return r.matches(dst, col, v), nil
}

// Lookup returns the ids AppendMatches finds in the named column.
func (r *ResultRelation) Lookup(column string, v Value) ([]TupleID, error) {
	ms, err := r.AppendMatches(nil, r.schema.ColumnIndex(column), v)
	ids := make([]TupleID, len(ms))
	for i, m := range ms {
		ids[i] = m.ID()
	}
	return ids, err
}

// holds is Relation.holds: whether a tuple other than skip (0: none) holds v.
func (r *ResultRelation) holds(column string, v Value, skip TupleID) bool {
	ms := r.matches(nil, r.schema.ColumnIndex(column), v)
	return slices.ContainsFunc(ms, func(m Match) bool { return m.ID() != skip })
}

// matches is AppendMatches without its fault site.
func (r *ResultRelation) matches(dst []Match, col int, v Value) []Match {
	if v.kind == KindNull || col < 0 {
		return dst
	}
	switch ix := r.indexOf(col); v.kind {
	case KindInt:
		// The search written out: through a closure it is most of a lookup.
		ints, key := ix.ints, v.AsInt()
		lo, hi := 0, len(ints)
		for lo < hi {
			if h := int(uint(lo+hi) >> 1); ints[h].key < key {
				lo = h + 1
			} else {
				hi = h
			}
		}
		for ; lo < len(ints) && ints[lo].key == key; lo++ {
			dst = append(dst, ints[lo].m)
		}
	default:
		i, _ := slices.BinarySearchFunc(ix.vals, v, func(e entry[Value], v Value) int { return distinctOrder(e.key, v) })
		for ; i < len(ix.vals) && ix.vals[i].key == v; i++ {
			dst = append(dst, ix.vals[i].m)
		}
	}
	return dst
}

// distinctOrder is the order of DistinctValues: Value.Compare, and of two
// values it ties (Int(1), Float(1)) the lower kind first.
func distinctOrder(a, b Value) int { return cmp.Or(a.Compare(b), cmp.Compare(a.kind, b.kind)) }
