package storage

import (
	"cmp"
	"fmt"
	"math"
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

// joinIndex is a column's equality index: sorted arrays per key kind, as
// HashIndex splits them; NULL joins nothing.
type joinIndex struct {
	col int
	// ints holds n INT keys in 2n words, one array: the keys ascending (an
	// int64 each), then the Match of each key, of equal keys by id.
	ints []uint64
	vals []entry // every other kind: by Value.Compare, then match
}

type entry struct {
	key Value
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
		clear(r.joins)
		r.joins = r.joins[:0]
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

// build indexes column col. An INT key goes into one word with its position,
// (key − least key) << 32 | pos — or its rank among the keys when they span
// more than 32 bits — so that one slices.Sort, with no comparison function,
// orders the tuples by key and equal keys by position; a run of equal keys is
// then put in id order. The words sort where the matches go, in the one
// array that holds the keys too.
func (r *ResultRelation) build(col int) joinIndex {
	ix := joinIndex{col: col}
	n := len(r.rows)
	words := make([]uint64, 2*n)
	keys, ms := words[:0], words[n:n]
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for pos, row := range r.rows {
		switch v := row.Value(col); v.kind {
		case KindNull:
		case KindInt:
			key := v.AsInt()
			lo, hi = min(lo, key), max(hi, key)
			keys, ms = append(keys, uint64(key)), append(ms, uint64(pos))
		default:
			ix.vals = append(ix.vals, entry{v, Match(uint64(r.ids[pos])<<32 | uint64(pos))})
		}
	}
	var ranks []int64 // nil while a key's offset from lo fits in 32 bits
	if uint64(hi)-uint64(lo) > math.MaxUint32 {
		ranks = make([]int64, len(keys))
		for i, key := range keys {
			ranks[i] = int64(key)
		}
		slices.Sort(ranks)
		ranks = slices.Compact(ranks)
	}
	for i, key := range keys {
		off := key - uint64(lo)
		if ranks != nil {
			rank, _ := slices.BinarySearch(ranks, int64(key))
			off = uint64(rank)
		}
		ms[i] |= off << 32
	}
	slices.Sort(ms)
	for i, w := range ms {
		key, pos := uint64(lo)+w>>32, uint32(w)
		if ranks != nil {
			key = uint64(ranks[w>>32])
		}
		keys[i], ms[i] = key, uint64(r.ids[pos])<<32|uint64(pos)
	}
	for i := 1; i < len(ms); i++ { // a run of equal keys, from position to id order
		for j := i; j > 0 && keys[j] == keys[j-1] && ms[j] < ms[j-1]; j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
	ix.ints = append(keys, ms...) // the matches move down when some rows held no INT
	slices.SortFunc(ix.vals, func(a, b entry) int { return cmp.Or(a.key.Compare(b.key), cmp.Compare(a.m, b.m)) })
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

// DistinctValues returns the distinct non-NULL values of the named column,
// ascending by Value.Compare: a walk of its join index.
func (r *ResultRelation) DistinctValues(column string) ([]Value, error) {
	return r.AppendDistinctValues(nil, column)
}

// AppendDistinctValues is DistinctValues appending to dst.
func (r *ResultRelation) AppendDistinctValues(dst []Value, column string) ([]Value, error) {
	col := r.schema.ColumnIndex(column)
	if col < 0 {
		return nil, fmt.Errorf("storage: relation %s has no column %s", r.schema.Name, column)
	}
	ix := r.indexOf(col)
	keys, n := ix.ints[:len(ix.ints)/2], len(ix.vals)
	for i := range keys {
		if i == 0 || keys[i] != keys[i-1] {
			n++
		}
	}
	dst = slices.Grow(dst, n)
	for i, key := range keys {
		if i == 0 || key != keys[i-1] {
			dst = append(dst, Int(int64(key)))
		}
	}
	for i, e := range ix.vals {
		if i == 0 || e.key != ix.vals[i-1].key {
			dst = append(dst, e.key)
		}
	}
	return dst, nil
}

// AppendMatches appends the tuples whose column col holds v, ids ascending:
// v converted to the column's type (ColType.Key), as a lookup of a base
// relation converts it, so NULL and a value that cannot convert match
// nothing. The SiteStorageLookup fault fires once.
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
	if col < 0 {
		return dst
	}
	v, ok := r.schema.Columns[col].Type.Key(v)
	if !ok {
		return dst
	}
	switch ix := r.indexOf(col); v.kind {
	case KindInt:
		// The search written out: through a closure it is most of a lookup.
		n, key := len(ix.ints)/2, v.AsInt()
		lo, hi := 0, n
		for lo < hi {
			if h := int(uint(lo+hi) >> 1); int64(ix.ints[h]) < key {
				lo = h + 1
			} else {
				hi = h
			}
		}
		for ; lo < n && int64(ix.ints[lo]) == key; lo++ {
			dst = append(dst, Match(ix.ints[n+lo]))
		}
	default:
		i, _ := slices.BinarySearchFunc(ix.vals, v, func(e entry, v Value) int { return e.key.Compare(v) })
		for ; i < len(ix.vals) && ix.vals[i].key == v; i++ {
			dst = append(dst, ix.vals[i].m)
		}
	}
	return dst
}
