package storage

import "slices"

// HashIndex is an equality index mapping column values to ascending tuple
// ids. Integer values — every key and join column of the bundled schemas —
// are keyed on the 8-byte integer; every other kind, NULL included, on the
// whole Value. Lookups match kinds exactly (Int(1) is not Float(1)); sqlx
// probes each representation a numeric literal can be stored as.
type HashIndex struct {
	column string
	colIdx int
	ints   postings[int64]
	vals   postings[Value]
}

func newHashIndex(column string, colIdx int) *HashIndex {
	return &HashIndex{column: column, colIdx: colIdx}
}

// Column returns the indexed column name.
func (ix *HashIndex) Column() string { return ix.column }

// Cardinality returns the number of distinct indexed values.
func (ix *HashIndex) Cardinality() int { return len(ix.ints.refs) + len(ix.vals.refs) }

func (ix *HashIndex) add(t Tuple) {
	if v := t.Values[ix.colIdx]; v.kind == KindInt {
		ix.ints.add(v.AsInt(), t.ID)
	} else {
		ix.vals.add(v, t.ID)
	}
}

func (ix *HashIndex) remove(t Tuple) {
	if v := t.Values[ix.colIdx]; v.kind == KindInt {
		ix.ints.remove(v.AsInt(), t.ID)
	} else {
		ix.vals.remove(v, t.ID)
	}
}

// has reports whether any tuple carries v.
func (ix *HashIndex) has(v Value) bool {
	if v.kind == KindInt {
		return ix.ints.refs[v.AsInt()] != 0
	}
	return ix.vals.refs[v] != 0
}

// appendKeys appends the distinct non-NULL indexed values, in no particular
// order.
func (ix *HashIndex) appendKeys(dst []Value) []Value {
	for k := range ix.ints.refs {
		dst = append(dst, Int(k))
	}
	for v := range ix.vals.refs {
		if !v.IsNull() {
			dst = append(dst, v)
		}
	}
	return dst
}

// appendIDs appends the ids of the tuples carrying v, ascending.
func (ix *HashIndex) appendIDs(dst []TupleID, v Value) []TupleID {
	if v.kind == KindInt {
		return ix.ints.appendIDs(dst, v.AsInt())
	}
	return ix.vals.appendIDs(dst, v)
}

// postings maps keys to ascending, duplicate-free id lists. A key with one
// tuple — every primary-key entry — stores the id in the map itself; only a
// key with two or more owns a list, and the lists sit in one slice whose
// vacated positions are reused. refs is nil until the first add, because a
// result database creates its indexes whether or not it fills them.
type postings[K comparable] struct {
	refs  map[K]int64 // id > 0: the key's only tuple; ^ref: its position in lists
	lists [][]TupleID
	free  []int32 // vacated positions of lists
}

func (p *postings[K]) add(key K, id TupleID) {
	ref := p.refs[key]
	switch {
	case ref == 0:
		if p.refs == nil {
			p.refs = make(map[K]int64)
		}
		p.refs[key] = int64(id)
	case ref < 0:
		// Appends are almost always at the end: ids are assigned monotonically.
		list := &p.lists[^ref]
		if pos, found := slices.BinarySearch(*list, id); !found {
			*list = slices.Insert(*list, pos, id)
		}
	case TupleID(ref) != id:
		pair := []TupleID{min(TupleID(ref), id), max(TupleID(ref), id)}
		if n := len(p.free); n > 0 {
			at := p.free[n-1]
			p.free = p.free[:n-1]
			p.lists[at] = pair
			p.refs[key] = ^int64(at)
		} else {
			p.lists = append(p.lists, pair)
			p.refs[key] = ^int64(len(p.lists) - 1)
		}
	}
}

func (p *postings[K]) remove(key K, id TupleID) {
	ref := p.refs[key]
	switch {
	case ref < 0:
		list := &p.lists[^ref]
		pos, found := slices.BinarySearch(*list, id)
		if !found {
			return
		}
		if len(*list) > 2 {
			*list = slices.Delete(*list, pos, pos+1)
			return
		}
		p.refs[key] = int64((*list)[1-pos])
		*list = nil
		p.free = append(p.free, int32(^ref))
	case TupleID(ref) == id:
		delete(p.refs, key)
	}
}

func (p *postings[K]) appendIDs(dst []TupleID, key K) []TupleID {
	ref := p.refs[key]
	switch {
	case ref < 0:
		return append(dst, p.lists[^ref]...)
	case ref > 0:
		return append(dst, TupleID(ref))
	}
	return dst
}
