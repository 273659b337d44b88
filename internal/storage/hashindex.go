package storage

// index is an equality index on one column of a relation. There are two
// kinds, and a database's constructor fixes which one its relations carry:
// HashIndex (NewDatabase), cheap to change one tuple at a time, and RunIndex
// (NewBatchDatabase), cheap to fill a batch at a time and to read in key
// order. Both match kinds exactly and index NULL like any other key.
type index interface {
	// Cardinality returns the number of distinct indexed values.
	Cardinality() int
	add(t Tuple)
	remove(t Tuple)
	// addBatch indexes the tuples (ids[i], rows[i]) in one step. With unique
	// set it refuses — reporting false and changing nothing — a batch that
	// would leave two tuples under one key.
	addBatch(ids []TupleID, rows [][]Value, unique bool) bool
	// has reports whether any tuple carries v.
	has(v Value) bool
	// appendGroups appends, for each of vals in order, the ascending ids of
	// the tuples carrying it, and records in ends[i], unless ends is nil, the
	// length of dst once vals[i] is answered.
	appendGroups(dst []TupleID, ends []int, vals []Value) []TupleID
	// keys returns the distinct non-NULL indexed values, and whether they are
	// in DistinctValues order already.
	keys() (vals []Value, sorted bool)
}

// HashIndex is an equality index mapping column values to ascending tuple
// ids. Integer values — every key and join column of the bundled schemas —
// are keyed on the 8-byte integer; every other kind, NULL included, on the
// whole Value. Lookups match kinds exactly (Int(1) is not Float(1)); sqlx
// probes each representation a numeric literal can be stored as.
type HashIndex struct {
	colIdx int
	ints   postings[int64]
	vals   postings[Value]
}

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

func (ix *HashIndex) addBatch(ids []TupleID, rows [][]Value, unique bool) bool {
	for i, row := range rows {
		if unique && ix.has(row[ix.colIdx]) {
			for j := range i {
				ix.remove(Tuple{ID: ids[j], Values: rows[j]})
			}
			return false
		}
		ix.add(Tuple{ID: ids[i], Values: row})
	}
	return true
}

func (ix *HashIndex) has(v Value) bool {
	if v.kind == KindInt {
		return ix.ints.refs[v.AsInt()] != 0
	}
	return ix.vals.refs[v] != 0
}

func (ix *HashIndex) keys() ([]Value, bool) {
	vals := make([]Value, 0, ix.Cardinality())
	for k := range ix.ints.refs {
		vals = append(vals, Int(k))
	}
	for v := range ix.vals.refs {
		if !v.IsNull() {
			vals = append(vals, v)
		}
	}
	return vals, false
}

// lookupBlock is how many keys a batch lookup resolves at once.
const lookupBlock = 32

// appendGroups reads a block of keys in passes, as AppendTuples reads tuples:
// every key's map entry, then the header of every list an entry names, then
// the copies. A lookup is three dependent cache misses; taken key by key they
// queue behind one another, taken pass by pass a block's misses overlap.
func (ix *HashIndex) appendGroups(dst []TupleID, ends []int, vals []Value) []TupleID {
	var refs [lookupBlock]int64
	var lists [lookupBlock]IDList
	for base := 0; base < len(vals); base += lookupBlock {
		block := vals[base:min(base+lookupBlock, len(vals))]
		for i, v := range block {
			if v.kind == KindInt {
				refs[i] = ix.ints.refs[v.AsInt()]
			} else {
				refs[i] = ix.vals.refs[v]
			}
		}
		for i, v := range block {
			switch ref := refs[i]; {
			case ref >= 0: // absent, or the id itself
			case v.kind == KindInt:
				lists[i] = ix.ints.lists[^ref]
			default:
				lists[i] = ix.vals.lists[^ref]
			}
		}
		for i := range block {
			switch ref := refs[i]; {
			case ref < 0:
				dst = lists[i].AppendTo(dst)
			case ref > 0:
				dst = append(dst, TupleID(ref))
			}
			if ends != nil {
				ends[base+i] = len(dst)
			}
		}
	}
	return dst
}

// postings maps keys to ascending, duplicate-free id lists. A key with one
// tuple — every primary-key entry — stores the id in the map itself; only a
// key with two or more owns a list, and the lists sit in one slice whose
// vacated positions are reused. refs is nil until the first add, because a
// result database creates its indexes whether or not it fills them.
type postings[K comparable] struct {
	refs  map[K]int64 // id > 0: the key's only tuple; ^ref: its position in lists
	lists []IDList
	free  []int32 // vacated positions of lists
	ids   int     // ids across lists
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
		list := &p.lists[^ref]
		p.ids -= len(*list)
		*list = list.Insert(id)
		p.ids += len(*list)
	case TupleID(ref) != id:
		pair := IDList{uint32(min(TupleID(ref), id)), uint32(max(TupleID(ref), id))}
		p.ids += 2
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
		p.ids -= len(*list)
		if *list = list.Remove(id); len(*list) > 1 {
			p.ids += len(*list)
			return
		}
		p.refs[key] = int64((*list)[0])
		*list = nil
		p.free = append(p.free, int32(^ref))
	case TupleID(ref) == id:
		delete(p.refs, key)
	}
}
