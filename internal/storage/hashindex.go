package storage

import "strings"

// HashIndex is the equality index of a Relation, mapping column values to
// ascending tuple ids. Integer values — every key and join column of the
// bundled schemas — are keyed on the 8-byte integer; every other kind, NULL
// included, on the whole Value. A stored value is of its column's declared
// type (ColType.Convert), so a lookup converts the value it is given to that
// type (ColType.Key) and matches it exactly; a lookup of NULL finds nothing.
type HashIndex struct {
	colIdx int
	typ    ColType // of the column
	ints   postings[int64]
	vals   postings[Value]
}

// Cardinality returns the number of distinct indexed values.
func (ix *HashIndex) Cardinality() int { return len(ix.ints.refs) + len(ix.vals.refs) }

func (ix *HashIndex) add(id TupleID, row Row) {
	if v := row.Value(ix.colIdx); v.kind == KindInt {
		ix.ints.add(v.AsInt(), id)
	} else {
		ix.vals.add(owned(v), id)
	}
}

func (ix *HashIndex) remove(id TupleID, row Row) {
	if v := row.Value(ix.colIdx); v.kind == KindInt {
		ix.ints.remove(v.AsInt(), id)
	} else {
		ix.vals.remove(owned(v), id)
	}
}

// owned returns v with its text copied out of the record it was read from. A
// key serves every tuple that holds it, and a map write keeps the key it is
// given, so a key aliasing a record would keep that record alive past its
// tuple's delete.
func owned(v Value) Value {
	v.s = strings.Clone(v.s)
	return v
}

// holds reports whether a tuple other than skip (0: none) carries v. A key
// that owns a list has two tuples or more, so one of them is not skip.
func (ix *HashIndex) holds(v Value, skip TupleID) bool {
	ref := ix.ref(v)
	return ref < 0 || ref > 0 && TupleID(ref) != skip
}

// ref returns the map entry of the key v converts to, 0 when there is none.
func (ix *HashIndex) ref(v Value) int64 {
	switch k, ok := ix.typ.Key(v); {
	case !ok:
		return 0
	case k.kind == KindInt:
		return ix.ints.refs[k.AsInt()]
	default:
		return ix.vals.refs[k]
	}
}

// lookupBlock is how many keys a batch lookup resolves at once.
const lookupBlock = 32

// appendGroups reads a block of keys in passes, as AppendRows reads tuples:
// every key's map entry, then the header of every list an entry names, then
// the copies. A lookup is three dependent cache misses; taken key by key they
// queue behind one another, taken pass by pass a block's misses overlap.
func (ix *HashIndex) appendGroups(dst []TupleID, ends []int, vals []Value) []TupleID {
	var refs [lookupBlock]int64
	var lists [lookupBlock]IDList
	for base := 0; base < len(vals); base += lookupBlock {
		block := vals[base:min(base+lookupBlock, len(vals))]
		for i, v := range block {
			refs[i] = ix.ref(v)
		}
		for i := range block {
			switch ref := refs[i]; {
			case ref >= 0: // absent, or the id itself
			case ix.typ == TypeInt: // the key ref found is an Int
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
// vacated positions are reused. refs is nil until the first add.
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
