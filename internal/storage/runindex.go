package storage

import (
	"cmp"
	"fmt"
	"slices"

	"precis/internal/faultinject"
)

// RunIndex is the equality index of a database that is filled in batches and
// then read (NewBatchDatabase): (key, id) pairs in one sorted array per key
// representation — integers on the 8-byte integer, every other kind, NULL
// included, on the whole Value, as HashIndex splits them. A batch is sorted
// and merged in (addBatch: one allocation per array it touches), a lookup is
// a binary search, and the distinct keys are a walk. A single add or remove
// inserts into or deletes from the array, which is linear in its length. The
// index is current when the call that changed the relation returns; a read
// builds nothing, so concurrent readers need no synchronisation among
// themselves.
type RunIndex struct {
	colIdx int
	ints   run[intKey]
	vals   run[Value] // no KindInt key, so Compare ties exactly what == does
}

// intKey is an integer key with the comparison method run asks for.
type intKey int64

func (k intKey) Compare(o intKey) int { return cmp.Compare(k, o) }

type runKey[K any] interface{ Compare(K) int }

type runEntry[K runKey[K]] struct {
	key K
	id  TupleID
}

// run holds entries ordered by key, then id, without duplicates.
type run[K runKey[K]] []runEntry[K]

func (e runEntry[K]) compare(o runEntry[K]) int {
	if c := e.key.Compare(o.key); c != 0 {
		return c
	}
	return cmp.Compare(e.id, o.id)
}

// Cardinality returns the number of distinct indexed values; it walks the
// index.
func (ix *RunIndex) Cardinality() int { return ix.ints.distinct() + ix.vals.distinct() }

func (ix *RunIndex) add(id TupleID, row Row) {
	if v := row.Value(ix.colIdx); v.kind == KindInt {
		ix.ints.add(intKey(v.AsInt()), id)
	} else {
		ix.vals.add(v, id)
	}
}

func (ix *RunIndex) remove(id TupleID, row Row) {
	if v := row.Value(ix.colIdx); v.kind == KindInt {
		ix.ints.remove(intKey(v.AsInt()), id)
	} else {
		ix.vals.remove(v, id)
	}
}

func (ix *RunIndex) addBatch(ids []TupleID, rows []Row, unique bool) bool {
	nInts := 0
	for _, row := range rows {
		if row.Value(ix.colIdx).kind == KindInt {
			nInts++
		}
	}
	ints, vals := ix.ints, ix.vals
	if nInts > 0 {
		ints = make(run[intKey], len(ix.ints), len(ix.ints)+nInts)
	}
	if nInts < len(rows) {
		vals = make(run[Value], len(ix.vals), len(ix.vals)+len(rows)-nInts)
	}
	for i, row := range rows {
		if v := row.Value(ix.colIdx); v.kind == KindInt {
			ints = append(ints, runEntry[intKey]{intKey(v.AsInt()), ids[i]})
		} else {
			vals = append(vals, runEntry[Value]{v, ids[i]})
		}
	}
	if !ix.ints.mergeInto(ints, unique) || !ix.vals.mergeInto(vals, unique) {
		return false
	}
	ix.ints, ix.vals = ints, vals
	return true
}

func (ix *RunIndex) has(v Value) bool {
	if v.kind == KindInt {
		return ix.ints.has(intKey(v.AsInt()))
	}
	return ix.vals.has(v)
}

func (ix *RunIndex) appendGroups(dst []TupleID, ends []int, vals []Value) []TupleID {
	for i, v := range vals {
		dst = ix.appendIDs(dst, v)
		if ends != nil {
			ends[i] = len(dst)
		}
	}
	return dst
}

// RunIndexOn returns the named column's RunIndex, nil unless the relation
// belongs to a batch database and indexes that column.
func (r *Relation) RunIndexOn(column string) *RunIndex {
	ix, _ := r.indexes[column].(*RunIndex)
	return ix
}

// AppendLookup is Relation.AppendLookup through this index, for a caller that
// resolved the column once and looks up many values (the translator, per join
// edge and narration): the ids of the tuples holding v, ascending. The
// SiteStorageLookup fault fires once per call, as there.
func (ix *RunIndex) AppendLookup(dst []TupleID, v Value) ([]TupleID, error) {
	if err := faultinject.Fire(faultinject.SiteStorageLookup); err != nil {
		return nil, fmt.Errorf("storage: run index lookup: %w", err)
	}
	return ix.appendIDs(dst, v), nil
}

// appendIDs appends the ids under v. An integer is searched for among the
// integers with the comparison written out: run's generic search compares
// through a closure and a method, which is most of a lookup's cost.
func (ix *RunIndex) appendIDs(dst []TupleID, v Value) []TupleID {
	if v.kind != KindInt {
		return ix.vals.appendIDs(dst, v)
	}
	ints, key := ix.ints, intKey(v.AsInt())
	lo, hi := 0, len(ints)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); ints[m].key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	for ; lo < len(ints) && ints[lo].key == key; lo++ {
		dst = append(dst, ints[lo].id)
	}
	return dst
}

// keys merges the two arrays: Value.Compare orders integers among the other
// kinds, and of two keys it ties (Int(1), Float(1)) the integer goes first.
func (ix *RunIndex) keys() ([]Value, bool) {
	ints, vals := ix.ints, ix.vals
	for len(vals) > 0 && vals[0].key.IsNull() {
		vals = vals[1:]
	}
	out := make([]Value, 0, ints.distinct()+vals.distinct())
	for len(ints) > 0 || len(vals) > 0 {
		var v Value
		if len(vals) == 0 || (len(ints) > 0 && Int(int64(ints[0].key)).Compare(vals[0].key) <= 0) {
			v, ints = Int(int64(ints[0].key)), ints[1:]
		} else {
			v, vals = vals[0].key, vals[1:]
		}
		if n := len(out); n == 0 || out[n-1] != v {
			out = append(out, v)
		}
	}
	return out, true
}

// first returns the position of the first entry carrying key, if any does.
func (r run[K]) first(key K) (int, bool) {
	return slices.BinarySearchFunc(r, key, func(e runEntry[K], key K) int { return e.key.Compare(key) })
}

func (r run[K]) has(key K) bool {
	_, found := r.first(key)
	return found
}

func (r run[K]) appendIDs(dst []TupleID, key K) []TupleID {
	for i, _ := r.first(key); i < len(r) && r[i].key.Compare(key) == 0; i++ {
		dst = append(dst, r[i].id)
	}
	return dst
}

func (r run[K]) distinct() int {
	n := 0
	for i := range r {
		if i == 0 || r[i].key.Compare(r[i-1].key) != 0 {
			n++
		}
	}
	return n
}

func (r *run[K]) add(key K, id TupleID) {
	e := runEntry[K]{key, id}
	if pos, found := slices.BinarySearchFunc(*r, e, runEntry[K].compare); !found {
		*r = slices.Insert(*r, pos, e)
	}
}

func (r *run[K]) remove(key K, id TupleID) {
	if pos, found := slices.BinarySearchFunc(*r, runEntry[K]{key, id}, runEntry[K].compare); found {
		*r = slices.Delete(*r, pos, pos+1)
	}
}

// mergeInto fills out, which holds new entries in any order behind len(r)
// positions of room, with the sorted union of r and those entries. With
// unique set it stops and reports false at the first key that occurs twice; r
// itself is never written. The merge runs forward in place: the k-th entry
// written has consumed k entries of r and the new ones together, so it lands
// at or before the first unread new entry.
func (r run[K]) mergeInto(out run[K], unique bool) bool {
	fresh := out[len(r):]
	if len(fresh) == 0 {
		return true
	}
	slices.SortFunc(fresh, runEntry[K].compare)
	i, j := 0, 0
	for k := range out {
		if j == len(fresh) || (i < len(r) && r[i].compare(fresh[j]) < 0) {
			out[k] = r[i]
			i++
		} else {
			out[k] = fresh[j]
			j++
		}
		if unique && k > 0 && out[k].key.Compare(out[k-1].key) == 0 {
			return false
		}
	}
	return true
}
