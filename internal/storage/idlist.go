package storage

import (
	"errors"
	"math"
	"slices"
)

// MaxTupleID is the largest tuple id: a resident id list keeps an id in four
// bytes. A database that has allocated it refuses further inserts with
// ErrOutOfIDs, as a relation does that has handed out its 2³¹−1 slot
// positions, which are never reused.
const MaxTupleID TupleID = math.MaxUint32

// ErrOutOfIDs reports, to errors.Is, an id above MaxTupleID or a relation out
// of slot positions.
var ErrOutOfIDs = errors.New("storage: out of ids")

// IDList is the resident form of an id list — a posting list of the inverted
// index, a list of a join index: ascending, duplicate-free, four bytes an id,
// each the id of a stored tuple. Ids widen to TupleID where a list is copied
// out. The methods are the sorted-list kernel below at uint32; UnionIDs is the
// kernel at TupleID, for lists in flight.
type IDList []uint32

type listID interface{ ~uint32 | ~int64 }

func (l IDList) Insert(id TupleID) IDList { return insertSorted(l, uint32(id)) }
func (l IDList) Remove(id TupleID) IDList { return removeSorted(l, uint32(id)) }
func (l IDList) Union(b IDList) IDList    { return unionSorted(l, b) }
func UnionIDs(a, b []TupleID) []TupleID   { return unionSorted(a, b) }

// Intersect appends to dst the ids l and b share; dst may be l[:0] or b[:0].
// Not inlined: a caller in another package then sees that dst does not escape.
//
//go:noinline
func (l IDList) Intersect(dst, b IDList) IDList { return intersectSorted(dst, l, b) }

// AppendTo appends the ids, widened, to dst; the result never aliases l.
func (l IDList) AppendTo(dst []TupleID) []TupleID { return appendIDs(dst, l) }

// insertSorted adds id to an ascending list. Ids are allocated monotonically,
// so the common case is an append; an id already present is left alone.
func insertSorted[T listID](l []T, id T) []T {
	if n := len(l); n == 0 || l[n-1] < id {
		return append(l, id)
	}
	at, found := slices.BinarySearch(l, id)
	if found {
		return l
	}
	return slices.Insert(l, at, id)
}

// removeSorted deletes id from an ascending list by moving the shorter side,
// so retiring the oldest tuple of a long list (the head) is as cheap as
// retiring the newest.
func removeSorted[T listID](l []T, id T) []T {
	at, found := slices.BinarySearch(l, id)
	if !found {
		return l
	}
	if at < len(l)/2 {
		copy(l[1:at+1], l[:at])
		return l[1:]
	}
	return slices.Delete(l, at, at+1)
}

// unionSorted merges two ascending duplicate-free lists into one. When b
// starts after a ends — stripes of a parallel build, in order — b is appended
// to a in place; otherwise the result is a fresh list.
func unionSorted[T listID](a, b []T) []T {
	if len(a) == 0 || len(b) == 0 || a[len(a)-1] < b[0] {
		return append(a, b...)
	}
	out := make([]T, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case a[0] > b[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// gallopRatio is how much longer one list must be than the other for
// intersectSorted to search it instead of walking it: a two-word name meets
// a surname's short list with a first name's long one.
const gallopRatio = 8

// intersectSorted appends to dst the ids two ascending lists share. dst may
// be a[:0] or b[:0]: the write position never passes either read position.
func intersectSorted[T listID](dst, a, b []T) []T {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) >= gallopRatio*len(a) {
		for _, id := range a {
			hi := 1 // gallop: double the stride until b[hi-1] >= id, search the last stride
			for hi <= len(b) && b[hi-1] < id {
				hi *= 2
			}
			at, _ := slices.BinarySearch(b[hi/2:min(hi, len(b))], id)
			if b = b[hi/2+at:]; len(b) == 0 {
				break
			}
			if b[0] == id {
				dst = append(dst, id)
			}
		}
		return dst
	}
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			a = a[1:]
		case a[0] > b[0]:
			b = b[1:]
		default:
			dst = append(dst, a[0])
			a, b = a[1:], b[1:]
		}
	}
	return dst
}

// appendIDs appends l to dst as TupleIDs, growing dst as append would.
func appendIDs[T listID](dst []TupleID, l []T) []TupleID {
	n := len(dst)
	dst = slices.Grow(dst, len(l))[:n+len(l)]
	for i, id := range l {
		dst[n+i] = TupleID(id)
	}
	return dst
}
