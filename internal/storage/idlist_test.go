package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// linearIntersect is the merge intersectSorted was before it learned to gallop.
func linearIntersect[T listID](out, a, b []T) []T {
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			a = a[1:]
		case a[0] > b[0]:
			b = b[1:]
		default:
			out = append(out, a[0])
			a, b = a[1:], b[1:]
		}
	}
	return out
}

// TestIntersectIDsMatchesLinearMerge holds intersectSorted, at both widths,
// walking, skipping or searching, fresh or in place over either argument, to
// the linear merge on random ascending lists: empty, equal, disjoint, one
// inside the other, and lengths from 1 : 1 to 1 : 10,000, either side of
// gallopRatio and searchRatio.
func TestIntersectIDsMatchesLinearMerge(t *testing.T) {
	t.Run("uint32", intersectMatchesLinearMerge[uint32])
	t.Run("TupleID", intersectMatchesLinearMerge[TupleID])
}

func intersectMatchesLinearMerge[T listID](t *testing.T) {
	r := rand.New(rand.NewSource(24))
	ascending := func(n, span int) []T {
		seen := make(map[int]bool, n)
		for len(seen) < n {
			seen[1+r.Intn(span)] = true
		}
		out := make([]T, 0, n)
		for id := range seen {
			out = append(out, T(id))
		}
		slices.Sort(out)
		return out
	}
	check := func(name string, a, b []T) {
		t.Helper()
		want := linearIntersect(nil, a, b)
		for _, flip := range []bool{false, true} {
			x, y := a, b
			if flip {
				x, y = b, a
			}
			if got := intersectSorted(nil, x, y); !slices.Equal(got, want) {
				t.Fatalf("%s (flipped %t): %d and %d ids: got %v, want %v", name, flip, len(x), len(y), got, want)
			}
			xc := slices.Clone(x)
			if got := intersectSorted(xc[:0], xc, y); !slices.Equal(got, want) {
				t.Fatalf("%s (flipped %t), in place over the first list: got %v, want %v", name, flip, got, want)
			}
			if !slices.Equal(y, map[bool][]T{false: b, true: a}[flip]) {
				t.Fatalf("%s: the other list was written", name)
			}
		}
	}
	big := ascending(10000, 40000)
	check("both empty", nil, nil)
	check("one empty", nil, big)
	check("equal", big, slices.Clone(big))
	check("disjoint, interleaved", []T{2, 4, 6, 8}, []T{1, 3, 5, 7, 9})
	check("disjoint, one after the other", ascending(50, 100), big[9000:])
	check("one inside the other", big[4000:4010], big)
	check("1 : 10,000, present", big[7777:7778], big)
	check("1 : 10,000, absent below", []T{0}, big)
	check("1 : 10,000, absent above", []T{50000}, big)
	for _, ratio := range []int{1, 2, gallopRatio - 1, gallopRatio, gallopRatio + 1, 10, searchRatio - 1, searchRatio, searchRatio + 1, 100, 10000} {
		for trial := 0; trial < 50; trial++ {
			long := ascending(1+r.Intn(10000), 20000)
			short := ascending(max(1, len(long)/ratio), 20000)
			check(fmt.Sprintf("random 1 : %d", ratio), short, long)
		}
	}
}

// TestUnionIDs: the union of two ascending duplicate-free lists is ascending
// and duplicate-free — what a query's seed ids per relation must be, whatever
// terms and attributes they came from.
func TestUnionIDs(t *testing.T) {
	ids := func(xs ...TupleID) []TupleID { return xs }
	for _, c := range []struct {
		name       string
		a, b, want []TupleID
	}{
		{"both empty", nil, nil, nil},
		{"left empty", nil, ids(1, 2), ids(1, 2)},
		{"right empty", ids(1, 2), nil, ids(1, 2)},
		{"identical", ids(1, 5, 9), ids(1, 5, 9), ids(1, 5, 9)},
		{"overlapping", ids(1, 3, 5, 7), ids(5, 6, 7, 8), ids(1, 3, 5, 6, 7, 8)},
		{"nested", ids(1, 2, 3, 4, 5, 6), ids(3, 4), ids(1, 2, 3, 4, 5, 6)},
		{"nesting", ids(3, 4), ids(1, 2, 3, 4, 5, 6), ids(1, 2, 3, 4, 5, 6)},
		{"one after the other", ids(1, 2), ids(3, 4), ids(1, 2, 3, 4)},
		{"one before the other", ids(3, 4), ids(1, 2), ids(1, 2, 3, 4)},
		{"interleaved", ids(1, 4, 6), ids(2, 3, 7), ids(1, 2, 3, 4, 6, 7)},
	} {
		b := slices.Clone(c.b)
		got := UnionIDs(slices.Clone(c.a), b)
		if len(got) != len(c.want) || (len(got) > 0 && !slices.Equal(got, c.want)) {
			t.Errorf("%s: UnionIDs(%v, %v) = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
		if !slices.Equal(b, c.b) {
			t.Errorf("%s: the second list was written: %v", c.name, b)
		}
	}
}

// fuzzID maps an operand byte to an id: 1..240, then the sixteen ids that end
// at MaxTupleID.
func fuzzID(b byte) TupleID {
	if b < 240 {
		return TupleID(b) + 1
	}
	return MaxTupleID - TupleID(255-b)
}

// Opcodes of a FuzzIDList program, taken mod 8; opRun's high five bits are one
// less than the length of its run.
const (
	opInsert        = iota // the operand's id into the list
	opRemove               // ... out of the list
	opInsertOther          // ... into the other list
	opRun                  // a run of ids, from the operand's up, into the other list
	opUnion                // list = list ∪ other
	opIntersect            // list = list ∩ other, into a fresh list
	opIntersectInto        // ... into the list itself
	opAppendTo             // the list appended to operand%4 ids with room for operand/64·100 more
)

// runIDListOps reads data as a program over two lists — an opcode byte and an
// operand byte per step — runs it through the kernel at width T, and holds
// both lists to a set oracle after every step: ascending, duplicate-free,
// len within cap, the other list written by nothing but its own inserts, and
// what appendIDs returns free to be overwritten.
func runIDListOps[T listID](t *testing.T, data []byte) {
	var list, other []T
	set, otherSet := map[TupleID]bool{}, map[TupleID]bool{}
	check := func(step int, what string, got []T, want map[TupleID]bool) {
		t.Helper()
		if len(got) != len(want) || len(got) > cap(got) {
			t.Fatalf("step %d: %s has %d ids (cap %d), want %d: %v", step, what, len(got), cap(got), len(want), got)
		}
		for i, id := range got {
			if !want[TupleID(id)] || (i > 0 && got[i-1] >= id) {
				t.Fatalf("step %d: %s = %v: id %d at %d is foreign or out of order", step, what, got, id, i)
			}
		}
	}
	for step := 0; 2*step+1 < len(data); step++ {
		op, arg := data[2*step], data[2*step+1]
		id := fuzzID(arg)
		otherWas := slices.Clone(other)
		switch op % 8 {
		case opInsert:
			list, set[id] = insertSorted(list, T(id)), true
		case opRemove:
			list = removeSorted(list, T(id))
			delete(set, id)
		case opInsertOther, opRun:
			for k := TupleID(0); k <= TupleID(op/8) && id+k <= MaxTupleID; k++ {
				other, otherSet[id+k] = insertSorted(other, T(id+k)), true
				if op%8 == opInsertOther {
					break
				}
			}
			otherWas = slices.Clone(other)
		case opUnion:
			list = unionSorted(list, other)
			for id := range otherSet {
				set[id] = true
			}
		case opIntersect, opIntersectInto:
			dst := list[:0]
			if op%8 == opIntersect {
				dst = nil
			}
			list = intersectSorted(dst, list, other)
			for id := range set {
				if !otherSet[id] {
					delete(set, id)
				}
			}
		case opAppendTo:
			buf := make([]TupleID, arg%4, int(arg%4)+int(arg/64)*100)
			out := appendIDs(buf, list)
			if len(out) != len(buf)+len(list) {
				t.Fatalf("step %d: %d ids appended to %d make %d", step, len(list), len(buf), len(out))
			}
			for i, id := range list {
				if out[len(buf)+i] != TupleID(id) {
					t.Fatalf("step %d: appendIDs(%v) = %v", step, list, out[len(buf):])
				}
				out[len(buf)+i] = -1 // the check below sees it if out aliases the list
			}
		}
		check(step, "the list", list, set)
		check(step, "the other list", other, otherSet)
		if !slices.Equal(other, otherWas) {
			t.Fatalf("step %d (op %d): the other list was written: %v, was %v", step, op%8, other, otherWas)
		}
	}
}

// FuzzIDList runs a byte string as list operations through the sorted-list
// kernel at both widths (runIDListOps). The seeds take a list through 0, 1,
// 2 → 1 → 0 ids; remove at the head, the middle and the tail; intersect three
// ids with 21, 24 and 27 — either side of gallopRatio — fresh and in place;
// and carry ids up to MaxTupleID through every operation.
func FuzzIDList(f *testing.F) {
	const top = 255 // fuzzID(top) == MaxTupleID
	f.Add([]byte{})
	f.Add([]byte{opRemove, 5, opAppendTo, 0, opInsert, 5, opAppendTo, 1, opInsert, 9, opAppendTo, 66,
		opRemove, 5, opAppendTo, 3, opRemove, 9, opAppendTo, 0, opRemove, 9})
	// Of eight ids: the second (the head side shifts right), the head, the third of six, the tail, one in
	// the tail half, one that is gone; then two come back out of order.
	f.Add([]byte{opInsert, 1, opInsert, 2, opInsert, 3, opInsert, 4, opInsert, 5, opInsert, 6, opInsert, 7, opInsert, 8, opInsert, 3,
		opRemove, 2, opRemove, 1, opRemove, 5, opRemove, 8, opRemove, 6, opRemove, 2, opInsert, 5, opInsert, 1})
	f.Add([]byte{opInsert, 9, opInsert, 3, opInsert, 6, opUnion, 0, opInsertOther, 4, opInsertOther, 6, opInsertOther, 20,
		opUnion, 0, opIntersect, 0, opRun + 8*4, 30, opUnion, 0, opAppendTo, 130})
	for _, n := range []byte{21, 24, 27} {
		// Ids 6, 21 and MaxTupleID−5 against the n−1 ids from 6 up — the first is where a gallop starts — and MaxTupleID.
		f.Add([]byte{opInsert, 5, opInsert, 20, opInsert, top - 5, opRun + 8*(n-2), 5, opInsertOther, top,
			opIntersect, 0, opAppendTo, 2, opInsert, top, opInsert, 30, opIntersectInto, 0, opAppendTo, 64})
	}
	f.Add([]byte{opInsert, top, opInsert, top - 1, opInsert, 240, opInsertOther, top, opRun + 8*15, 245,
		opIntersect, 0, opRemove, top, opUnion, 0, opRemove, 241, opAppendTo, 65})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		runIDListOps[uint32](t, data)
		runIDListOps[TupleID](t, data)
	})
}

// BenchmarkIntersectIDs times the intersection of a 20,000-id posting list
// with one ratio times shorter, as it is stored, beside the linear merge it
// was: the walk below gallopRatio, the skip from it on (1 : 10 is a name's
// two lists), the search from searchRatio on (1 : 10,000 is two ids, a
// title's serial among them).
func BenchmarkIntersectIDs(b *testing.B) {
	every := func(n, stride int) IDList {
		ids := make(IDList, n)
		for i := range ids {
			ids[i] = uint32(1 + i*stride + i%3*(stride/7)) // a third shared with the long list
		}
		return ids
	}
	long := every(20000, 7)
	for _, ratio := range []int{1, 8, 10, 100, 10000} {
		short := every(len(long)/ratio, 7*ratio)
		dst := make(IDList, 0, len(short))
		b.Run(fmt.Sprintf("ratio=%d", ratio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst = short.Intersect(dst[:0], long)
			}
		})
		b.Run(fmt.Sprintf("ratio=%d/linear", ratio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst = linearIntersect(dst[:0], short, long)
			}
		})
	}
}

// TestIDSpaceBoundary: a database hands out ids up to MaxTupleID and then
// refuses with ErrOutOfIDs, whichever way the id arrives — allocated, strided,
// chosen by the caller, in a batch — and a refusal changes nothing.
func TestIDSpaceBoundary(t *testing.T) {
	open := func() (*Database, *Relation) {
		db := NewDatabase("edge")
		db.MustCreateRelation(MustSchema("R", "k", Column{"k", TypeInt}, Column{"g", TypeInt}))
		if err := db.Relation("R").CreateIndex("g"); err != nil {
			t.Fatal(err)
		}
		db.SetNextTupleID(MaxTupleID - 2)
		return db, db.Relation("R")
	}
	// state is everything a refused insert could have touched.
	state := func(db *Database, rel *Relation) string {
		ids, _ := rel.Lookup("g", Int(7))
		return fmt.Sprint(rel.Len(), rel.Extent(), db.NextTupleID(), db.Layout(), ids, rel.indexes["k"].Cardinality())
	}
	refused := func(what string, db *Database, rel *Relation, insert func() error) {
		t.Helper()
		before := state(db, rel)
		if err := insert(); !errors.Is(err, ErrOutOfIDs) {
			t.Fatalf("%s: error %v, want ErrOutOfIDs", what, err)
		}
		if after := state(db, rel); after != before {
			t.Fatalf("%s: the refusal changed the database: %s, was %s", what, after, before)
		}
	}

	db, rel := open()
	for i := TupleID(0); i < 3; i++ {
		if id, err := db.Insert("R", Int(int64(i)), Int(7)); err != nil || id != MaxTupleID-2+i {
			t.Fatalf("insert %d: id %d, %v", i, id, err)
		}
	}
	if got, _ := rel.Lookup("g", Int(7)); !slices.Equal(got, []TupleID{MaxTupleID - 2, MaxTupleID - 1, MaxTupleID}) {
		t.Fatalf("Lookup at the top of the id space = %v", got)
	}
	refused("the fourth Insert", db, rel, func() error { _, err := db.Insert("R", Int(3), Int(7)); return err })
	refused("InsertWithID above the cap", db, rel, func() error { return db.InsertWithID("R", MaxTupleID+1, Int(3), Int(7)) })
	refused("InsertRow above the cap", db, rel, func() error { return db.InsertRow("R", MaxTupleID+1, MakeRow(Int(3), Int(7))) })
	held, _ := rel.Row(MaxTupleID)
	refused("InsertRow of a stored row above the cap", db, rel, func() error { return db.InsertRow("R", MaxTupleID+1, held) })
	if err := db.InsertWithID("R", MaxTupleID, Int(3), Int(7)); err == nil || errors.Is(err, ErrOutOfIDs) {
		t.Fatalf("InsertWithID of a held id at the cap: %v, want the already-held refusal", err)
	}
	if err := db.InsertWithID("R", 5, Int(3), Int(7)); err != nil {
		t.Fatalf("an unused id below the watermark, the database being out of fresh ones: %v", err)
	}
	db.SetNextTupleID(MaxTupleID + 1000)
	if db.NextTupleID() != MaxTupleID+1 {
		t.Fatalf("watermark = %d, want one past MaxTupleID", db.NextTupleID())
	}

	// Strided, as a shard allocates: MaxTupleID ≡ 3 (mod 4), so of the three
	// ids left a shard gets the one of its class, or none.
	for offset, want := range map[TupleID]TupleID{0: 0, 1: MaxTupleID - 2, 2: MaxTupleID - 1, 3: MaxTupleID} {
		db, rel := open()
		if err := db.SetIDStride(offset, 4); err != nil {
			t.Fatal(err)
		}
		if want != 0 {
			if id, err := db.Insert("R", Int(0), Int(7)); err != nil || id != want {
				t.Fatalf("stride class %d: id %d, %v, want %d", offset, id, err, want)
			}
		}
		refused(fmt.Sprint("stride class ", offset, ", the next Insert"), db, rel, func() error {
			_, err := db.Insert("R", Int(1), Int(7))
			return err
		})
	}
}
