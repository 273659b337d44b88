package sqlx_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"precis/internal/shard"
	"precis/internal/sqlx"
	"precis/internal/storage"
)

// This file is the executable statement of what a Probe returns — written
// over plain slices, with no index, plan or posting list in sight — and the
// test that holds sqlx.Engine.Probe and shard.Fetcher.Probe to it.

// specTuple is one live tuple of the model.
type specTuple struct {
	id   storage.TupleID
	vals []storage.Value
}

// specProbe: group i holds, ascending, the ids of the live tuples whose
// column ci, of type typ, holds values[i] converted to typ (ColType.Key). NULL
// and a value that cannot convert match nothing, and of two values with one
// key the first owns the group, so no id is in two groups.
func specProbe(live []specTuple, ci int, typ storage.ColType, values []storage.Value) [][]storage.TupleID {
	groups := make([][]storage.TupleID, len(values))
	for i, v := range values {
		k, owned := typ.Key(v)
		for _, earlier := range values[:i] {
			ek, ok := typ.Key(earlier)
			owned = owned && !(ok && ek == k)
		}
		if !owned {
			continue
		}
		for _, t := range live {
			if t.vals[ci] == k {
				groups[i] = append(groups[i], t.id)
			}
		}
		slices.Sort(groups[i])
	}
	return groups
}

// The fixture's columns: k INT and f FLOAT are hash-indexed, u is not.
const (
	probeRows    = 3 * 1024 // three slot chunks
	bigInt       = int64(1) << 53
	colK         = 1
	colF         = 2
	colU         = 3
	probeRelName = "T"
)

var (
	probeCols  = []string{"id", "k", "f", "u"}
	probeTypes = []storage.ColType{storage.TypeInt, storage.TypeInt, storage.TypeFloat, storage.TypeInt}
)

// probeFixture builds T, its model, and T partitioned n ways, then deletes
// from all three: every eleventh tuple and the whole second chunk of the
// unpartitioned relation (ids 1025–2048), which storage then frees.
func probeFixture(t *testing.T, parts []shard.Partitioner) (*storage.Database, []specTuple, [][]*storage.Database) {
	t.Helper()
	db := storage.NewDatabase("probe")
	db.MustCreateRelation(storage.MustSchema(probeRelName, "id",
		storage.Column{Name: "id", Type: storage.TypeInt},
		storage.Column{Name: "k", Type: storage.TypeInt},
		storage.Column{Name: "f", Type: storage.TypeFloat},
		storage.Column{Name: "u", Type: storage.TypeInt}))
	r := rand.New(rand.NewSource(21))
	var model []specTuple
	for i := int64(1); i <= probeRows; i++ {
		k, f, u := storage.Int(i%13), storage.Float(float64(i%5)), storage.Int(i%17)
		switch r.Intn(10) {
		case 0:
			k, u = storage.Null, storage.Null
		case 1:
			f = storage.Null
		case 2, 3, 4:
			f = storage.Int(i % 5) // stored as Float(i % 5)
		case 5:
			f = storage.Float(float64(i%5) + 0.5)
		}
		switch i {
		case 7:
			k, f = storage.Int(7777), storage.Float(77.25) // one posting each, held inline
		case 8, 9:
			k = storage.Int(bigInt + i - 8) // Float(2^53) probes 2^53, not 2^53+1
		}
		id, err := db.Insert(probeRelName, storage.Int(i), k, f, u)
		if err != nil {
			t.Fatal(err)
		}
		stored, _ := db.Relation(probeRelName).Get(id)
		model = append(model, specTuple{id, stored.Values})
	}
	index := func(d *storage.Database) {
		for _, c := range []string{"k", "f"} {
			if err := d.Relation(probeRelName).CreateIndex(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	index(db)
	sharded := make([][]*storage.Database, len(parts))
	for i, part := range parts {
		dbs, err := shard.Partition(db, part)
		if err != nil {
			t.Fatal(err)
		}
		for _, sdb := range dbs {
			index(sdb)
		}
		sharded[i] = dbs
	}
	live := model[:0:0]
	for _, tu := range model {
		if tu.id%11 != 0 && (tu.id <= 1024 || tu.id > 2048) {
			live = append(live, tu)
			continue
		}
		if _, err := db.Delete(probeRelName, tu.id); err != nil {
			t.Fatal(err)
		}
		for i, part := range parts {
			if _, err := sharded[i][part.Owner(tu.id)].Delete(probeRelName, tu.id); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db, live, sharded
}

// probeValueSets returns sorted driving-value lists for column ci: every
// stored value with its other-kind twin and values no tuple holds, in both
// orders Compare leaves open; the same with NULLs; one at 2^53; singletons;
// random subsets; and none at all.
func probeValueSets(live []specTuple, ci int) [][]storage.Value {
	var all []storage.Value
	for _, t := range live {
		switch v := t.vals[ci]; {
		case v.Kind() == storage.KindInt && v.AsInt() < bigInt:
			all = append(all, v, storage.Float(float64(v.AsInt())))
		case v.Kind() == storage.KindFloat && v.AsFloat() == float64(int64(v.AsFloat())):
			all = append(all, v, storage.Int(int64(v.AsFloat())))
		case v.Kind() == storage.KindFloat:
			all = append(all, v)
		}
	}
	all = append(all, storage.Int(-4), storage.Float(2.75), storage.Int(424242))
	sorted := func(vals []storage.Value, intFirst bool) []storage.Value {
		vals = slices.Clone(vals)
		slices.SortFunc(vals, func(a, b storage.Value) int {
			if c := a.Compare(b); c != 0 || a.Kind() == b.Kind() {
				return c
			}
			if (a.Kind() == storage.KindInt) == intFirst {
				return -1
			}
			return 1
		})
		return slices.Compact(vals)
	}
	distinct := sorted(all, true)
	sets := [][]storage.Value{
		distinct,
		sorted(all, false),
		sorted(append(slices.Clone(all), storage.Null, storage.Null), true),
		append(slices.Clone(distinct), storage.Float(float64(bigInt))),
		{storage.Null},
		{},
		nil,
	}
	for _, v := range distinct {
		sets = append(sets, []storage.Value{v})
	}
	r := rand.New(rand.NewSource(int64(ci)))
	for trial := 0; trial < 20; trial++ {
		var sub []storage.Value
		for _, v := range distinct {
			if r.Intn(3) == 0 {
				sub = append(sub, v)
			}
		}
		sets = append(sets, sub)
	}
	return sets
}

// prober is what the spec is checked against: the engine and every fetcher.
type prober interface {
	Probe(rel, col string, values []storage.Value) (*sqlx.Groups, error)
}

func TestProbeMatchesSpec(t *testing.T) {
	var parts []shard.Partitioner
	var names []string
	for n := 1; n <= 4; n++ {
		hash, err := shard.NewHashPartitioner(n)
		if err != nil {
			t.Fatal(err)
		}
		var bounds []storage.TupleID
		for b := 1; b < n; b++ {
			bounds = append(bounds, storage.TupleID(b*probeRows/n))
		}
		rng, err := shard.NewRangePartitioner(bounds)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, hash, rng)
		names = append(names, fmt.Sprintf("hash/%d", n), fmt.Sprintf("range/%d", n))
	}
	db, live, sharded := probeFixture(t, parts)
	if rel := db.Relation(probeRelName); rel.Len() != len(live) || len(live) > probeRows-1024 {
		t.Fatalf("fixture: %d live tuples, model %d", rel.Len(), len(live))
	}

	for _, ci := range []int{colK, colF, colU} {
		col := probeCols[ci]
		nonEmpty, crossKind := 0, false
		for _, values := range probeValueSets(live, ci) {
			want := specProbe(live, ci, probeTypes[ci], values)
			check := func(name string, p prober, shards int) *sqlx.Groups {
				got, err := p.Probe(probeRelName, col, values)
				if err != nil {
					t.Fatalf("%s: Probe(%s, %v): %v", name, col, values, err)
				}
				if len(got.Ends) != len(values) || (len(values) > 0 && got.Ends[len(values)-1] != len(got.IDs)) {
					t.Fatalf("%s: Probe(%s, %v): %d ends over %d ids", name, col, values, len(got.Ends), len(got.IDs))
				}
				for i := range values {
					if g := got.Group(i); !slices.Equal(g, want[i]) {
						t.Fatalf("%s: Probe(%s, %v): group %d (%v) has %d ids (ascending: %v), the spec's has %d",
							name, col, values, i, values[i], len(g), slices.IsSorted(g), len(want[i]))
					}
				}
				// The cost model's units: a probe per value (on every shard), a
				// tuple read per posting, a visit per tuple and value only
				// without an index.
				s := got.Stats
				indexed := ci != colU
				if s.TupleReads != len(got.IDs) ||
					(indexed && (s.IndexLookups != shards*len(values) || s.Scanned != 0)) ||
					(!indexed && (s.IndexLookups != 0 || s.Scanned != len(live)*len(values))) {
					t.Fatalf("%s: Probe(%s, %d values): %+v for %d ids", name, col, len(values), s, len(got.IDs))
				}
				return got
			}
			single := check("engine", sqlx.NewEngine(db), 1)
			for i, part := range parts {
				check(names[i], shard.NewFetcher(part, sharded[i], nil), part.Shards())
			}
			for i := range values {
				if n := len(single.Group(i)); n > 0 {
					nonEmpty++
					crossKind = crossKind || (values[i].Kind() == storage.KindInt) == (probeTypes[ci] == storage.TypeFloat)
				}
			}
		}
		if nonEmpty == 0 || !crossKind {
			t.Errorf("%s: the value sets never probed a stored value (or never one of the other numeric kind)", col)
		}
	}

	// What a prober refuses: values out of order, and names it does not know.
	for name, p := range map[string]prober{"engine": sqlx.NewEngine(db), "shards": shard.NewFetcher(parts[5], sharded[5], nil)} {
		if _, err := p.Probe(probeRelName, "k", []storage.Value{storage.Int(2), storage.Int(1)}); err == nil {
			t.Errorf("%s: unsorted values accepted", name)
		}
		if _, err := p.Probe(probeRelName, "nope", nil); err == nil {
			t.Errorf("%s: unknown column accepted", name)
		}
		if _, err := p.Probe("NOPE", "k", nil); err == nil {
			t.Errorf("%s: unknown relation accepted", name)
		}
	}
}

// TestProbeAgreesWithResultMatches: the generator finds a join's partners
// with Probe and the translator finds them again in D′ with AppendMatches; a
// FLOAT column given Int(2) and Float(2) holds one value, 2.0, so both find
// both tuples for either kind of 2, and D′'s DistinctValues lists it once.
func TestProbeAgreesWithResultMatches(t *testing.T) {
	db := storage.NewDatabase("kinds")
	schema := storage.MustSchema("F", "id", storage.Column{Name: "id", Type: storage.TypeInt},
		storage.Column{Name: "f", Type: storage.TypeFloat})
	db.MustCreateRelation(schema)
	for i, v := range []storage.Value{storage.Int(2), storage.Float(2), storage.Float(2.5)} {
		if _, err := db.Insert("F", storage.Int(int64(i)), v); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Relation("F").CreateIndex("f"); err != nil {
		t.Fatal(err)
	}
	var ids []storage.TupleID
	var rows []storage.Row
	db.Relation("F").ScanRows(func(id storage.TupleID, row storage.Row) bool {
		ids, rows = append(ids, id), append(rows, row)
		return true
	})
	d := storage.NewResult("d", []*storage.Schema{schema}, nil).Relation("F")
	d.Append(ids, rows)
	want := ids[:2]
	for _, v := range []storage.Value{storage.Int(2), storage.Float(2)} {
		g, err := sqlx.NewEngine(db).Probe("F", "f", []storage.Value{v})
		if err != nil || !slices.Equal(g.Group(0), want) {
			t.Errorf("Probe(f, %s %v) = %v (%v), want %v", v.Kind(), v, g.Group(0), err, want)
		}
		ms, err := d.AppendMatches(nil, 1, v)
		var got []storage.TupleID
		for _, m := range ms {
			got = append(got, m.ID())
		}
		if err != nil || !slices.Equal(got, want) {
			t.Errorf("AppendMatches(f, %s %v) = %v (%v), want %v", v.Kind(), v, got, err, want)
		}
	}
	if vals, err := d.DistinctValues("f"); err != nil || !slices.Equal(vals, []storage.Value{storage.Float(2), storage.Float(2.5)}) {
		t.Errorf("DistinctValues(f) = %v (%v), want [2 2.5]", vals, err)
	}
}
