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
// column ci Equals values[i]. NULL equals nothing, and of two values that
// Compare equal the first owns the group, so no id is in two groups.
func specProbe(live []specTuple, ci int, values []storage.Value) [][]storage.TupleID {
	groups := make([][]storage.TupleID, len(values))
	for i, v := range values {
		owned := !v.IsNull()
		for _, earlier := range values[:i] {
			owned = owned && earlier.Compare(v) != 0
		}
		if !owned {
			continue
		}
		for _, t := range live {
			if t.vals[ci].Equal(v) {
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

var probeCols = []string{"id", "k", "f", "u"}

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
			f = storage.Int(i % 5) // a FLOAT column stores Int(1) beside Float(1)
		case 5:
			f = storage.Float(float64(i%5) + 0.5)
		}
		switch i {
		case 7:
			k, f = storage.Int(7777), storage.Float(77.25) // one posting each, held inline
		case 8, 9:
			k = storage.Int(bigInt + i - 8) // 2^53 and 2^53+1 both Equal Float(2^53)
		}
		vals := []storage.Value{storage.Int(i), k, f, u}
		id, err := db.Insert(probeRelName, vals...)
		if err != nil {
			t.Fatal(err)
		}
		model = append(model, specTuple{id, vals})
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
// orders Compare leaves open; the same with NULLs; one beyond the exactly
// representable floats; singletons; random subsets; and none at all.
func probeValueSets(live []specTuple, ci int) [][]storage.Value {
	var all []storage.Value
	for _, t := range live {
		if v := t.vals[ci]; v.Kind() == storage.KindInt && v.AsInt() < bigInt {
			all = append(all, v, storage.Float(float64(v.AsInt())))
		} else if v.Kind() == storage.KindFloat {
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
		append(slices.Clone(distinct), storage.Float(float64(bigInt))), // left to a scan
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
		nonEmpty, twoLists := 0, false
		for _, values := range probeValueSets(live, ci) {
			want := specProbe(live, ci, values)
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
				// tuple read per posting, a visit per tuple only without an index.
				s := got.Stats
				indexed := ci != colU && !slices.Contains(values, storage.Float(float64(bigInt)))
				if s.TupleReads != len(got.IDs) ||
					(indexed && (s.IndexLookups != shards*len(values) || s.Scanned != 0)) ||
					(!indexed && (s.IndexLookups != 0 || s.Scanned != len(live))) {
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
					twoLists = twoLists || (ci == colF && values[i].Kind() == storage.KindInt && n > 200)
				}
			}
		}
		if nonEmpty == 0 || (ci == colF && !twoLists) {
			t.Errorf("%s: the value sets never probed a stored value (or never merged Int and Float postings)", col)
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
