package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func benchDB(b *testing.B, rows int) *Database {
	b.Helper()
	db := NewDatabase("bench")
	db.MustCreateRelation(MustSchema("R", "id",
		Column{"id", TypeInt}, Column{"k", TypeInt}, Column{"s", TypeString}))
	if err := db.Relation("R").CreateIndex("k"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := db.Insert("R", Int(int64(i)), Int(int64(i%100)), String(fmt.Sprintf("row %d", i))); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

func BenchmarkInsert(b *testing.B) {
	db := NewDatabase("bench")
	db.MustCreateRelation(MustSchema("R", "id",
		Column{"id", TypeInt}, Column{"k", TypeInt}, Column{"s", TypeString}))
	if err := db.Relation("R").CreateIndex("k"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Insert("R", Int(int64(i)), Int(int64(i%100)), String("x")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashLookup(b *testing.B) {
	db := benchDB(b, 10000)
	rel := db.Relation("R")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rel.Lookup("k", Int(int64(i%100))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBTreeInsertDelete(b *testing.B) {
	bt := newBTree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := btreeKey{v: Int(int64(i % 5000)), id: TupleID(i)}
		bt.insert(k)
		if i%3 == 0 {
			bt.delete(k)
		}
	}
}

func BenchmarkOrderedRange(b *testing.B) {
	db := benchDB(b, 10000)
	rel := db.Relation("R")
	if _, err := rel.CreateOrderedIndex("k"); err != nil {
		b.Fatal(err)
	}
	ix := rel.OrderedIndexOn("k")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		ix.Range(&Bound{Int(int64(i % 80)), true}, &Bound{Int(int64(i%80 + 10)), true},
			func(Value, TupleID) bool {
				n++
				return true
			})
		if n == 0 {
			b.Fatal("empty range")
		}
	}
}

func BenchmarkExport(b *testing.B) {
	db := benchDB(b, 2000)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Export(db, fmt.Sprintf("%s/run%d", dir, i)); err != nil {
			b.Fatal(err)
		}
	}
}

// gatherRelation is a five-column relation of n tuples and 850 of its ids
// drawn at random: one deep answer's worth of tuple reads against a heap far
// larger than the cache.
func gatherRelation(b *testing.B, n int) (*Relation, []TupleID) {
	b.Helper()
	db := NewDatabase("bench")
	rel := db.MustCreateRelation(MustSchema("R", "id", Column{"id", TypeInt},
		Column{"a", TypeInt}, Column{"b", TypeString}, Column{"c", TypeString}, Column{"d", TypeInt}))
	for i := 0; i < n; i++ {
		if _, err := db.Insert("R", Int(int64(i)), Int(int64(i%977)), String("b"), String("c"), Int(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(1))
	ids := make([]TupleID, 850)
	for i := range ids {
		ids[i] = TupleID(1 + r.Intn(n))
	}
	return rel, ids
}

// BenchmarkGather reads 850 random tuples of a 400k-tuple relation and copies
// four of their five columns out: a Get and a fresh row per tuple, against
// AppendTuples by blocks of 256 into one array — the two legs of a planned
// SELECT before and after it worked a batch at a time.
func BenchmarkGather(b *testing.B) {
	rel, ids := gatherRelation(b, 400_000)
	cols := []int{0, 1, 2, 4}
	var sink [][]Value
	b.Run("per-tuple", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows := make([][]Value, 0, len(ids))
			for _, id := range ids {
				if t, ok := rel.Get(id); ok {
					row := make([]Value, len(cols))
					for j, ci := range cols {
						row[j] = t.Values[ci]
					}
					rows = append(rows, row)
				}
			}
			sink = rows
		}
	})
	b.Run("blocks", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows := make([][]Value, 0, len(ids))
			arena := make([]Value, len(ids)*len(cols))
			var block [256]Tuple
			for rest := ids; len(rest) > 0; {
				n := min(len(rest), len(block))
				for _, t := range rel.AppendTuples(block[:0], rest[:n]) {
					row := arena[:len(cols):len(cols)]
					arena = arena[len(cols):]
					for j, ci := range cols {
						row[j] = t.Values[ci]
					}
					rows = append(rows, row)
				}
				rest = rest[n:]
			}
			sink = rows
		}
	})
	_ = sink
}

// BenchmarkLookups resolves 100 sorted keys of an indexed join column holding
// 34,000 keys of four or five tuples each — one join's worth of index lookups,
// a different hundred every iteration so that the entries are cold — one
// AppendLookup per key against one AppendLookups for all of them.
func BenchmarkLookups(b *testing.B) {
	const keys, tuples, perOp = 34_000, 150_000, 100
	db := NewDatabase("bench")
	rel := db.MustCreateRelation(MustSchema("R", "id", Column{"id", TypeInt}, Column{"a", TypeInt}))
	if err := rel.CreateIndex("a"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < tuples; i++ {
		if _, err := db.Insert("R", Int(int64(i)), Int(int64(i*7919%keys))); err != nil {
			b.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(1))
	sets := make([][]Value, 256)
	for i := range sets {
		sets[i] = make([]Value, perOp)
		for j := range sets[i] {
			sets[i][j] = Int(int64(r.Intn(keys)))
		}
		slices.SortFunc(sets[i], Value.Compare)
	}
	ids, ends := make([]TupleID, 0, 8*perOp), make([]int, perOp)
	b.Run("per-value", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ids = ids[:0]
			for _, k := range sets[i%len(sets)] {
				ids, _ = rel.AppendLookup(ids, "a", k)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ids, _ = rel.AppendLookups(ids[:0], ends, "a", sets[i%len(sets)])
		}
	})
}

// BenchmarkInsertBatch fills a result-shaped relation — a primary key and two
// indexed join columns — with 150 fetched tuples: a Has and an InsertWithID
// per tuple into hash indexes, against one InsertBatch into sorted runs.
func BenchmarkInsertBatch(b *testing.B) {
	const n = 150
	ids := make([]TupleID, n)
	rows := make([][]Value, n)
	r := rand.New(rand.NewSource(1))
	for i := range ids {
		ids[i] = TupleID(1 + 37*i)
		rows[i] = []Value{Int(int64(i)), Int(int64(r.Intn(40))), Int(int64(r.Intn(n))), String("title")}
	}
	fresh := func(newDB func(string) *Database) *Database {
		db := newDB("precis")
		rel := db.MustCreateRelation(MustSchema("R", "id", Column{"id", TypeInt}, Column{"fk1", TypeInt}, Column{"fk2", TypeInt}, Column{"s", TypeString}))
		for _, c := range []string{"fk1", "fk2"} {
			if err := rel.CreateIndex(c); err != nil {
				b.Fatal(err)
			}
		}
		return db
	}
	b.Run("per-tuple", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db := fresh(NewDatabase)
			rel := db.Relation("R")
			rel.Reserve(n)
			for j, id := range ids {
				if rel.Has(id) {
					continue
				}
				if err := db.InsertWithID("R", id, rows[j]...); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got, err := fresh(NewBatchDatabase).InsertBatch("R", ids, rows); err != nil || got != n {
				b.Fatal(got, err)
			}
		}
	})
}
