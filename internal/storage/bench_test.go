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

// BenchmarkGather reads 850 random tuples of a 400k-tuple relation and selects
// four of their five columns: a Get and a fresh row per tuple, against
// AppendRows by blocks of 256 read through a projection, which copies nothing
// — the two legs of a planned SELECT before it worked a batch at a time and
// now.
func BenchmarkGather(b *testing.B) {
	rel, ids := gatherRelation(b, 400_000)
	cols := []int{0, 1, 2, 4}
	var sink [][]Value
	var rowSink []Row
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
		var p Projection
		rel.Project(&p, cols)
		for i := 0; i < b.N; i++ {
			rows := make([]Row, 0, len(ids))
			var block [256]Row
			for rest := ids; len(rest) > 0; {
				n := min(len(rest), len(block))
				for _, row := range rel.AppendRows(block[:0], rest[:n]) {
					if row.Valid() {
						rows = append(rows, p.Row(row))
					}
				}
				rest = rest[n:]
			}
			rowSink = rows
		}
	})
	_, _ = sink, rowSink
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
				ids, _ = rel.AppendLookups(ids, nil, "a", []Value{k})
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ids, _ = rel.AppendLookups(ids[:0], ends, "a", sets[i%len(sets)])
		}
	})
}

// BenchmarkInsertBatch fills a relation with a primary key and two indexed
// join columns — a shard's, as shard.Partition fills it — with 150 tuples: a
// Has and an InsertWithID per tuple, against one InsertBatch of the base
// relation's rows.
func BenchmarkInsertBatch(b *testing.B) {
	const n = 150
	ids := make([]TupleID, n)
	vals, rows := make([][]Value, n), make([]Row, n)
	schema := MustSchema("R", "id", Column{"id", TypeInt}, Column{"fk1", TypeInt}, Column{"fk2", TypeInt}, Column{"s", TypeString})
	base := NewDatabase("base")
	base.MustCreateRelation(schema)
	r := rand.New(rand.NewSource(1))
	for i := range ids {
		ids[i] = TupleID(1 + 37*i)
		vals[i] = []Value{Int(int64(i)), Int(int64(r.Intn(40))), Int(int64(r.Intn(n))), String("title")}
		if err := base.InsertWithID("R", ids[i], vals[i]...); err != nil {
			b.Fatal(err)
		}
		rows[i], _ = base.Relation("R").Row(ids[i])
	}
	fresh := func() *Database {
		db := NewDatabase("shard")
		rel := db.MustCreateRelation(schema)
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
			db := fresh()
			rel := db.Relation("R")
			rel.Reserve(n)
			for j, id := range ids {
				if rel.Has(id) {
					continue
				}
				if err := db.InsertWithID("R", id, vals[j]...); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got, err := fresh().InsertBatch("R", ids, rows); err != nil || got != n {
				b.Fatal(got, err)
			}
		}
	})
}
