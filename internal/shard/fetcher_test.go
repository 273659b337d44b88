package shard

import (
	"fmt"
	"reflect"
	"testing"

	"precis/internal/sqlx"
	"precis/internal/storage"
)

// TestFetcherIDSetPredicate: a statement carrying the caller-owned id-set
// predicate travels to every shard as the same object, each shard consults
// the set concurrently, and the merged rows equal the single engine's — for
// every shard count, wherever the predicate sits in the WHERE clause, with
// and without a LIMIT cutting the merge.
func TestFetcherIDSetPredicate(t *testing.T) {
	db := testDB(t, 120)
	// The set is a relation of another database holding every third B tuple,
	// the way the generator excludes the tuples already in D'.
	out := storage.NewDatabase("out")
	out.MustCreateRelation(db.Relation("B").Schema().Clone())
	db.Relation("B").Scan(func(tu storage.Tuple) bool {
		if tu.ID%3 == 0 {
			if err := out.InsertWithID("B", tu.ID, tu.Values...); err != nil {
				t.Fatal(err)
			}
		}
		return true
	})
	set := out.Relation("B")
	var aids []storage.Value
	for i := int64(10); i < 70; i++ {
		aids = append(aids, storage.Int(i))
	}
	probe := &sqlx.InList{Left: &sqlx.ColumnRef{Name: "aid"}, Values: aids}
	inSet, notInSet := &sqlx.RowIDInSet{Set: set}, &sqlx.RowIDInSet{Set: set, Not: true}
	wheres := []sqlx.Expr{
		&sqlx.Logical{And: true, Left: probe, Right: notInSet},
		&sqlx.Logical{And: true, Left: probe, Right: &sqlx.Not{Inner: inSet}},
		&sqlx.Logical{Left: inSet, Right: &sqlx.Compare{Op: sqlx.OpEq, Left: &sqlx.ColumnRef{Name: "id"}, Right: &sqlx.Literal{Value: storage.Int(7)}}},
		notInSet,
		probe, // alone: every candidate satisfies it, so the shards check no tuple against it
	}
	single := sqlx.NewEngine(db)
	for _, n := range []int{1, 2, 3, 4} {
		part := mustHash(t, n)
		dbs, err := Partition(db, part)
		if err != nil {
			t.Fatal(err)
		}
		for wi, where := range wheres {
			for _, limit := range []int{-1, 5} {
				st := &sqlx.SelectStmt{Columns: []string{sqlx.RowIDColumn, "aid"}, Table: "B", Where: where, Limit: limit}
				want, err := single.ExecStmt(st)
				if err != nil {
					t.Fatal(err)
				}
				got, err := NewFetcher(part, dbs, nil).ExecStmt(st)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("shards=%d where#%d limit=%d", n, wi, limit)
				if len(want.Rows) == 0 || (limit < 0 && len(want.Rows) == db.Relation("B").Len()) {
					t.Fatalf("%s: predicate is trivial on the fixture (%d rows)", name, len(want.Rows))
				}
				if !reflect.DeepEqual(got.RowIDs, want.RowIDs) || !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Errorf("%s: rows %v, single engine %v", name, got.RowIDs, want.RowIDs)
				}
				// Index probes repeat on every shard; tuple reads do not.
				if limit < 0 && got.Stats.TupleReads != want.Stats.TupleReads {
					t.Errorf("%s: read %d tuples, single engine %d", name, got.Stats.TupleReads, want.Stats.TupleReads)
				}
			}
		}
	}
}
