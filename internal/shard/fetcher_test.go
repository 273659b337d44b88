package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"precis/internal/sqlx"
	"precis/internal/storage"
)

// TestFetcherIDSetPredicate: a statement carrying the caller-owned id set to
// exclude travels to every shard as the same object, each shard consults the
// set concurrently, and the merged rows equal the single engine's — for every
// shard count, beside a probe, beside an id list and alone, with and without a
// LIMIT cutting the merge.
func TestFetcherIDSetPredicate(t *testing.T) {
	db := testDB(t, 120)
	// The set is a relation of another database holding every third B tuple,
	// the way the generator excludes the tuples already in D'.
	out := storage.NewDatabase("out")
	out.MustCreateRelation(db.Relation("B").Schema().Clone())
	var listed []storage.TupleID
	db.Relation("B").Scan(func(tu storage.Tuple) bool {
		if tu.ID%3 == 0 {
			if err := out.InsertWithID("B", tu.ID, tu.Values...); err != nil {
				t.Fatal(err)
			}
		}
		if tu.ID%5 < 2 {
			listed = append(listed, tu.ID)
		}
		return true
	})
	set := out.Relation("B")
	var aids []storage.Value
	for i := int64(10); i < 70; i++ {
		aids = append(aids, storage.Int(i))
	}
	stmts := []sqlx.SelectStmt{
		{Col: "aid", Values: aids, Exclude: set},
		{IDs: listed, Exclude: set},
		{Exclude: set},
		{Col: "aid", Values: aids}, // alone: every candidate holds a value, so the shards check no tuple
	}
	single := sqlx.NewEngine(db)
	for _, n := range []int{1, 2, 3, 4} {
		part := mustHash(t, n)
		dbs, err := Partition(db, part)
		if err != nil {
			t.Fatal(err)
		}
		for si := range stmts {
			for _, limit := range []int{-1, 5} {
				st := stmts[si]
				st.Columns, st.Table, st.Limit = []string{"id", "aid"}, "B", limit
				want, err := single.ExecStmt(&st)
				if err != nil {
					t.Fatal(err)
				}
				got, err := NewFetcher(part, dbs, nil).ExecStmt(&st)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("shards=%d stmt#%d limit=%d", n, si, limit)
				if len(want.Rows) == 0 || (limit < 0 && len(want.Rows) == db.Relation("B").Len()) {
					t.Fatalf("%s: statement is trivial on the fixture (%d rows)", name, len(want.Rows))
				}
				if !reflect.DeepEqual(got.RowIDs, want.RowIDs) || !sameRows(got.Rows, want.Rows) {
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

// gatherFixture is testDB grown so that a join value of B has partners on
// several shards: 90 more B tuples whose aid cycles over 15 values, and three
// whose aid is NULL. The join indexes exist, as on every shard.
func gatherFixture(t *testing.T) *storage.Database {
	t.Helper()
	db := testDB(t, 60)
	for i := 0; i < 93; i++ {
		aid := storage.Int(int64(i % 15))
		if i >= 90 {
			aid = storage.Null
		}
		if _, err := db.Insert("B", storage.Int(int64(1000+i)), aid); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateJoinIndexes(); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestFetcherMatchesSingleEngine is the gather's differential oracle: seeded
// random statements and probes through a Fetcher over 1–5 hash and range
// shards against sqlx.Engine on the unpartitioned database — the same rows in
// the same order, and the same tuples read wherever no LIMIT cuts a shard
// short. Rowid lists are shuffled, repeat ids, and name ids that never
// existed, that belong to the other relation, and that were deleted after the
// database was partitioned, alone and beside a probe, an excluded id set or
// both, under every kind of projection.
func TestFetcherMatchesSingleEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for shards := 1; shards <= 5; shards++ {
		for _, scheme := range []string{"hash", "range"} {
			db := gatherFixture(t)
			var part Partitioner = mustHash(t, shards)
			if scheme == "range" {
				part = rangeOver(t, db, shards)
			}
			dbs, err := Partition(db, part)
			if err != nil {
				t.Fatal(err)
			}
			var live, dead []storage.TupleID
			db.Relation("B").Scan(func(tu storage.Tuple) bool {
				if tu.ID%7 == 3 {
					dead = append(dead, tu.ID)
				} else {
					live = append(live, tu.ID)
				}
				return true
			})
			for _, id := range dead {
				for _, d := range []*storage.Database{db, dbs[part.Owner(id)]} {
					if ok, err := d.Delete("B", id); !ok || err != nil {
						t.Fatalf("delete %d: %v, %v", id, ok, err)
					}
				}
			}
			// The excluded set: every other live B.
			set := storage.NewDatabase("set")
			set.MustCreateRelation(db.Relation("B").Schema().Clone())
			for i, id := range live {
				if i%2 == 0 {
					tu, _ := db.Relation("B").Get(id)
					if err := set.InsertWithID("B", id, tu.Values...); err != nil {
						t.Fatal(err)
					}
				}
			}
			foreign := storage.TupleID(1) // an A tuple: the id exists, not in B
			single := sqlx.NewEngine(db)
			name := fmt.Sprintf("%s/%d", scheme, shards)

			pick := func(n int) []storage.TupleID { // n ids: live ones repeated, dead, foreign, never allocated
				ids := make([]storage.TupleID, n)
				for i := range ids {
					switch r := rng.Intn(10); {
					case r < 7:
						ids[i] = live[rng.Intn(len(live))]
					case r == 7:
						ids[i] = dead[rng.Intn(len(dead))]
					case r == 8:
						ids[i] = foreign
					default:
						ids[i] = storage.TupleID(5000 + rng.Intn(50))
					}
				}
				return ids
			}
			aids := func() []storage.Value {
				var vals []storage.Value
				for n := 1 + rng.Intn(12); n > 0; n-- {
					vals = append(vals, storage.Int(int64(rng.Intn(20))))
				}
				return vals
			}
			routed, unrouted, cut := 0, 0, 0
			for round := 0; round < 300; round++ {
				st := &sqlx.SelectStmt{Columns: []string{"id", "aid"}, Table: "B", Limit: -1}
				var parts []string
				if isRouted := rng.Intn(3) > 0; isRouted {
					routed++
					st.IDs = pick(rng.Intn(40))
					parts = append(parts, fmt.Sprintf("rowid IN %v", st.IDs))
					if rng.Intn(2) == 0 {
						st.Col, st.Values = "aid", aids()
					}
				} else {
					unrouted++
					st.Col, st.Values = "aid", aids()
				}
				if st.Col != "" {
					parts = append(parts, fmt.Sprintf("aid IN %v", st.Values))
				}
				if rng.Intn(2) == 0 {
					st.Exclude = set.Relation("B")
					parts = append(parts, "rowid NOT IN set")
				}
				switch rng.Intn(3) {
				case 0:
					st.Columns = []string{"aid", "id"}
				case 1:
					st.Columns = []string{} // the ids alone
				}
				text := strings.Join(parts, " AND ")
				all, err := single.ExecStmt(st)
				if err != nil {
					t.Fatal(err)
				}
				for _, limit := range []int{-1, 0, 1, len(all.Rows) / 2, len(all.Rows) + 3} {
					st.Limit = limit
					want, err := single.ExecStmt(st)
					if err != nil {
						t.Fatal(err)
					}
					got, err := NewFetcher(part, dbs, nil).ExecStmt(st)
					if err != nil {
						t.Fatalf("%s: %s LIMIT %d: %v", name, text, limit, err)
					}
					if !slices.Equal(got.RowIDs, want.RowIDs) || len(got.Rows) != len(want.Rows) ||
						!sameRows(got.Rows, want.Rows) {
						t.Fatalf("%s: %s LIMIT %d:\nrows %v\nthe single engine's %v", name, text, limit, got.RowIDs, want.RowIDs)
					}
					if limit >= 0 && limit < len(all.Rows) {
						cut++
					} else if got.Stats.TupleReads != want.Stats.TupleReads {
						t.Fatalf("%s: %s LIMIT %d: read %d tuples, the single engine %d", name, text, limit, got.Stats.TupleReads, want.Stats.TupleReads)
					}
				}
			}
			if routed < 100 || unrouted < 50 || cut < 100 {
				t.Fatalf("%s: %d routed and %d unrouted statements, %d cut by their LIMIT: the generator lost a case", name, routed, unrouted, cut)
			}

			// Probes: sorted driving values with NULLs, values no tuple holds and
			// values that compare equal to their predecessor (Int(3), Float(3)).
			for round := 0; round < 60; round++ {
				var values []storage.Value
				for n := rng.Intn(25); n > 0; n-- {
					switch v := int64(rng.Intn(22)); rng.Intn(8) {
					case 0:
						values = append(values, storage.Null)
					case 1:
						values = append(values, storage.Int(v), storage.Float(float64(v)))
					default:
						values = append(values, storage.Int(v))
					}
				}
				slices.SortStableFunc(values, storage.Value.Compare)
				want, err := single.Probe("B", "aid", values)
				if err != nil {
					t.Fatal(err)
				}
				got, err := NewFetcher(part, dbs, nil).Probe("B", "aid", values)
				if err != nil {
					t.Fatalf("%s: Probe(%v): %v", name, values, err)
				}
				if !slices.Equal(got.IDs, want.IDs) || !slices.Equal(got.Ends, want.Ends) || got.Stats.TupleReads != want.Stats.TupleReads {
					t.Fatalf("%s: Probe(%v):\n%v %v, %d tuple reads\nthe single engine's %v %v, %d", name, values,
						got.IDs, got.Ends, got.Stats.TupleReads, want.IDs, want.Ends, want.Stats.TupleReads)
				}
			}
		}
	}
}

// TestFetcherLeavesStatementAlone: a routed statement is narrowed per shard by
// a copy listing the shard's bucket, so the caller's statement — its id list
// above all, which the bucketing reads and every shard's copy replaces — is
// never written, and one statement object can be executed by several fetchers
// at once (-race watches the shards' goroutines read it).
func TestFetcherLeavesStatementAlone(t *testing.T) {
	db := testDB(t, 60)
	part := mustHash(t, 3)
	dbs, err := Partition(db, part)
	if err != nil {
		t.Fatal(err)
	}
	ids := []storage.TupleID{70, 64, 70, 5000, 66, 1, 64}
	aids := []storage.Value{storage.Int(3), storage.Int(1), storage.Int(3)}
	st := &sqlx.SelectStmt{Columns: []string{"aid"}, Table: "B", IDs: ids, Col: "aid", Values: aids, Limit: 4}
	before := *st
	beforeIDs, beforeAids := slices.Clone(ids), slices.Clone(aids)
	want, err := sqlx.NewEngine(db).ExecStmt(st)
	if err != nil || len(want.Rows) == 0 {
		t.Fatalf("single engine: %v, %v", want, err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := NewFetcher(part, dbs, nil).ExecStmt(st)
			if err == nil && !slices.Equal(got.RowIDs, want.RowIDs) {
				err = fmt.Errorf("rows %v, the single engine's %v", got.RowIDs, want.RowIDs)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if !reflect.DeepEqual(*st, before) || &st.IDs[0] != &ids[0] || !slices.Equal(ids, beforeIDs) || !reflect.DeepEqual(aids, beforeAids) {
		t.Errorf("the statement was written: %+v, was %+v (ids %v, were %v)", *st, before, ids, beforeIDs)
	}
}

// misplacer is a partitioner with a bug: it places the ids above lost outside
// [0, Shards()).
type misplacer struct {
	Partitioner
	lost storage.TupleID
}

func (m misplacer) Owner(id storage.TupleID) int {
	if id > m.lost {
		return m.Shards() + 2
	}
	return m.Partitioner.Owner(id)
}

// TestFetcherRefusesMisplacedTuple: an id the partitioner places outside
// [0, N) fails the statement with the error Partition gives the same
// condition. It used to be left out of the routing — tuple 12 below, the only
// listed one on its shard — and the answer came back short without a word.
func TestFetcherRefusesMisplacedTuple(t *testing.T) {
	db := testDB(t, 20)
	part := mustHash(t, 3)
	dbs, err := Partition(db, part)
	if err != nil {
		t.Fatal(err)
	}
	ids := []storage.TupleID{4, 12, 7, 1} // 12 alone lives on shard 0
	st := &sqlx.SelectStmt{Columns: []string{"id"}, Table: "A", IDs: ids, Limit: -1}
	res, err := NewFetcher(part, dbs, nil).ExecStmt(st)
	if err != nil || !slices.Equal(res.RowIDs, ids) {
		t.Fatalf("sound partitioner: %v, %v", res, err)
	}
	broken := misplacer{Partitioner: part, lost: 10}
	res, err = NewFetcher(broken, dbs, nil).ExecStmt(st)
	if want := "shard: partitioner placed tuple 12 on shard 5 of 3"; err == nil || err.Error() != want {
		t.Fatalf("misplaced tuple: result %v, error %v, want error %q", res, err, want)
	}
	if _, err := Partition(db, broken); err == nil || !strings.Contains(err.Error(), "partitioner placed tuple") {
		t.Fatalf("Partition with the same partitioner: %v", err)
	}
	// A nil statement is refused, as the single engine refuses it.
	if _, err := sqlx.NewEngine(db).ExecStmt(nil); err == nil {
		t.Fatal("the single engine ran a nil statement")
	}
	if res, err := NewFetcher(part, dbs, nil).ExecStmt(nil); err == nil {
		t.Fatalf("nil statement: result %v, no error", res)
	}
}

// sameRows reports whether two results' rows read the same values in order.
func sameRows(a, b []storage.Row) bool {
	return slices.EqualFunc(a, b, func(x, y storage.Row) bool { return reflect.DeepEqual(x.Values(), y.Values()) })
}
