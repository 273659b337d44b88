package precis

// Record ownership (DESIGN.md §7): storage copies the values a mutation hands
// it into a record of its own and never writes that record again, so a
// caller's slice stays the caller's and a row borrowed from a record — by D′,
// a dirty capture, a cached answer — reads the same bytes for as long as it is
// held. These tests scribble on every slice a caller still holds and on
// nothing else, and check that no stored tuple, dirty capture or persisted
// byte sees it. scripts/ci.sh runs them under -race with the failed-append
// suites.

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"precis/internal/dataset"
	"precis/internal/faultinject"
	"precis/internal/sqlx"
	"precis/internal/storage"
)

// scribble overwrites every value of a slice the caller still owns.
func scribble(vals []storage.Value) {
	for i := range vals {
		vals[i] = storage.String("SCRIBBLED")
	}
}

func director(did int64, name string) []storage.Value {
	return []storage.Value{storage.Int(did), storage.String(name), storage.String("Ixelles"), storage.String("1928")}
}

// TestMutatorsCopyCallerSlice: the caller of Insert and Update may reuse its
// slice at once; the stored tuple, its postings and a dirty capture taken in
// between keep the values the call was made with.
func TestMutatorsCopyCallerSlice(t *testing.T) {
	eng := newEngine(t)
	eng.Database().EnableDirtyTracking()
	rel := eng.Database().Relation("DIRECTOR")

	vals := director(902, "Agnes Varda")
	id, err := eng.Insert("DIRECTOR", vals...)
	if err != nil {
		t.Fatal(err)
	}
	captured := eng.Database().CaptureDirty()
	scribble(vals)
	if got, _ := rel.Get(id); !reflect.DeepEqual(got.Values, director(902, "Agnes Varda")) {
		t.Fatalf("stored tuple follows the caller's slice after Insert: %v", got.Values)
	}

	upd := director(902, "A. Varda")
	if err := eng.Update("DIRECTOR", id, upd); err != nil {
		t.Fatal(err)
	}
	recaptured := eng.Database().CaptureDirty()
	scribble(upd)
	if got, _ := rel.Get(id); !reflect.DeepEqual(got.Values, director(902, "A. Varda")) {
		t.Fatalf("stored tuple follows the caller's slice after Update: %v", got.Values)
	}
	for _, c := range []struct {
		set  *storage.DirtySet
		want []storage.Value
	}{{captured, director(902, "Agnes Varda")}, {recaptured, director(902, "A. Varda")}} {
		var got []storage.Value
		for _, r := range c.set.Relations {
			for _, u := range r.Upserts {
				if r.Name == "DIRECTOR" && u.ID == id {
					got = u.Row.Values()
				}
			}
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("dirty capture holds %v, want %v", got, c.want)
		}
	}
	if _, err := eng.QueryString("SCRIBBLED", Options{}); !errors.Is(err, ErrNoMatches) {
		t.Fatalf("the scribble reached the index: %v", err)
	}
	if ans, err := eng.QueryString("Varda", Options{}); err != nil || ans.Database.Relation("DIRECTOR").Len() != 1 {
		t.Fatalf("the updated tuple is not found under its own name: %v", err)
	}
}

// TestRollbackKeepsRowsApart: a failed WAL append applies nothing, so the
// tuple keeps its row. The tuple a reader held from before, the tuple as the
// failures left it, and every later version of it stay independent, in
// memory and on disk.
func TestRollbackKeepsRowsApart(t *testing.T) {
	dir := t.TempDir()
	eng := openPersistent(t, dir)
	defer eng.Close()
	rel := eng.Database().Relation("DIRECTOR")
	first := director(902, "Agnes Varda")
	id, err := eng.Insert("DIRECTOR", first...)
	if err != nil {
		t.Fatal(err)
	}
	scribble(first)
	held, _ := rel.Get(id)
	before := dumpDatabase(eng.Database())

	errBoom := errors.New("injected WAL failure")
	deactivate := faultinject.Activate(faultinject.NewPlan().Set(faultinject.SiteWALAppend, faultinject.Rule{Err: errBoom}))
	failed := director(902, "Nobody")
	if err := eng.Update("DIRECTOR", id, failed); !errors.Is(err, errBoom) {
		t.Fatalf("Update under WAL failure = %v", err)
	}
	scribble(failed)
	if ok, err := eng.Delete("DIRECTOR", id); ok || !errors.Is(err, errBoom) {
		t.Fatalf("Delete under WAL failure = %v, %v", ok, err)
	}
	lost := director(903, "Phantom")
	if _, err := eng.Insert("DIRECTOR", lost...); !errors.Is(err, errBoom) {
		t.Fatalf("Insert under WAL failure = %v", err)
	}
	scribble(lost)
	deactivate()
	if got := dumpDatabase(eng.Database()); got != before {
		t.Fatalf("rolled-back mutations left state behind:\nwant:\n%s\ngot:\n%s", before, got)
	}

	// The tuple the failures left moves on; the tuple held since before the
	// failures, which shares its row, must not.
	resurrected, _ := rel.Get(id)
	next := director(902, "A. Varda")
	if err := eng.Update("DIRECTOR", id, next); err != nil {
		t.Fatal(err)
	}
	scribble(next)
	for _, old := range []storage.Tuple{held, resurrected} {
		if !reflect.DeepEqual(old.Values, director(902, "Agnes Varda")) {
			t.Fatalf("a tuple held across the rollback changed: %v", old.Values)
		}
	}
	if got, _ := rel.Get(id); !reflect.DeepEqual(got.Values, director(902, "A. Varda")) {
		t.Fatalf("update after the rollback stored %v", got.Values)
	}
	if _, err := eng.QueryString("Agnes", Options{}); !errors.Is(err, ErrNoMatches) {
		t.Fatalf("postings of the replaced row survive: %v", err)
	}

	// What was logged and what a checkpoint captures are the values of the
	// calls, not of the slices afterwards.
	reopened := openPersistent(t, copyDataDir(t, dir))
	if got, want := dumpDatabase(reopened.Database()), dumpDatabase(eng.Database()); got != want {
		t.Fatalf("WAL replay differs from memory:\nwant:\n%s\ngot:\n%s", want, got)
	}
	reopened.Close()
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	reopened = openPersistent(t, copyDataDir(t, dir))
	defer reopened.Close()
	if got, want := dumpDatabase(reopened.Database()), dumpDatabase(eng.Database()); got != want {
		t.Fatalf("checkpoint differs from memory:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestResultRowsReadTheirOwnRecords: a row of an sqlx result is a reference,
// not a slice — there is nothing to append to, so nothing can reach a
// neighbour. Each reads its own tuple: the stored record itself, through the
// statement's projection; and what it reads does not move when the stored
// tuples are updated and deleted. The tuples of a result database read the
// same way.
func TestResultRowsReadTheirOwnRecords(t *testing.T) {
	cfg := dataset.DefaultSyntheticConfig()
	cfg.Films = 300
	db, err := dataset.SyntheticMovies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sql := sqlx.NewEngine(db)
	movies := db.Relation("MOVIE")
	ids := movies.Tuples()
	did3 := []storage.Value{storage.Int(3)}
	for _, q := range []*sqlx.SelectStmt{
		{Table: "MOVIE", IDs: []storage.TupleID{ids[0].ID, ids[1].ID, ids[2].ID}, Limit: -1},     // rowid fetch
		{Columns: []string{"title", "year"}, Table: "MOVIE", Col: "did", Values: did3, Limit: 2}, // hash probe under a LIMIT
		{Columns: []string{"year", "title"}, Table: "MOVIE", Limit: -1},                          // scan, columns reordered
		{Columns: []string{"mid", "did"}, Table: "MOVIE", Col: "did", Values: did3, Limit: -1},   // a gapped projection
	} {
		res, err := sql.ExecStmt(q)
		if err != nil || len(res.Rows) < 2 {
			t.Fatalf("%+v: %d rows, %v", q, len(res.Rows), err)
		}
		want := make([][]storage.Value, len(res.Rows))
		for i, row := range res.Rows {
			stored, _ := movies.Row(res.RowIDs[i])
			for _, c := range res.Columns {
				want[i] = append(want[i], stored.Value(movies.Schema().ColumnIndex(c)))
			}
			if !reflect.DeepEqual(row.Values(), want[i]) || !row.Shares(stored) {
				t.Fatalf("%+v: row %d reads %v (its tuple's record: %v), want %v", q, i, row.Values(), row.Shares(stored), want[i])
			}
		}
		for _, tu := range ids {
			if err := db.Update("MOVIE", tu.ID, []storage.Value{tu.Values[0], storage.String("SCRIBBLED"), storage.Int(1), tu.Values[3]}); err != nil {
				t.Fatal(err)
			}
		}
		for i, row := range res.Rows {
			if !reflect.DeepEqual(row.Values(), want[i]) {
				t.Fatalf("%+v: row %d reads %v after its tuple was updated, want %v", q, i, row.Values(), want[i])
			}
		}
		for _, tu := range ids {
			if err := db.Update("MOVIE", tu.ID, tu.Values); err != nil {
				t.Fatal(err)
			}
		}
	}

	eng := newEngine(t)
	ans, err := eng.Query([]string{"Woody Allen"}, Options{SkipNarrative: true})
	if err != nil {
		t.Fatal(err)
	}
	before := dumpDatabase(ans.Database)
	for _, name := range ans.Database.RelationNames() {
		scanTuples(ans.Database.Relation(name), func(tu storage.Tuple) bool {
			scribble(tu.Values)
			return true
		})
	}
	if dumpDatabase(ans.Database) != before {
		t.Fatal("writing a decoded tuple of the result database wrote the database")
	}
}

// baseDatabases returns the databases an engine's answers are fetched from:
// its own, or its shards'.
func baseDatabases(e *Engine) []*storage.Database {
	var dbs []*storage.Database
	_ = e.backend.each(func(n *node) error {
		dbs = append(dbs, n.db)
		return nil
	})
	return dbs
}

// TestAnswerRowsBorrowBaseRows: every result relation holds the records of
// its base relation — the same memory, read through the columns it keeps,
// whether they are a run of the base's or a gapped selection of them — and
// copies none. On one engine, across shards, on a recovered persistent engine,
// and on the answer the cache hands out again.
func TestAnswerRowsBorrowBaseRows(t *testing.T) {
	engines := map[string]*Engine{
		"single":     newEngine(t),
		"sharded":    newShardedEngine(t, 4, "hash"),
		"persistent": openPersistent(t, t.TempDir()),
		"cached":     newCachedEngine(t),
	}
	defer engines["persistent"].Close()
	for name, eng := range engines {
		for _, strat := range []Strategy{StrategyNaive, StrategyRoundRobin} {
			// Every attribute at w=0.05; the heading attributes alone at 0.95.
			for _, w := range []float64{0.05, 0.95} {
				opts := Options{Degree: MinPathWeight(w), Strategy: strat}
				ans, err := eng.Query([]string{"Woody Allen"}, opts)
				if err != nil {
					t.Fatal(err)
				}
				if name == "cached" {
					hits := eng.CacheStats().Hits
					if ans, err = eng.Query([]string{"Woody Allen"}, opts); err != nil || eng.CacheStats().Hits != hits+1 {
						t.Fatalf("second query: %v, %d cache hits", err, eng.CacheStats().Hits-hits)
					}
				}
				runs, gapped := 0, 0
				bases := baseDatabases(eng)
				for _, relName := range ans.Database.RelationNames() {
					rel := ans.Database.Relation(relName)
					var pos []int // the base column behind each column of rel
					run := true
					rel.ScanRows(func(id storage.TupleID, got storage.Row) bool {
						var src storage.Row
						var base *storage.Schema
						for _, db := range bases {
							if row, ok := db.Relation(relName).Row(id); ok {
								src, base = row, db.Relation(relName).Schema()
							}
						}
						if base == nil {
							t.Fatalf("%s: %s tuple %d is in no base database", name, relName, id)
						}
						if pos == nil {
							for i, c := range rel.Schema().ColumnNames() {
								pos = append(pos, base.ColumnIndex(c))
								run = run && pos[i] == pos[0]+i
							}
						}
						for i := range pos {
							if got.Value(i) != src.Value(pos[i]) {
								t.Fatalf("%s: %s tuple %d reads %v, stored %v", name, relName, id, got.Values(), src.Values())
							}
						}
						if !got.Shares(src) {
							t.Fatalf("%s, %v, w=%v: %s (columns %v of %v) copied tuple %d", name, strat, w, relName, rel.Schema().ColumnNames(), base.ColumnNames(), id)
						}
						return true
					})
					if run {
						runs++
					} else {
						gapped++
					}
				}
				if runs == 0 || (gapped > 0) != (w == 0.95) {
					t.Errorf("%s, %v, w=%v: %d relations keep a run of their base's columns, %d a gapped selection", name, strat, w, runs, gapped)
				}
			}
		}
	}
}

// TestAnswerOutlivesItsTuples: an answer holds base records, and the base
// never writes a record — Update stores a new one, Delete lets go of the old —
// so an answer taken before either still reads what it read then, and is the
// only thing keeping those records: drop it and they are collected.
func TestAnswerOutlivesItsTuples(t *testing.T) {
	for name, eng := range map[string]*Engine{"single": newEngine(t), "sharded": newShardedEngine(t, 4, "hash")} {
		updated, err := eng.Insert("DIRECTOR", director(902, "Agnes Varda")...)
		if err != nil {
			t.Fatal(err)
		}
		deleted, err := eng.Insert("DIRECTOR", director(903, "Agnes Martin")...)
		if err != nil {
			t.Fatal(err)
		}
		collected := make(chan storage.TupleID, 2)
		before := func() string {
			ans, err := eng.Query([]string{"Agnes"}, Options{Degree: MinPathWeight(0.05)})
			if err != nil {
				t.Fatal(err)
			}
			rel := ans.Database.Relation("DIRECTOR")
			want := dumpDatabase(ans.Database)
			if err := eng.Update("DIRECTOR", updated, director(902, "A. Varda")); err != nil {
				t.Fatal(err)
			}
			if ok, err := eng.Delete("DIRECTOR", deleted); !ok || err != nil {
				t.Fatal(ok, err)
			}
			if got := dumpDatabase(ans.Database); got != want || rel.Len() != 2 {
				t.Fatalf("%s: the answer changed under an Update and a Delete:\n%s\n%s", name, want, got)
			}
			for _, id := range []storage.TupleID{updated, deleted} {
				row, _ := rel.Row(id)
				// The record: the first field of a Row, and the start of its allocation.
				rec := (*uint64)(reflect.ValueOf(row).Field(0).UnsafePointer())
				runtime.SetFinalizer(rec, func(*uint64) { collected <- id })
			}
			return ans.Narrative
		}()
		if !strings.Contains(before, "Agnes Varda") || !strings.Contains(before, "Agnes Martin") {
			t.Fatalf("%s: narrative %q", name, before)
		}
		after, err := eng.Query([]string{"Varda"}, Options{Degree: MinPathWeight(0.05)})
		if err != nil || !strings.Contains(after.Narrative, "A. Varda") || strings.Contains(after.Narrative, "Agnes") {
			t.Fatalf("%s: after the update: %v, %v", name, after, err)
		}
		for range 2 {
			runtime.GC()
			select {
			case <-collected:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: a replaced or deleted row is still reachable once the answer that held it is gone", name)
			}
		}
	}
}
