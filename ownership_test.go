package precis

// Row ownership (DESIGN.md §7): storage keeps the slice a mutation hands it
// as the tuple's row and never writes it again; Engine.Insert and
// Engine.Update copy theirs, so a caller's slice stays the caller's. These
// tests scribble on every slice a caller still holds and on nothing else,
// and check that no stored tuple, dirty capture, rollback copy or persisted
// byte sees it. scripts/ci.sh runs them under -race with the rollback suites.

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
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
			for _, tu := range r.Upserts {
				if r.Name == "DIRECTOR" && tu.ID == id {
					got = tu.Values
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

// TestRollbackKeepsRowsApart: a failed WAL append reverts the mutation by
// handing the old row back to storage. The tuple a reader held from before,
// the resurrected tuple, and every later version of it stay independent, in
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

	// The resurrected tuple moves on; the tuple held since before the
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

// TestResultRowsCannotReachTheirNeighbours: the rows of one sqlx result are
// stored rows, or runs of them, or carved out of shared arrays — one when the
// plan knows the count, several when it does not — and each has its length
// for capacity, so appending to a row a caller holds (or to a tuple of the
// result database that adopted it) copies it instead of writing the next row
// or the rest of the stored one.
func TestResultRowsCannotReachTheirNeighbours(t *testing.T) {
	cfg := dataset.DefaultSyntheticConfig()
	cfg.Films = 300
	db, err := dataset.SyntheticMovies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sql := sqlx.NewEngine(db)
	movies := db.Relation("MOVIE").Tuples()
	stored := dumpDatabase(db)
	for _, q := range []string{
		fmt.Sprintf("SELECT * FROM MOVIE WHERE rowid IN (%d, %d, %d)", movies[0].ID, movies[1].ID, movies[2].ID), // rowid fetch: the count is known                // rowid fetch: the count is known
		"SELECT title, year FROM MOVIE WHERE did = 3 LIMIT 2",                                                    // hash probe under a LIMIT
		"SELECT rowid, title FROM MOVIE",                                                                         // scan: arrays of 16, 32, ... rows
		"SELECT title FROM MOVIE WHERE year > 1900 ORDER BY year, title",                                         // sort keys carved the same way
		"SELECT mid, title FROM MOVIE WHERE did = 3",                                                             // the head of each stored row
	} {
		res, err := sql.Exec(q)
		if err != nil || len(res.Rows) < 2 {
			t.Fatalf("%s: %d rows, %v", q, len(res.Rows), err)
		}
		want := make([][]storage.Value, len(res.Rows))
		for i, row := range res.Rows {
			if cap(row) != len(row) {
				t.Fatalf("%s: row %d has length %d and capacity %d", q, i, len(row), cap(row))
			}
			want[i] = slices.Clone(row)
		}
		for i := range res.Rows {
			_ = append(res.Rows[i], storage.String("SCRIBBLED"))
		}
		if !reflect.DeepEqual(res.Rows, want) {
			t.Fatalf("%s: appending to one row wrote another", q)
		}
	}
	if dumpDatabase(db) != stored {
		t.Fatal("appending to a result row wrote a stored one")
	}

	eng := newEngine(t)
	ans, err := eng.Query([]string{"Woody Allen"}, Options{SkipNarrative: true})
	if err != nil {
		t.Fatal(err)
	}
	before := dumpDatabase(ans.Database)
	for _, name := range ans.Database.RelationNames() {
		ans.Database.Relation(name).Scan(func(tu storage.Tuple) bool {
			_ = append(tu.Values, storage.String("SCRIBBLED"))
			return true
		})
	}
	if dumpDatabase(ans.Database) != before {
		t.Fatal("appending to a tuple of the result database wrote its neighbour")
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

// TestAnswerRowsBorrowBaseRows: a result relation whose columns are a run of
// its base relation's, in schema order, holds the base rows themselves — the
// same memory, never beyond the run — and any other projection holds copies.
// On one engine, across shards, on a recovered persistent engine, and on the
// answer the cache hands out again.
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
				borrowed, copied := 0, 0
				bases := baseDatabases(eng)
				for _, relName := range ans.Database.RelationNames() {
					rel := ans.Database.Relation(relName)
					var base *storage.Schema
					var pos []int // the base column behind each column of rel
					run := true
					rel.Scan(func(got storage.Tuple) bool {
						var src storage.Tuple
						for _, db := range bases {
							if tu, ok := db.Relation(relName).Get(got.ID); ok {
								src, base = tu, db.Relation(relName).Schema()
							}
						}
						if base == nil {
							t.Fatalf("%s: %s tuple %d is in no base database", name, relName, got.ID)
						}
						if pos == nil {
							for i, c := range rel.Schema().ColumnNames() {
								pos = append(pos, base.ColumnIndex(c))
								run = run && pos[i] == pos[0]+i
							}
						}
						for i, v := range got.Values {
							if v != src.Values[pos[i]] {
								t.Fatalf("%s: %s tuple %d reads %v, stored %v", name, relName, got.ID, got.Values, src.Values)
							}
						}
						if aliases := &got.Values[0] == &src.Values[pos[0]]; aliases != run {
							t.Fatalf("%s, %v, w=%v: %s (columns %v of %v) shares its rows with the base: %v",
								name, strat, w, relName, rel.Schema().ColumnNames(), base.ColumnNames(), aliases)
						}
						if cap(got.Values) != len(got.Values) {
							t.Fatalf("%s: %s tuple %d has %d values and room for %d", name, relName, got.ID, len(got.Values), cap(got.Values))
						}
						return true
					})
					if run {
						borrowed++
					} else {
						copied++
					}
				}
				if borrowed == 0 || (copied > 0) != (w == 0.95) {
					t.Errorf("%s, %v, w=%v: %d relations borrow their rows, %d copy them", name, strat, w, borrowed, copied)
				}
			}
		}
	}
}

// TestAnswerOutlivesItsTuples: an answer holds base rows, and the base never
// writes a row — Update stores a new one, Delete lets go of the old — so an
// answer taken before either still reads what it read then, and is the only
// thing keeping those rows: drop it and they are collected.
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
				tu, _ := rel.Get(id)
				runtime.SetFinalizer(&tu.Values[0], func(*storage.Value) { collected <- id })
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
