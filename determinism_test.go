package precis

// Determinism suite: the parallel query path must produce byte-identical
// answers to the serial path for every worker-pool size, dataset, and
// retrieval strategy. The generator guarantees this by construction
// (parallel fetches replay the serial pick order; inserts apply serially),
// and these tests pin the guarantee across every dataset shape the repo
// ships: the paper's example database, the synthetic IMDB-like database,
// and the chain and star topologies of §6.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"precis/internal/dataset"
	"precis/internal/faultinject"
	"precis/internal/schemagraph"
	"precis/internal/storage"
)

// dumpDatabase renders a result database canonically: relations sorted by
// name, each with its column list and every tuple (id first) in scan order.
// Two identical précis answers produce identical dumps, and any difference
// in tuple content, identity, or insertion order shows up as a diff.
func dumpDatabase(db storage.Reader) string {
	var sb strings.Builder
	for _, name := range db.RelationNames() {
		rel := db.Table(name)
		fmt.Fprintf(&sb, "== %s (%s)\n", name, strings.Join(rel.Schema().ColumnNames(), ","))
		rel.ScanRows(func(id storage.TupleID, row storage.Row) bool {
			fmt.Fprintf(&sb, "%d:", id)
			for _, v := range row.Values() {
				sb.WriteByte(' ')
				sb.WriteString(v.String())
			}
			sb.WriteByte('\n')
			return true
		})
	}
	return sb.String()
}

// determinismWorkload is one dataset + query the suite sweeps.
type determinismWorkload struct {
	name      string
	terms     []string
	narrative bool // compare narratives too (needs an annotated graph)
	build     func() (*storage.Database, *schemagraph.Graph, error)
}

func determinismWorkloads(t *testing.T) []determinismWorkload {
	t.Helper()
	return []determinismWorkload{
		{
			name:      "example-movies",
			terms:     []string{"Woody Allen"},
			narrative: true,
			build: func() (*storage.Database, *schemagraph.Graph, error) {
				db, g, err := dataset.ExampleMovies()
				if err != nil {
					return nil, nil, err
				}
				return db, g, dataset.AnnotateNarrative(g)
			},
		},
		{
			name:      "synthetic-movies",
			narrative: true,
			build: func() (*storage.Database, *schemagraph.Graph, error) {
				cfg := dataset.DefaultSyntheticConfig()
				cfg.Films = 300
				db, err := dataset.SyntheticMovies(cfg)
				if err != nil {
					return nil, nil, err
				}
				g, err := dataset.PaperGraph(db)
				if err != nil {
					return nil, nil, err
				}
				return db, g, dataset.AnnotateNarrative(g)
			},
		},
		{
			name:  "chain",
			terms: []string{"tokR0"},
			build: func() (*storage.Database, *schemagraph.Graph, error) {
				cfg := dataset.DefaultChainConfig()
				cfg.RowsPerRel = 200
				return dataset.Chain(cfg)
			},
		},
		{
			name:  "star",
			terms: []string{"tokHUB"},
			build: func() (*storage.Database, *schemagraph.Graph, error) {
				return dataset.Star(dataset.StarConfig{Satellites: 4, RowsPerRel: 100, Fanout: 3, Seed: 7})
			},
		},
	}
}

// mostProlificDirector returns the dname whose director directs the most
// films — the heaviest précis the synthetic database can produce.
func mostProlificDirector(db *storage.Database) string {
	movies := db.Relation("MOVIE")
	di := movies.Schema().ColumnIndex("did")
	counts := make(map[string]int)
	movies.Scan(func(t storage.Tuple) bool {
		counts[t.Values[di].String()]++
		return true
	})
	directors := db.Relation("DIRECTOR")
	did := directors.Schema().ColumnIndex("did")
	dn := directors.Schema().ColumnIndex("dname")
	best, bestN := "", -1
	directors.Scan(func(t storage.Tuple) bool {
		if n := counts[t.Values[did].String()]; n > bestN {
			bestN, best = n, t.Values[dn].AsString()
		}
		return true
	})
	return best
}

// TestParallelDeterminism sweeps every dataset × strategy × worker count
// and requires the parallel answers to match the serial answer exactly:
// same result database (content and insertion order), same narrative, same
// tuple counts.
func TestParallelDeterminism(t *testing.T) {
	for _, w := range determinismWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			db, g, err := w.build()
			if err != nil {
				t.Fatal(err)
			}
			eng, err := New(db, g)
			if err != nil {
				t.Fatal(err)
			}
			if w.narrative {
				for _, def := range dataset.StandardMacros() {
					if err := eng.DefineMacro(def); err != nil {
						t.Fatal(err)
					}
				}
			}
			terms := w.terms
			if terms == nil {
				terms = []string{mostProlificDirector(db)}
			}
			for _, strat := range []Strategy{StrategyNaive, StrategyRoundRobin} {
				t.Run(strat.String(), func(t *testing.T) {
					opts := Options{
						Degree:        MinPathWeight(0.1),
						Cardinality:   MaxTuplesPerRelation(20),
						Strategy:      strat,
						SkipNarrative: !w.narrative,
						Parallelism:   -1, // serial reference
					}
					ref, err := eng.Query(terms, opts)
					if err != nil {
						t.Fatal(err)
					}
					checkAnswer(t, eng, terms[0], opts, ref)
					refDump := dumpDatabase(ref.Database)
					for _, workers := range []int{2, 4, 8} {
						opts.Parallelism = workers
						ans, err := eng.Query(terms, opts)
						if err != nil {
							t.Fatalf("workers=%d: %v", workers, err)
						}
						checkAnswer(t, eng, terms[0], opts, ans)
						if got := dumpDatabase(ans.Database); got != refDump {
							t.Fatalf("workers=%d: result database differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s",
								workers, refDump, got)
						}
						if ans.Narrative != ref.Narrative {
							t.Fatalf("workers=%d: narrative differs\nserial:   %q\nparallel: %q",
								workers, ref.Narrative, ans.Narrative)
						}
						if ans.Stats.TotalTuples != ref.Stats.TotalTuples {
							t.Fatalf("workers=%d: %d tuples vs serial %d",
								workers, ans.Stats.TotalTuples, ref.Stats.TotalTuples)
						}
					}
				})
			}
		})
	}
}

// TestParallelFetchesShareDrivingRelation: the four joins leaving the hub of
// the star schema form one batch, so with a pool their fetches run at once,
// every one of them driven by values read off the same D′ relation's join
// index — built, and read, on the coordination goroutine before the batch —
// and reading D′'s id sets as it runs. A delay at the head of each join holds
// the workers back until all have started, so the reads overlap; under -race
// anything built or cached in D′ on a read fails here. The answers equal the
// serial one.
func TestParallelFetchesShareDrivingRelation(t *testing.T) {
	db, g, err := dataset.Star(dataset.StarConfig{Satellites: 4, RowsPerRel: 100, Fanout: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(db, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{StrategyNaive, StrategyRoundRobin} {
		opts := Options{Degree: MinPathWeight(0.1), Cardinality: MaxTuplesPerRelation(20), Strategy: strat, SkipNarrative: true, Parallelism: -1}
		ref, err := eng.Query([]string{"tokHUB"}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Stats.JoinsExecuted < 4 {
			t.Fatalf("%v: %d joins: the hub's four edges did not all run", strat, ref.Stats.JoinsExecuted)
		}
		plan := faultinject.NewPlan().Set(faultinject.SiteJoin, faultinject.Rule{Delay: 2 * time.Millisecond})
		stop := faultinject.Activate(plan)
		opts.Parallelism = 4
		for i := 0; i < 5; i++ {
			ans, err := eng.Query([]string{"tokHUB"}, opts)
			if err != nil || dumpDatabase(ans.Database) != dumpDatabase(ref.Database) {
				stop()
				t.Fatalf("%v, run %d: pooled answer differs from the serial one: %v", strat, i, err)
			}
		}
		stop()
		if plan.Fired(faultinject.SiteJoin) < 20 {
			t.Fatalf("%v: the delay fired %d times over five answers of four joins", strat, plan.Fired(faultinject.SiteJoin))
		}
	}
}

// TestParallelDeterminismTupleWeights repeats the sweep with the §7
// tuple-weight extension active, exercising the weighted NaïveQ and
// round-robin orderings under the parallel scheduler.
func TestParallelDeterminismTupleWeights(t *testing.T) {
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.AnnotateNarrative(g); err != nil {
		t.Fatal(err)
	}
	eng, err := New(db, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range dataset.StandardMacros() {
		if err := eng.DefineMacro(def); err != nil {
			t.Fatal(err)
		}
	}
	// Invert the natural order: high ids get high weight.
	weights := TupleWeights{}
	for _, rel := range db.RelationNames() {
		m := make(map[storage.TupleID]float64)
		db.Relation(rel).Scan(func(tu storage.Tuple) bool {
			m[tu.ID] = float64(tu.ID)
			return true
		})
		weights[rel] = m
	}
	for _, strat := range []Strategy{StrategyNaive, StrategyRoundRobin} {
		opts := Options{
			Degree:       MinPathWeight(0.1),
			Cardinality:  MaxTuplesPerRelation(2),
			Strategy:     strat,
			TupleWeights: weights,
			Parallelism:  -1,
		}
		ref, err := eng.Query([]string{"Woody Allen"}, opts)
		if err != nil {
			t.Fatal(err)
		}
		refDump := dumpDatabase(ref.Database)
		for _, workers := range []int{2, 8} {
			opts.Parallelism = workers
			ans, err := eng.Query([]string{"Woody Allen"}, opts)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", strat, workers, err)
			}
			if got := dumpDatabase(ans.Database); got != refDump {
				t.Fatalf("%v workers=%d: weighted result differs\n--- serial ---\n%s\n--- parallel ---\n%s",
					strat, workers, refDump, got)
			}
			if ans.Narrative != ref.Narrative {
				t.Fatalf("%v workers=%d: narrative differs", strat, workers)
			}
		}
	}
}

// scanTuples is Relation.Scan on any relation, a result relation included.
func scanTuples(rel storage.Table, fn func(storage.Tuple) bool) {
	rel.ScanRows(func(id storage.TupleID, row storage.Row) bool {
		return fn(storage.Tuple{ID: id, Values: row.Values()})
	})
}

// tuplesOf is Relation.Tuples on any relation.
func tuplesOf(rel storage.Table) []storage.Tuple {
	var out []storage.Tuple
	scanTuples(rel, func(tu storage.Tuple) bool {
		out = append(out, tu)
		return true
	})
	return out
}

// getTuple is Relation.Get on a result relation.
func getTuple(rel *storage.ResultRelation, id storage.TupleID) (storage.Tuple, bool) {
	row, ok := rel.Row(id)
	if !ok {
		return storage.Tuple{}, false
	}
	return storage.Tuple{ID: id, Values: row.Values()}, true
}
