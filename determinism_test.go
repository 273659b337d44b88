package precis

// Determinism suite: a query must produce a valid answer, byte-identical
// from run to run, for every dataset and retrieval strategy. These tests pin
// that across every dataset shape the repo ships: the paper's example
// database, the synthetic IMDB-like database, and the chain and star
// topologies of §6.

import (
	"fmt"
	"strings"
	"testing"

	"precis/internal/dataset"
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

// TestDeterminism sweeps every dataset × strategy, checks each answer
// (checkAnswer), and requires a second run to match the first exactly: same
// result database (content and insertion order), same narrative, same tuple
// counts.
func TestDeterminism(t *testing.T) {
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
					}
					ref, err := eng.Query(terms, opts)
					if err != nil {
						t.Fatal(err)
					}
					checkAnswer(t, eng, terms[0], opts, ref)
					refDump := dumpDatabase(ref.Database)
					ans, err := eng.Query(terms, opts)
					if err != nil {
						t.Fatal(err)
					}
					if got := dumpDatabase(ans.Database); got != refDump {
						t.Fatalf("result database differs from the first run\n--- first ---\n%s\n--- second ---\n%s", refDump, got)
					}
					if ans.Narrative != ref.Narrative {
						t.Fatalf("narrative differs\nfirst:  %q\nsecond: %q", ref.Narrative, ans.Narrative)
					}
					if ans.Stats.TotalTuples != ref.Stats.TotalTuples {
						t.Fatalf("%d tuples vs first run %d", ans.Stats.TotalTuples, ref.Stats.TotalTuples)
					}
				})
			}
		})
	}
}

// TestDeterminismTupleWeights repeats the sweep with the §7 tuple-weight
// extension active, exercising the weighted NaïveQ and round-robin orderings.
func TestDeterminismTupleWeights(t *testing.T) {
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
		}
		ref, err := eng.Query([]string{"Woody Allen"}, opts)
		if err != nil {
			t.Fatal(err)
		}
		refDump := dumpDatabase(ref.Database)
		ans, err := eng.Query([]string{"Woody Allen"}, opts)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if got := dumpDatabase(ans.Database); got != refDump {
			t.Fatalf("%v: weighted result differs\n--- first ---\n%s\n--- second ---\n%s", strat, refDump, got)
		}
		if ans.Narrative != ref.Narrative {
			t.Fatalf("%v: narrative differs", strat)
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
