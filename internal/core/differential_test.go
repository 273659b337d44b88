package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"precis/internal/dataset"
	"precis/internal/invidx"
	"precis/internal/schemagraph"
	"precis/internal/shard"
	"precis/internal/sqlx"
	"precis/internal/storage"
)

// diffDataset is one bundled dataset, the terms to query it with, and the
// fetchers to run the generator through: the single engine and scatter/gather
// over 1, 3 and 4 hash shards.
type diffDataset struct {
	name     string
	db       *storage.Database
	g        *schemagraph.Graph
	terms    []string
	fetchers []diffFetcher
}

// diffFetcher makes a fresh fetcher per generation (fetchers accumulate
// stats, and a shard.Fetcher serves one query). shortWorkers is the one pool
// size a -short run keeps for it.
type diffFetcher struct {
	name         string
	make         func() Fetcher
	shortWorkers int
}

func diffFetchers(t *testing.T, db *storage.Database) []diffFetcher {
	t.Helper()
	fetchers := []diffFetcher{{"engine", func() Fetcher { return sqlx.NewEngine(db) }, 2}}
	for i, n := range []int{1, 3, 4} {
		part, err := shard.NewHashPartitioner(n)
		if err != nil {
			t.Fatal(err)
		}
		dbs, err := shard.Partition(db, part)
		if err != nil {
			t.Fatal(err)
		}
		fetchers = append(fetchers, diffFetcher{
			fmt.Sprintf("shards=%d", n),
			func() Fetcher { return shard.NewFetcher(part, dbs, nil) },
			[]int{1, 8, 2}[i],
		})
	}
	return fetchers
}

// busiestDirector returns the dname of the director with the most films.
func busiestDirector(db *storage.Database) string {
	movies, directors := db.Relation("MOVIE"), db.Relation("DIRECTOR")
	mdid := movies.Schema().ColumnIndex("did")
	films := map[storage.Value]int{}
	movies.Scan(func(t storage.Tuple) bool {
		films[t.Values[mdid]]++
		return true
	})
	did, dname := directors.Schema().ColumnIndex("did"), directors.Schema().ColumnIndex("dname")
	best, bestN := "", -1
	directors.Scan(func(t storage.Tuple) bool {
		if n := films[t.Values[did]]; n > bestN {
			best, bestN = t.Values[dname].AsString(), n
		}
		return true
	})
	return best
}

// syntheticMovies is the synthetic movie database at the given size.
func syntheticMovies(t testing.TB, films int) (*storage.Database, *schemagraph.Graph) {
	t.Helper()
	cfg := dataset.DefaultSyntheticConfig()
	cfg.Films = films
	db, err := dataset.SyntheticMovies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dataset.PaperGraph(db)
	if err != nil {
		t.Fatal(err)
	}
	return db, g
}

func diffDatasets(t *testing.T) []diffDataset {
	t.Helper()
	exDB, exG, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	synDB, synG := syntheticMovies(t, 300)
	chainCfg := dataset.DefaultChainConfig()
	chainCfg.RowsPerRel = 200
	chainDB, chainG, err := dataset.Chain(chainCfg)
	if err != nil {
		t.Fatal(err)
	}
	starDB, starG, err := dataset.Star(dataset.StarConfig{Satellites: 4, RowsPerRel: 100, Fanout: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sets := []diffDataset{
		{name: "example-movies", db: exDB, g: exG, terms: []string{"Woody Allen", "Comedy"}},
		{name: "synthetic-movies", db: synDB, g: synG, terms: []string{busiestDirector(synDB), "Drama"}},
		{name: "chain", db: chainDB, g: chainG, terms: []string{"tokR0"}},
		{name: "star", db: starDB, g: starG, terms: []string{"tokHUB"}},
	}
	for i := range sets {
		sets[i].fetchers = diffFetchers(t, sets[i].db)
	}
	return sets
}

// diffWeights gives every tuple of db a deterministic pseudo-random weight
// in 0..6, so weight ties (broken on id) and strict orders both occur.
func diffWeights(db *storage.Database) TupleWeights {
	w := TupleWeights{}
	for _, rel := range db.RelationNames() {
		db.Relation(rel).Scan(func(t storage.Tuple) bool {
			w.Set(rel, t.ID, float64(uint64(t.ID)*2654435761%7))
			return true
		})
	}
	return w
}

// diffQuery resolves term to seeds and the result schema at path weight w.
func diffQuery(t testing.TB, g *schemagraph.Graph, ix *invidx.Index, term string, w float64) (*ResultSchema, map[string][]storage.TupleID) {
	t.Helper()
	seeds := map[string][]storage.TupleID{}
	var seedRels []string
	for _, o := range ix.Lookup(term) {
		seeds[o.Relation] = append(seeds[o.Relation], o.TupleIDs...)
		seedRels = append(seedRels, o.Relation)
	}
	if len(seedRels) == 0 {
		t.Fatalf("term %q matches nothing", term)
	}
	sort.Strings(seedRels)
	rs, err := GenerateSchema(g, seedRels, MinPathWeight(w))
	if err != nil {
		t.Fatal(err)
	}
	return rs, seeds
}

// sameAsReferenceGenerator runs the production generator and the reference
// generator of reference_test.go on one input and requires the same tuples
// in the same insertion order per relation, the same physical work, the same
// truncation — and never more statements.
func sameAsReferenceGenerator(t *testing.T, mk func() Fetcher, rs *ResultSchema, seeds map[string][]storage.TupleID, c CardinalityConstraint, strat Strategy, opts DBGenOptions) {
	t.Helper()
	want, wantErr := refGenerateDatabaseOpts(mk(), rs, seeds, c, strat, opts)
	got, gotErr := GenerateDatabaseOpts(mk(), rs, seeds, c, strat, opts)
	if wantErr != nil || gotErr != nil {
		t.Fatalf("error %v, reference error %v", gotErr, wantErr)
	}
	if got.Truncation != want.Truncation {
		t.Fatalf("truncation %q, reference %q", got.Truncation, want.Truncation)
	}
	if !reflect.DeepEqual(got.DB.RelationNames(), want.DB.RelationNames()) {
		t.Fatalf("relations %v, reference %v", got.DB.RelationNames(), want.DB.RelationNames())
	}
	for _, rel := range want.DB.RelationNames() {
		g, w := got.DB.Relation(rel).Tuples(), want.DB.Relation(rel).Tuples()
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: tuples (in insertion order) differ from the reference\n got  %v\n want %v", rel, g, w)
		}
	}
	if !reflect.DeepEqual(got.DB.ForeignKeys(), want.DB.ForeignKeys()) {
		t.Fatalf("foreign keys %v, reference %v", got.DB.ForeignKeys(), want.DB.ForeignKeys())
	}
	if got.Stats.SQL != want.Stats.SQL {
		t.Fatalf("physical work %+v, reference %+v", got.Stats.SQL, want.Stats.SQL)
	}
	if got.Stats.JoinsExecuted != want.Stats.JoinsExecuted || got.Stats.TotalTuples != want.Stats.TotalTuples ||
		!reflect.DeepEqual(got.Stats.TuplesPerRelation, want.Stats.TuplesPerRelation) {
		t.Fatalf("stats %+v, reference %+v", got.Stats, want.Stats)
	}
	if got.Stats.Queries > want.Stats.Queries {
		t.Fatalf("%d statements, the statement-per-tuple reference needs only %d", got.Stats.Queries, want.Stats.Queries)
	}
}

// TestGeneratorMatchesReference is the result-database generator's
// differential oracle: over the bundled datasets, every strategy, tight to
// unlimited cardinality, shallow and deep result schemas, tuple weights on
// and off, every pool size, budget-truncated partials, and the single engine
// as well as 1, 3 and 4 shards, the set-at-a-time fetches must build exactly
// what the statement-per-value / statement-per-tuple reference builds.
//
// -short (the whole-repository -race pass of scripts/ci.sh) keeps one pool
// size per fetcher — the id-set predicate is still read from fetch workers
// and from four shard goroutines at once in the combinations kept; ci.sh
// also runs the full matrix under -race as its own step.
func TestGeneratorMatchesReference(t *testing.T) {
	strategies := []Strategy{StrategyNaive, StrategyRoundRobin, StrategyAuto}
	cards := []struct {
		name string
		c    CardinalityConstraint
	}{
		{"1", MaxTuplesPerRelation(1)},
		{"10", MaxTuplesPerRelation(10)},
		{"150", MaxTuplesPerRelation(150)},
		{"unlimited", Unlimited()},
	}
	budgets := []Budget{{MaxTuples: 7}, {MaxTuples: 40}, {MaxJoinSteps: 1}, {MaxJoinSteps: 3}, {MaxResultBytes: 600}, {MaxResultBytes: 4000}}
	poolSizes := []int{1, 2, 8}

	for _, ds := range diffDatasets(t) {
		ix := invidx.New(ds.db)
		weights := diffWeights(ds.db)
		for _, term := range ds.terms {
			for _, w := range []float64{0.8, 0.05} {
				rs, seeds := diffQuery(t, ds.g, ix, term, w)
				for _, fetcher := range ds.fetchers {
					for _, workers := range poolSizes {
						if testing.Short() && workers != fetcher.shortWorkers {
							continue
						}
						for _, weighted := range []bool{false, true} {
							opts := DBGenOptions{Workers: workers}
							if weighted {
								opts.Weights = weights
							}
							for _, strat := range strategies {
								for _, card := range cards {
									name := fmt.Sprintf("%s/%s/w=%v/%s/workers=%d/weights=%v/%s/card=%s",
										ds.name, term, w, fetcher.name, workers, weighted, strat, card.name)
									t.Run(name, func(t *testing.T) {
										sameAsReferenceGenerator(t, fetcher.make, rs, seeds, card.c, strat, opts)
									})
								}
								if w != 0.05 {
									continue
								}
								for _, b := range budgets {
									opts := opts
									opts.Budget = b
									name := fmt.Sprintf("%s/%s/%s/workers=%d/weights=%v/%s/budget=%+v",
										ds.name, term, fetcher.name, workers, weighted, strat, b)
									t.Run(name, func(t *testing.T) {
										sameAsReferenceGenerator(t, fetcher.make, rs, seeds, Unlimited(), strat, opts)
									})
								}
							}
						}
					}
				}
			}
		}
	}
}
