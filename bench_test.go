package precis_test

// Benchmarks regenerating each figure of the paper's evaluation (§6), plus
// ablation benches for the design choices DESIGN.md calls out. Each bench
// wraps the same workloads cmd/precis-bench runs as wall-clock experiments:
//
//	go test -bench=Figure7 .     — Figure 7 (schema generation vs degree d)
//	go test -bench=Figure8 .     — Figure 8 (data generation vs c_R, NaïveQ)
//	go test -bench=Figure9 .     — Figure 9 (NaïveQ vs Round-Robin vs n_R)
//	go test -bench=Baselines .   — §2 baseline contrast
//	go test -bench=Ablation .    — pruning / join-order / postponement

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"precis"
	"precis/internal/baseline"
	"precis/internal/core"
	"precis/internal/dataset"
	"precis/internal/invidx"
	"precis/internal/obs"
	"precis/internal/schemagraph"
	"precis/internal/sqlx"
	"precis/internal/storage"
)

// f7Graphs builds the Figure 7 graph population once.
func f7Graphs(b *testing.B, weightSets int) []*schemagraph.Graph {
	b.Helper()
	graphs := make([]*schemagraph.Graph, weightSets)
	for i := range graphs {
		cfg := dataset.DefaultGraphConfig()
		cfg.Seed = int64(i + 1)
		g, err := dataset.RandomGraph(cfg)
		if err != nil {
			b.Fatal(err)
		}
		graphs[i] = g
	}
	return graphs
}

// BenchmarkFigure7ResultSchemaGenerator measures schema generation across
// the paper's degree sweep (d = max attributes projected), averaged over
// random weight-sets and seed relations. The graphs are not frozen, so every
// iteration runs the algorithm: this is the paper's curve. The frozen
// sub-benchmarks beside it measure what an engine's queries pay instead —
// the same calls on frozen copies of the graphs, every G′ found memoised.
func BenchmarkFigure7ResultSchemaGenerator(b *testing.B) {
	graphs := f7Graphs(b, 5)
	for _, d := range []int{5, 10, 20, 40, 60, 80, 100} {
		run := func(name string, graphs []*schemagraph.Graph) {
			b.Run(fmt.Sprintf("d=%d%s", d, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					g := graphs[i%len(graphs)]
					seed := g.Relations()[i%10]
					if _, err := core.GenerateSchema(g, []string{seed}, core.MaxAttributes(d)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		run("", graphs)
		frozen := make([]*schemagraph.Graph, len(graphs))
		for i, g := range graphs {
			frozen[i] = g.Clone()
			frozen[i].Freeze()
		}
		run("/frozen", frozen)
	}
}

// chainBench prepares one Figure 8/9 chain workload.
type chainBench struct {
	eng   *sqlx.Engine
	graph *schemagraph.Graph
	rs    *core.ResultSchema
	seeds map[string][]storage.TupleID
}

func newChainBench(b *testing.B, nR, rows, fanout, seedTuples int) *chainBench {
	b.Helper()
	db, g, err := dataset.Chain(dataset.ChainConfig{
		Relations: nR, RowsPerRel: rows, Fanout: fanout, Seed: 1, UniformRows: false,
	})
	if err != nil {
		b.Fatal(err)
	}
	rs, err := core.GenerateSchema(g, []string{"R0"}, core.MinPathWeight(0.0001))
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	var ids []storage.TupleID
	db.Relation("R0").Scan(func(t storage.Tuple) bool {
		ids = append(ids, t.ID)
		return true
	})
	perm := r.Perm(len(ids))
	picked := make([]storage.TupleID, 0, seedTuples)
	for _, i := range perm[:seedTuples] {
		picked = append(picked, ids[i])
	}
	sort.Slice(picked, func(i, j int) bool { return picked[i] < picked[j] })
	return &chainBench{
		eng:   sqlx.NewEngine(db),
		graph: g,
		rs:    rs,
		seeds: map[string][]storage.TupleID{"R0": picked},
	}
}

// BenchmarkFigure8ResultDatabaseGenerator measures NaïveQ data generation
// across the c_R sweep on the paper's 4-relation sets.
func BenchmarkFigure8ResultDatabaseGenerator(b *testing.B) {
	w := newChainBench(b, 4, 200, 4, 10)
	for _, cR := range []int{10, 30, 50, 70, 90} {
		b.Run(fmt.Sprintf("cR=%d", cR), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rd, err := core.GenerateDatabase(w.eng, w.rs, w.seeds,
					core.MaxTuplesPerRelation(cR), core.StrategyNaive)
				if err != nil {
					b.Fatal(err)
				}
				if rd.DB.TotalTuples() == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}

// BenchmarkFigure9NaiveVsRoundRobin measures both strategies across the n_R
// sweep at c_R = 5.
func BenchmarkFigure9NaiveVsRoundRobin(b *testing.B) {
	for _, strat := range []core.Strategy{core.StrategyNaive, core.StrategyRoundRobin} {
		for _, nR := range []int{1, 2, 4, 6, 8} {
			w := newChainBench(b, nR, 50, 2, 5)
			b.Run(fmt.Sprintf("%s/nR=%d", strat, nR), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.GenerateDatabase(w.eng, w.rs, w.seeds,
						core.MaxTuplesPerRelation(5), strat); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchMovies prepares the baseline-contrast workload.
func benchMovies(b *testing.B) (*storage.Database, *schemagraph.Graph, *invidx.Index, string, string) {
	b.Helper()
	cfg := dataset.DefaultSyntheticConfig()
	cfg.Films = 500
	db, err := dataset.SyntheticMovies(cfg)
	if err != nil {
		b.Fatal(err)
	}
	g, err := dataset.PaperGraph(db)
	if err != nil {
		b.Fatal(err)
	}
	ix := invidx.New(db)
	dname := db.Relation("DIRECTOR").Tuples()[0].Values[1].AsString()
	title := db.Relation("MOVIE").Tuples()[0].Values[1].AsString()
	return db, g, ix, dname, title
}

// BenchmarkBaselines contrasts the précis pipeline with the §2 baselines on
// the same query over a synthetic movies database.
func BenchmarkBaselines(b *testing.B) {
	db, g, ix, dname, title := benchMovies(b)
	eng := sqlx.NewEngine(db)

	b.Run("precis", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			occs := ix.Lookup(dname)
			seeds := make(map[string][]storage.TupleID)
			var seedRels []string
			for _, o := range occs {
				seeds[o.Relation] = append(seeds[o.Relation], o.TupleIDs...)
				seedRels = append(seedRels, o.Relation)
			}
			sort.Strings(seedRels)
			rs, err := core.GenerateSchema(g, seedRels, core.MinPathWeight(0.9))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.GenerateDatabase(eng, rs, seeds,
				core.MaxTuplesPerRelation(10), core.StrategyAuto); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("attrpair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := baseline.AttributePairSearch(db, ix, []string{dname}); len(got) == 0 {
				b.Fatal("no matches")
			}
		}
	})
	b.Run("tupletree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.TupleTreeSearch(db, g, ix, []string{dname, title}, 3, 20); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPruning compares schema generation with and without the
// expansion cut-off of Figure 3.
func BenchmarkAblationPruning(b *testing.B) {
	graphs := f7Graphs(b, 5)
	for _, opts := range []struct {
		name string
		o    core.SchemaGeneratorOptions
	}{
		{"pruned", core.SchemaGeneratorOptions{}},
		{"unpruned", core.SchemaGeneratorOptions{DisablePruning: true}},
	} {
		b.Run(opts.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := graphs[i%len(graphs)]
				seed := g.Relations()[i%10]
				if _, err := core.GenerateSchemaOpts(g, []string{seed},
					core.MaxAttributes(40), opts.o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationJoinOrder compares weight-ordered vs FIFO join execution.
func BenchmarkAblationJoinOrder(b *testing.B) {
	w := newChainBench(b, 4, 200, 4, 10)
	for _, opts := range []struct {
		name string
		o    core.DBGenOptions
	}{
		{"weight-ordered", core.DBGenOptions{}},
		{"fifo", core.DBGenOptions{FIFOJoins: true}},
	} {
		b.Run(opts.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.GenerateDatabaseOpts(w.eng, w.rs, w.seeds,
					core.MaxTotalTuples(100), core.StrategyNaive, opts.o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPostponement compares in-degree postponement on vs off.
func BenchmarkAblationPostponement(b *testing.B) {
	w := newChainBench(b, 4, 200, 4, 10)
	for _, opts := range []struct {
		name string
		o    core.DBGenOptions
	}{
		{"postponed", core.DBGenOptions{}},
		{"eager", core.DBGenOptions{DisablePostponement: true}},
	} {
		b.Run(opts.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.GenerateDatabaseOpts(w.eng, w.rs, w.seeds,
					core.MaxTuplesPerRelation(50), core.StrategyNaive, opts.o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEndToEndQuery measures the full public-API pipeline (index
// lookup, schema generation, data generation, narrative).
func BenchmarkEndToEndQuery(b *testing.B) {
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		b.Fatal(err)
	}
	if err := dataset.AnnotateNarrative(g); err != nil {
		b.Fatal(err)
	}
	eng, err := precis.New(db, g)
	if err != nil {
		b.Fatal(err)
	}
	for _, def := range dataset.StandardMacros() {
		if err := eng.DefineMacro(def); err != nil {
			b.Fatal(err)
		}
	}
	opts := precis.Options{Degree: precis.MinPathWeight(0.9), Cardinality: precis.MaxTuplesPerRelation(3)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query([]string{"Woody Allen"}, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpen prices the persisted inverted index: a reopen of a
// paper-scale data directory (seed 1) that loads the index file beside the
// base snapshot, against one whose index file is removed, so the reopen
// rebuilds the index from the recovered tuples. Only Open is timed.
func BenchmarkOpen(b *testing.B) {
	db, err := dataset.SyntheticMovies(dataset.PaperScaleSyntheticConfig())
	if err != nil {
		b.Fatal(err)
	}
	// open times Open alone, on b's timer.
	open := func(b *testing.B, dir string) (*precis.Engine, error) {
		g, err := dataset.PaperGraph(db)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		defer b.StopTimer()
		return precis.Open(db, g, precis.PersistConfig{Dir: dir, Fsync: precis.FsyncNever, CheckpointBytes: -1, Logger: log.New(io.Discard, "", 0)})
	}
	b.StopTimer()
	seed := b.TempDir()
	eng, err := open(b, seed)
	if err == nil {
		err = eng.Close()
	}
	if err != nil {
		b.Fatal(err)
	}
	entries, err := os.ReadDir(seed)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		withIndex bool
	}{{"pidx", true}, {"rebuild", false}} {
		b.Run(c.name, func(b *testing.B) {
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				dir := b.TempDir()
				for _, e := range entries {
					if c.withIndex || filepath.Ext(e.Name()) != ".pidx" {
						raw, err := os.ReadFile(filepath.Join(seed, e.Name()))
						if err == nil {
							err = os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644)
						}
						if err != nil {
							b.Fatal(err)
						}
					}
				}
				eng, err := open(b, dir)
				if err != nil {
					b.Fatal(err)
				}
				if got := eng.PersistStats().Recovery.IndexLoaded; got != c.withIndex {
					b.Fatalf("index loaded: %v, want %v", got, c.withIndex)
				}
				if err := eng.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInvertedIndexBuild measures index construction over the
// synthetic IMDB-like database.
func BenchmarkInvertedIndexBuild(b *testing.B) {
	cfg := dataset.DefaultSyntheticConfig()
	cfg.Films = 500
	db, err := dataset.SyntheticMovies(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := invidx.New(db)
		if ix.NumTokens() == 0 {
			b.Fatal("empty index")
		}
	}
}

// benchHeavyEngine builds the synthetic workload the cache benches share: a
// 2000-film database queried for its most prolific director with a wide
// round-robin précis (narrative skipped so the timer isolates generation).
func benchHeavyEngine(b *testing.B) (*precis.Engine, string) {
	b.Helper()
	cfg := dataset.DefaultSyntheticConfig()
	cfg.Films = 2000
	db, err := dataset.SyntheticMovies(cfg)
	if err != nil {
		b.Fatal(err)
	}
	g, err := dataset.PaperGraph(db)
	if err != nil {
		b.Fatal(err)
	}
	if err := dataset.AnnotateNarrative(g); err != nil {
		b.Fatal(err)
	}
	eng, err := precis.New(db, g)
	if err != nil {
		b.Fatal(err)
	}
	// Most prolific director = head of the zipf skew.
	movies := db.Relation("MOVIE")
	di := movies.Schema().ColumnIndex("did")
	counts := map[string]int{}
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
	return eng, best
}

func benchHeavyOptions() precis.Options {
	return precis.Options{
		Degree:        precis.MinPathWeight(0.05),
		Cardinality:   precis.MaxTuplesPerRelation(150),
		Strategy:      precis.StrategyRoundRobin,
		SkipNarrative: true,
	}
}

// BenchmarkQueryCached measures an answer-cache hit on the same workload.
func BenchmarkQueryCached(b *testing.B) {
	eng, q := benchHeavyEngine(b)
	eng.EnableCache(precis.CacheConfig{MaxEntries: 64})
	opts := benchHeavyOptions()
	if _, err := eng.QueryString(q, opts); err != nil { // warm the entry
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.QueryString(q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryCachedInstrumented is BenchmarkQueryCached on an engine
// wired to a metrics registry with tracing off — the production server's
// steady state. Compare against BenchmarkQueryCached: the acceptance bar
// for the observability subsystem is identical allocs/op and under 2%
// latency overhead on this path (two counter increments and a histogram
// observation per hit).
func BenchmarkQueryCachedInstrumented(b *testing.B) {
	eng, q := benchHeavyEngine(b)
	eng.Instrument(obs.NewRegistry())
	eng.EnableCache(precis.CacheConfig{MaxEntries: 64})
	opts := benchHeavyOptions()
	if _, err := eng.QueryString(q, opts); err != nil { // warm the entry
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.QueryString(q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryTraced measures the uncached pipeline with per-stage
// tracing on, quantifying the cost of Options.Trace against the same
// workload in BenchmarkQueryParallel (a handful of span appends against a
// multi-millisecond generation).
func BenchmarkQueryTraced(b *testing.B) {
	eng, q := benchHeavyEngine(b)
	opts := benchHeavyOptions()
	opts.Trace = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err := eng.QueryString(q, opts)
		if err != nil {
			b.Fatal(err)
		}
		if ans.Trace == nil {
			b.Fatal("no trace")
		}
	}
}
