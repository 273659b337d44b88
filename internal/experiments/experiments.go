// Package experiments implements the paper's evaluation (§6): runnable
// reproductions of Figure 7 (Result Schema Generator time vs degree d),
// Figure 8 (Result Database Generator time vs tuples-per-relation c_R),
// Figure 9 (NaïveQ vs Round-Robin vs number of relations n_R), the cost
// model validation (Formulas 1–3), the §5 running example, and the baseline
// contrast of §2. cmd/precis-bench prints each experiment's series; the
// root bench_test.go wraps the same workloads in testing.B benchmarks.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"precis/internal/baseline"
	"precis/internal/core"
	"precis/internal/costmodel"
	"precis/internal/dataset"
	"precis/internal/invidx"
	"precis/internal/nlg"
	"precis/internal/schemagraph"
	"precis/internal/sqlx"
	"precis/internal/storage"
)

// Point is one (x, duration) measurement of a series.
type Point struct {
	X    int
	Mean time.Duration // median across runs, robust to scheduler outliers
	Runs int
}

// median returns the middle duration of the sample.
func median(durs []time.Duration) time.Duration {
	if len(durs) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

// Series is a named measurement curve.
type Series struct {
	Name   string
	Points []Point
}

// String renders the series as aligned text rows.
func (s Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", s.Name)
	for _, p := range s.Points {
		fmt.Fprintf(&b, "  x=%-6d mean=%-12v runs=%d\n", p.X, p.Mean, p.Runs)
	}
	return b.String()
}

// F7Config parameterizes Figure 7. The paper uses the degree "maximum
// number of attributes projected in the answer", 20 randomly generated
// weight-sets, and tokens contained in a single relation R0, averaging 200
// runs per point.
type F7Config struct {
	Degrees    []int
	WeightSets int
	SeedRels   int // how many choices of R0 per weight-set
	Graph      dataset.GraphConfig
}

// DefaultF7Config mirrors the paper's protocol at laptop scale.
func DefaultF7Config() F7Config {
	return F7Config{
		Degrees:    []int{5, 10, 20, 40, 60, 80, 100},
		WeightSets: 20,
		SeedRels:   10,
		Graph:      dataset.DefaultGraphConfig(),
	}
}

// Figure7 measures Result Schema Generator execution time as a function of
// the degree d.
func Figure7(cfg F7Config) (Series, error) {
	out := Series{Name: "Figure 7: Result Schema Generator time vs degree d"}
	graphs := make([]*schemagraph.Graph, cfg.WeightSets)
	for ws := range graphs {
		gcfg := cfg.Graph
		gcfg.Seed = int64(ws + 1)
		g, err := dataset.RandomGraph(gcfg)
		if err != nil {
			return out, err
		}
		graphs[ws] = g
	}
	for _, d := range cfg.Degrees {
		var durs []time.Duration
		for _, g := range graphs {
			rels := g.Relations()
			n := cfg.SeedRels
			if n > len(rels) {
				n = len(rels)
			}
			for s := 0; s < n; s++ {
				seed := rels[s]
				start := time.Now()
				if _, err := core.GenerateSchema(g, []string{seed}, core.MaxAttributes(d)); err != nil {
					return out, err
				}
				durs = append(durs, time.Since(start))
			}
		}
		out.Points = append(out.Points, Point{X: d, Mean: median(durs), Runs: len(durs)})
	}
	return out, nil
}

// F8Config parameterizes Figure 8: 10 sets of 4 relations, each relation as
// the seed R0, 5 random seed-tuple sets, all joins via NaïveQ.
type F8Config struct {
	Cardinalities []int // c_R sweep
	Sets          int   // independent chain databases
	SeedSets      int   // random seed-tuple sets per R0
	SeedTuples    int   // tuples per seed set
	Chain         dataset.ChainConfig
}

// DefaultF8Config mirrors the paper: c_R in 10..90, n_R = 4. The chain uses
// a deterministic fanout of 4 so the tuples joining the seeds far exceed
// c_R across the sweep and the cardinality budget is what binds.
func DefaultF8Config() F8Config {
	return F8Config{
		Cardinalities: []int{10, 20, 30, 40, 50, 60, 70, 80, 90},
		Sets:          10,
		SeedSets:      5,
		SeedTuples:    10,
		Chain: dataset.ChainConfig{
			Relations: 4, RowsPerRel: 200, Fanout: 4, UniformRows: false,
		},
	}
}

// chainWorkload is a prepared chain database with its engine and schema.
type chainWorkload struct {
	eng   *sqlx.Engine
	graph *schemagraph.Graph
	rels  []string
	ids   map[string][]storage.TupleID // all tuple ids per relation
}

func buildChain(cfg dataset.ChainConfig) (*chainWorkload, error) {
	db, g, err := dataset.Chain(cfg)
	if err != nil {
		return nil, err
	}
	w := &chainWorkload{eng: sqlx.NewEngine(db), graph: g, rels: db.RelationNames(),
		ids: make(map[string][]storage.TupleID)}
	for _, rel := range w.rels {
		var ids []storage.TupleID
		db.Relation(rel).Scan(func(t storage.Tuple) bool {
			ids = append(ids, t.ID)
			return true
		})
		w.ids[rel] = ids
	}
	return w, nil
}

// runGeneration runs schema + database generation for one seed relation and
// seed tuples, returning the data-generation wall time and stats. The
// generation repeats three times and the minimum is reported, suppressing
// scheduler and GC noise the way benchmark harnesses do.
func (w *chainWorkload) runGeneration(seedRel string, seedIDs []storage.TupleID, cR int, strat core.Strategy) (time.Duration, core.GenStats, error) {
	rs, err := core.GenerateSchema(w.graph, []string{seedRel}, core.MinPathWeight(0.0001))
	if err != nil {
		return 0, core.GenStats{}, err
	}
	seeds := map[string][]storage.TupleID{seedRel: seedIDs}
	var best time.Duration
	var stats core.GenStats
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		rd, err := core.GenerateDatabase(w.eng, rs, seeds, core.MaxTuplesPerRelation(cR), strat)
		if err != nil {
			return 0, core.GenStats{}, err
		}
		elapsed := time.Since(start)
		if rep == 0 || elapsed < best {
			best = elapsed
			stats = rd.Stats
		}
	}
	return best, stats, nil
}

// pickSeedIDs deterministically draws n tuple ids for a seed set.
func pickSeedIDs(r *rand.Rand, ids []storage.TupleID, n int) []storage.TupleID {
	if n > len(ids) {
		n = len(ids)
	}
	out := make([]storage.TupleID, 0, n)
	perm := r.Perm(len(ids))
	for _, i := range perm[:n] {
		out = append(out, ids[i])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Figure8 measures Result Database Generator (NaïveQ) time vs c_R.
func Figure8(cfg F8Config) (Series, error) {
	out := Series{Name: "Figure 8: Result Database Generator (NaïveQ) time vs tuples per relation c_R (n_R = 4)"}
	workloads := make([]*chainWorkload, cfg.Sets)
	for i := range workloads {
		ch := cfg.Chain
		ch.Seed = int64(i + 1)
		w, err := buildChain(ch)
		if err != nil {
			return out, err
		}
		workloads[i] = w
	}
	// Warm every workload once so the sweep's first point does not absorb
	// cold-cache costs.
	for wi, w := range workloads {
		r := rand.New(rand.NewSource(int64(wi)))
		for _, seedRel := range w.rels {
			seedIDs := pickSeedIDs(r, w.ids[seedRel], cfg.SeedTuples)
			if _, _, err := w.runGeneration(seedRel, seedIDs, cfg.Cardinalities[0], core.StrategyNaive); err != nil {
				return out, err
			}
		}
	}
	for _, cR := range cfg.Cardinalities {
		var durs []time.Duration
		for wi, w := range workloads {
			r := rand.New(rand.NewSource(int64(1000*wi + cR)))
			for _, seedRel := range w.rels {
				for s := 0; s < cfg.SeedSets; s++ {
					seedIDs := pickSeedIDs(r, w.ids[seedRel], cfg.SeedTuples)
					d, _, err := w.runGeneration(seedRel, seedIDs, cR, core.StrategyNaive)
					if err != nil {
						return out, err
					}
					durs = append(durs, d)
				}
			}
		}
		out.Points = append(out.Points, Point{X: cR, Mean: median(durs), Runs: len(durs)})
	}
	return out, nil
}

// F9Config parameterizes Figure 9: n_R sweeps 1..8 at c_R = 5, NaïveQ vs
// Round-Robin (Round-Robin forced on every join, as the paper does to make
// the curves comparable).
type F9Config struct {
	Relations  []int
	CR         int
	Sets       int
	SeedSets   int
	SeedTuples int
	RowsPerRel int
	Fanout     int
}

// DefaultF9Config mirrors the paper.
func DefaultF9Config() F9Config {
	return F9Config{
		Relations:  []int{1, 2, 3, 4, 5, 6, 7, 8},
		CR:         5,
		Sets:       5,
		SeedSets:   5,
		SeedTuples: 5,
		RowsPerRel: 50,
		Fanout:     2,
	}
}

// Figure9 measures NaïveQ vs Round-Robin time vs n_R. It returns the two
// series in order (NaïveQ, Round-Robin).
func Figure9(cfg F9Config) (Series, Series, error) {
	naive := Series{Name: fmt.Sprintf("Figure 9: Result Database NaïveQ time vs n_R (c_R = %d)", cfg.CR)}
	rrobin := Series{Name: fmt.Sprintf("Figure 9: Result Database Round-Robin time vs n_R (c_R = %d)", cfg.CR)}
	for _, nR := range cfg.Relations {
		var dn, dr []time.Duration
		for set := 0; set < cfg.Sets; set++ {
			w, err := buildChain(dataset.ChainConfig{
				Relations: nR, RowsPerRel: cfg.RowsPerRel, Fanout: cfg.Fanout,
				Seed: int64(set + 1), UniformRows: false,
			})
			if err != nil {
				return naive, rrobin, err
			}
			r := rand.New(rand.NewSource(int64(100*set + nR)))
			seedRel := w.rels[0]
			// Warmup on this fresh database.
			warm := pickSeedIDs(r, w.ids[seedRel], cfg.SeedTuples)
			if _, _, err := w.runGeneration(seedRel, warm, cfg.CR, core.StrategyNaive); err != nil {
				return naive, rrobin, err
			}
			for s := 0; s < cfg.SeedSets; s++ {
				seedIDs := pickSeedIDs(r, w.ids[seedRel], cfg.SeedTuples)
				n, _, err := w.runGeneration(seedRel, seedIDs, cfg.CR, core.StrategyNaive)
				if err != nil {
					return naive, rrobin, err
				}
				rr, _, err := w.runGeneration(seedRel, seedIDs, cfg.CR, core.StrategyRoundRobin)
				if err != nil {
					return naive, rrobin, err
				}
				dn = append(dn, n)
				dr = append(dr, rr)
			}
		}
		naive.Points = append(naive.Points, Point{X: nR, Mean: median(dn), Runs: len(dn)})
		rrobin.Points = append(rrobin.Points, Point{X: nR, Mean: median(dr), Runs: len(dr)})
	}
	return naive, rrobin, nil
}

// CostModelReport compares the cost model's predictions with measurement.
type CostModelReport struct {
	Params   costmodel.Params
	Rows     []CostModelRow
	SolvedCR int           // Formula 3 solution for the budget below
	Budget   time.Duration // the response-time budget used for Formula 3
	Achieved time.Duration // measured generation time at the solved c_R
}

// CostModelRow is one c_R point: predicted (Formula 2 over actual stats)
// vs measured time.
type CostModelRow struct {
	CR        int
	Predicted time.Duration
	Measured  time.Duration
}

// CostModel calibrates IndexTime/TupleTime and validates Formulas 1–3 on a
// 4-relation chain sweep.
func CostModel(cfg F8Config, budget time.Duration) (CostModelReport, error) {
	var report CostModelReport
	params, err := costmodel.Calibrate(costmodel.CalibrationConfig{Rows: 3000, Group: 10, Rounds: 150})
	if err != nil {
		return report, err
	}
	report.Params = params
	ch := cfg.Chain
	ch.Seed = 42
	w, err := buildChain(ch)
	if err != nil {
		return report, err
	}
	r := rand.New(rand.NewSource(7))
	seedRel := w.rels[0]
	seedIDs := pickSeedIDs(r, w.ids[seedRel], cfg.SeedTuples)
	// Warm the workload so the sweep's first points are not cold-cache.
	for rep := 0; rep < 3; rep++ {
		if _, _, err := w.runGeneration(seedRel, seedIDs, cfg.Cardinalities[len(cfg.Cardinalities)-1], core.StrategyNaive); err != nil {
			return report, err
		}
	}
	for _, cR := range cfg.Cardinalities {
		// Noise suppression: several measurements per point, keep the best
		// (each runGeneration already reports a min-of-3).
		var measured time.Duration
		var stats core.GenStats
		for rep := 0; rep < 5; rep++ {
			m, st, err := w.runGeneration(seedRel, seedIDs, cR, core.StrategyNaive)
			if err != nil {
				return report, err
			}
			if rep == 0 || m < measured {
				measured, stats = m, st
			}
		}
		report.Rows = append(report.Rows, CostModelRow{
			CR:        cR,
			Predicted: costmodel.FromStats(params, stats.SQL),
			Measured:  measured,
		})
	}
	report.Budget = budget
	report.SolvedCR = costmodel.SolveCR(params, budget, len(w.rels))
	if report.SolvedCR > 0 {
		achieved, _, err := w.runGeneration(seedRel, seedIDs, report.SolvedCR, core.StrategyNaive)
		if err != nil {
			return report, err
		}
		report.Achieved = achieved
	}
	return report, nil
}

// RunningExampleReport verifies the §5 running example end to end.
type RunningExampleReport struct {
	SchemaRelations []string
	MovieInDegree   int
	TuplesPerRel    map[string]int
	Narrative       string
	SubDatabaseOK   bool
}

// RunningExample executes Q = {"Woody Allen"} with w >= 0.9 and <= 3 tuples
// per relation on the example movies database.
func RunningExample() (RunningExampleReport, error) {
	var report RunningExampleReport
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		return report, err
	}
	if err := dataset.AnnotateNarrative(g); err != nil {
		return report, err
	}
	ix := invidx.New(db)
	occs := ix.Lookup("Woody Allen")
	seeds := make(map[string][]storage.TupleID)
	var seedRels []string
	for _, o := range occs {
		seeds[o.Relation] = append(seeds[o.Relation], o.TupleIDs...)
		seedRels = append(seedRels, o.Relation)
	}
	sort.Strings(seedRels)
	rs, err := core.GenerateSchema(g, seedRels, core.MinPathWeight(0.9))
	if err != nil {
		return report, err
	}
	rs.CopyAnnotations(g)
	report.SchemaRelations = rs.Relations()
	sort.Strings(report.SchemaRelations)
	report.MovieInDegree = rs.SeedInDegree("MOVIE")
	rd, err := core.GenerateDatabase(sqlx.NewEngine(db), rs, seeds, core.MaxTuplesPerRelation(3), core.StrategyAuto)
	if err != nil {
		return report, err
	}
	report.TuplesPerRel = make(map[string]int)
	for _, name := range rd.DB.RelationNames() {
		report.TuplesPerRel[name] = rd.DB.Relation(name).Len()
	}
	report.SubDatabaseOK = storage.VerifySubDatabase(db, rd.DB) == nil
	renderer := nlg.NewRenderer()
	for _, def := range dataset.StandardMacros() {
		if err := renderer.DefineMacro(def); err != nil {
			return report, err
		}
	}
	report.Narrative, err = renderer.Narrative(rd, occs)
	return report, err
}

// BaselineReport contrasts précis answers with the §2 baselines, averaged
// over several director-name queries on a synthetic movies database.
type BaselineReport struct {
	Queries          int
	PrecisTime       time.Duration // mean per query
	PrecisRelations  float64       // mean relations in the answer
	PrecisAttributes float64
	PrecisTuples     float64
	AttrPairTime     time.Duration
	AttrPairMatches  float64
	TupleTreeTime    time.Duration
	TupleTreeResults float64
}

// Baselines runs nQueries director-name queries through all three systems
// and averages times and answer sizes.
func Baselines(films, nQueries int) (BaselineReport, error) {
	var report BaselineReport
	cfg := dataset.DefaultSyntheticConfig()
	cfg.Films = films
	db, err := dataset.SyntheticMovies(cfg)
	if err != nil {
		return report, err
	}
	g, err := dataset.PaperGraph(db)
	if err != nil {
		return report, err
	}
	ix := invidx.New(db)
	directors := db.Relation("DIRECTOR").Tuples()
	if nQueries > len(directors) {
		nQueries = len(directors)
	}
	if nQueries < 1 {
		nQueries = 1
	}
	report.Queries = nQueries
	movies := db.Relation("MOVIE")
	ti := movies.Schema().ColumnIndex("title")
	di := movies.Schema().ColumnIndex("did")
	eng := sqlx.NewEngine(db)

	for q := 0; q < nQueries; q++ {
		director := directors[q]
		dname := director.Values[1].AsString()

		start := time.Now()
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
			return report, err
		}
		rd, err := core.GenerateDatabase(eng, rs, seeds, core.MaxTuplesPerRelation(10), core.StrategyAuto)
		if err != nil {
			return report, err
		}
		report.PrecisTime += time.Since(start)
		report.PrecisRelations += float64(rd.DB.NumRelations())
		report.PrecisTuples += float64(rd.DB.TotalTuples())
		report.PrecisAttributes += float64(rs.NumAttributes())

		start = time.Now()
		matches := baseline.AttributePairSearch(db, ix, []string{dname})
		report.AttrPairTime += time.Since(start)
		report.AttrPairMatches += float64(len(matches))

		// The tuple-tree baseline connects the director with one of their
		// own movies (guaranteed joinable within 1 edge).
		title := ""
		movies.Scan(func(t storage.Tuple) bool {
			if t.Values[di] == director.Values[0] {
				title = t.Values[ti].AsString()
				return false
			}
			return true
		})
		if title == "" {
			title = movies.Tuples()[0].Values[ti].AsString()
		}
		start = time.Now()
		trees, err := baseline.TupleTreeSearch(db, g, ix, []string{dname, title}, 3, 20)
		if err != nil {
			return report, err
		}
		report.TupleTreeTime += time.Since(start)
		report.TupleTreeResults += float64(len(trees))
	}

	n := time.Duration(nQueries)
	report.PrecisTime /= n
	report.AttrPairTime /= n
	report.TupleTreeTime /= n
	fn := float64(nQueries)
	report.PrecisRelations /= fn
	report.PrecisTuples /= fn
	report.PrecisAttributes /= fn
	report.AttrPairMatches /= fn
	report.TupleTreeResults /= fn
	return report, nil
}
