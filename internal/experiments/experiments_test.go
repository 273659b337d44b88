package experiments

import (
	"sort"
	"strings"
	"testing"
	"time"

	"precis/internal/core"
	"precis/internal/dataset"
	"precis/internal/invidx"
	"precis/internal/sqlx"
	"precis/internal/storage"
)

// Small configurations keep the experiment tests fast while still
// exercising the full measurement paths.

func TestFigure7Shape(t *testing.T) {
	cfg := DefaultF7Config()
	cfg.Degrees = []int{5, 20, 50}
	cfg.WeightSets = 3
	cfg.SeedRels = 3
	cfg.Graph.Relations = 8
	s, err := Figure7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 3 {
		t.Fatalf("points = %+v", s.Points)
	}
	for _, p := range s.Points {
		if p.Runs != 9 {
			t.Errorf("d=%d runs = %d, want 9", p.X, p.Runs)
		}
		if p.Mean <= 0 {
			t.Errorf("d=%d mean = %v", p.X, p.Mean)
		}
	}
	if !strings.Contains(s.String(), "x=5") {
		t.Errorf("String = %q", s.String())
	}
}

func TestFigure8LinearInCR(t *testing.T) {
	cfg := DefaultF8Config()
	cfg.Cardinalities = []int{10, 40, 80}
	cfg.Sets = 2
	cfg.SeedSets = 2
	cfg.Chain.RowsPerRel = 100
	s, err := Figure8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 3 {
		t.Fatalf("points = %+v", s.Points)
	}
	for _, p := range s.Points {
		if p.Runs != 16 || p.Mean <= 0 {
			t.Errorf("point %+v", p)
		}
	}
	// The paper's claim is that time grows near-linearly with c_R because
	// the physical work does. Wall time is too noisy for a unit test on a
	// shared machine, so assert the deterministic driver instead: tuples
	// retrieved (and hence index+fetch work) grow with c_R.
	w, err := buildChain(dataset.ChainConfig{Relations: 4, RowsPerRel: 100, Fanout: 4, Seed: 1, UniformRows: false})
	if err != nil {
		t.Fatal(err)
	}
	ids := w.ids[w.rels[0]][:10]
	var prevReads, prevTuples int
	for _, cR := range []int{10, 40, 80} {
		_, stats, err := w.runGeneration(w.rels[0], ids, cR, core.StrategyNaive)
		if err != nil {
			t.Fatal(err)
		}
		if stats.SQL.TupleReads <= prevReads {
			t.Errorf("cR=%d: TupleReads %d did not grow past %d", cR, stats.SQL.TupleReads, prevReads)
		}
		if stats.TotalTuples <= prevTuples {
			t.Errorf("cR=%d: TotalTuples %d did not grow past %d", cR, stats.TotalTuples, prevTuples)
		}
		prevReads, prevTuples = stats.SQL.TupleReads, stats.TotalTuples
	}
}

func TestFigure9RoundRobinSlower(t *testing.T) {
	cfg := DefaultF9Config()
	cfg.Relations = []int{2, 4}
	cfg.Sets = 2
	cfg.SeedSets = 2
	naive, rr, err := Figure9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(naive.Points) != 2 || len(rr.Points) != 2 {
		t.Fatalf("points: %+v / %+v", naive.Points, rr.Points)
	}
	// The paper's claim: Round-Robin is slower than NaïveQ at each n_R
	// because it opens a scan per driving tuple and then fetches every
	// retrieved tuple by id, where NaïveQ's top-k stops reading at the
	// cut-off. Assert the deterministic drivers — statements (two per join
	// against one) and tuple reads — rather than noisy wall time.
	for _, nR := range cfg.Relations {
		w, err := buildChain(dataset.ChainConfig{Relations: nR, RowsPerRel: 50, Fanout: 2, Seed: 1, UniformRows: false})
		if err != nil {
			t.Fatal(err)
		}
		ids := w.ids[w.rels[0]][:5]
		_, sn, err := w.runGeneration(w.rels[0], ids, cfg.CR, core.StrategyNaive)
		if err != nil {
			t.Fatal(err)
		}
		_, sr, err := w.runGeneration(w.rels[0], ids, cfg.CR, core.StrategyRoundRobin)
		if err != nil {
			t.Fatal(err)
		}
		if nR > 1 && sr.Queries <= sn.Queries {
			t.Errorf("nR=%d: roundrobin queries %d <= naive %d", nR, sr.Queries, sn.Queries)
		}
		if nR > 1 && sr.SQL.TupleReads <= sn.SQL.TupleReads {
			t.Errorf("nR=%d: roundrobin read %d tuples <= naive %d", nR, sr.SQL.TupleReads, sn.SQL.TupleReads)
		}
	}
}

func TestCostModelValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based in -short mode")
	}
	cfg := DefaultF8Config()
	cfg.Cardinalities = []int{10, 50, 90}
	cfg.Chain.RowsPerRel = 100
	report, err := CostModel(cfg, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Rows) != 3 {
		t.Fatalf("rows = %+v", report.Rows)
	}
	for _, row := range report.Rows {
		if row.Predicted <= 0 || row.Measured <= 0 {
			t.Errorf("degenerate row %+v", row)
		}
	}
	// Predictions scale with c_R (the stats they derive from are
	// deterministic).
	if report.Rows[2].Predicted <= report.Rows[0].Predicted {
		t.Errorf("prediction not increasing: %+v", report.Rows)
	}
	if report.SolvedCR <= 0 {
		t.Errorf("solved c_R = %d", report.SolvedCR)
	}
}

func TestRunningExampleReport(t *testing.T) {
	report, err := RunningExample()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"ACTOR", "CAST", "DIRECTOR", "GENRE", "MOVIE"}
	if strings.Join(report.SchemaRelations, ",") != strings.Join(want, ",") {
		t.Errorf("relations = %v", report.SchemaRelations)
	}
	if report.MovieInDegree != 2 {
		t.Errorf("MOVIE in-degree = %d", report.MovieInDegree)
	}
	for rel, n := range report.TuplesPerRel {
		if n > 3 {
			t.Errorf("%s tuples = %d > 3", rel, n)
		}
	}
	if !report.SubDatabaseOK {
		t.Error("sub-database check failed")
	}
	if !strings.Contains(report.Narrative, "Woody Allen was born on December 1, 1935") {
		t.Errorf("narrative = %q", report.Narrative)
	}
}

func TestBaselinesReport(t *testing.T) {
	report, err := Baselines(300, 10)
	if err != nil {
		t.Fatal(err)
	}
	if report.Queries != 10 {
		t.Errorf("queries = %d", report.Queries)
	}
	// Précis answers are richer: multiple relations vs flat matches.
	if report.PrecisRelations < 2 {
		t.Errorf("précis relations = %v", report.PrecisRelations)
	}
	if report.PrecisTuples <= report.AttrPairMatches {
		t.Errorf("précis tuples (%v) should exceed attribute-pair matches (%v)",
			report.PrecisTuples, report.AttrPairMatches)
	}
	if report.AttrPairMatches == 0 {
		t.Error("attribute-pair baseline found nothing")
	}
}

func TestAblations(t *testing.T) {
	report, err := Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if report.PruningOn <= 0 || report.PruningOff <= 0 {
		t.Errorf("pruning times: %+v", report)
	}
	// Postponement correctness: 2 children with, 1 without.
	if report.PostponedChildren != 2 || report.EagerChildren != 1 {
		t.Errorf("postponement: %d vs %d, want 2 vs 1",
			report.PostponedChildren, report.EagerChildren)
	}
	// Weight-ordered joins fill the high-weight target at least as much.
	if report.WeightOrderMovieTuples < report.FIFOMovieTuples {
		t.Errorf("join order: weight=%d fifo=%d",
			report.WeightOrderMovieTuples, report.FIFOMovieTuples)
	}
}

// TestPaperScaleSmoke builds the full 34,000-film synthetic database (the
// paper's IMDB snapshot scale) and answers a précis query end to end,
// demonstrating laptop-scale viability of the whole stack.
func TestPaperScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale build in -short mode")
	}
	cfg := dataset.PaperScaleSyntheticConfig()
	start := time.Now()
	db, err := dataset.SyntheticMovies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buildTime := time.Since(start)
	if db.Relation("MOVIE").Len() != 34000 {
		t.Fatalf("films = %d", db.Relation("MOVIE").Len())
	}
	g, err := dataset.PaperGraph(db)
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	ix := invidx.New(db)
	indexTime := time.Since(start)

	dname := db.Relation("DIRECTOR").Tuples()[0].Values[1].AsString()
	occs := ix.Lookup(dname)
	if len(occs) == 0 {
		t.Fatal("no occurrences at paper scale")
	}
	seeds := make(map[string][]storage.TupleID)
	var seedRels []string
	for _, o := range occs {
		seeds[o.Relation] = append(seeds[o.Relation], o.TupleIDs...)
		seedRels = append(seedRels, o.Relation)
	}
	sort.Strings(seedRels)
	rs, err := core.GenerateSchema(g, seedRels, core.MinPathWeight(0.5))
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	rd, err := core.GenerateDatabase(sqlx.NewEngine(db), rs, seeds, core.MaxTuplesPerRelation(20), core.StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	queryTime := time.Since(start)
	if err := storage.VerifySubDatabase(db, rd.DB); err != nil {
		t.Fatal(err)
	}
	if rd.DB.TotalTuples() == 0 {
		t.Fatal("empty précis at paper scale")
	}
	t.Logf("34k films: build=%v index=%v (%d tokens) query=%v (%d tuples)",
		buildTime, indexTime, ix.NumTokens(), queryTime, rd.DB.TotalTuples())
	// The whole pipeline must be interactive-grade: generation well under
	// a second even on a shared CI machine.
	if queryTime > 2*time.Second {
		t.Errorf("query took %v at paper scale", queryTime)
	}
}
