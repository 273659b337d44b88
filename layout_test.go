package precis_test

import (
	"context"
	"runtime"
	"testing"

	"precis"
	"precis/internal/dataset"
	"precis/internal/storage"
)

// liveBytesPerTupleBudget is what one tuple of the bundled synthetic dataset
// may cost in live heap once the engine (storage, hash indexes, inverted
// index) is built over it: 10 % above the 225 bytes measured when the
// resident layout was last reworked (32-byte Value, 16-byte slots, id→slot
// table, int-keyed hash indexes, sorted-slice postings; it was 460 before).
// Raise it only with a heap profile that says where the bytes went
// (EXPERIMENTS.md, "Resident memory").
const liveBytesPerTupleBudget = 248

// TestLiveBytesPerTuple pins the resident cost of a tuple so the bytes
// cannot creep back unnoticed. scripts/ci.sh runs it in a non-race step.
func TestLiveBytesPerTuple(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates the heap")
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	db, err := dataset.SyntheticMovies(dataset.DefaultSyntheticConfig())
	if err != nil {
		t.Fatal(err)
	}
	g, err := dataset.PaperGraph(db)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := precis.New(db, g)
	if err != nil {
		t.Fatal(err)
	}
	perTuple := float64(heap()-before) / float64(eng.TotalTuples())
	t.Logf("%d tuples, %.1f live bytes per tuple (budget %d)", eng.TotalTuples(), perTuple, liveBytesPerTupleBudget)
	if perTuple > liveBytesPerTupleBudget {
		t.Errorf("%.1f live bytes per tuple, budget %d", perTuple, liveBytesPerTupleBudget)
	}
	runtime.KeepAlive(eng)
}

// A deep-shaped answer — the busiest director of the default synthetic
// dataset at w=0.05, card=150: 760 tuples over every relation of the graph,
// narrated — may allocate this much through Engine.QueryStringContext, serial
// and uncached: 15 % above the 363 KiB / 2,930 allocations (NaïveQ) and
// 586 KiB / 3,020 (Round-Robin) measured when each answer tuple came to be
// materialised once — D′ keeps the rows sqlx built, its join indexes serve
// generator and translator, Round-Robin's probe reads no tuple; it was
// 552 KiB / 3,990 and 729 KiB / 5,440 before. Raise a bound only with an
// allocation profile that says which holder grew (EXPERIMENTS.md, "Allocated
// bytes per answer").
var deepAnswerAllocBudget = map[precis.Strategy]struct{ kib, allocs float64 }{
	precis.StrategyNaive:      {kib: 418, allocs: 3370},
	precis.StrategyRoundRobin: {kib: 674, allocs: 3480},
}

// TestAllocPerDeepAnswer pins what one deep answer allocates, so a copy of
// the answer's tuples cannot creep back unnoticed. scripts/ci.sh runs it in
// the non-race step next to TestLiveBytesPerTuple.
func TestAllocPerDeepAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	db, err := dataset.SyntheticMovies(dataset.DefaultSyntheticConfig())
	if err != nil {
		t.Fatal(err)
	}
	g, err := dataset.PaperGraph(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.AnnotateNarrative(g); err != nil {
		t.Fatal(err)
	}
	eng, err := precis.New(db, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range dataset.StandardMacros() {
		if err := eng.DefineMacro(def); err != nil {
			t.Fatal(err)
		}
	}
	query := `"` + busiestDirector(db) + `"`
	for _, strat := range []precis.Strategy{precis.StrategyNaive, precis.StrategyRoundRobin} {
		opts := precis.Options{
			Degree:      precis.MinPathWeight(0.05),
			Cardinality: precis.MaxTuplesPerRelation(150),
			Strategy:    strat,
			Parallelism: -1,
		}
		tuples := 0
		run := func() {
			ans, err := eng.QueryStringContext(context.Background(), query, opts)
			if err != nil || ans.Narrative == "" {
				t.Fatalf("%v: %v", strat, err)
			}
			tuples = ans.Database.TotalTuples()
		}
		run() // template parses and other first-call work
		const rounds = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		kib := float64(after.TotalAlloc-before.TotalAlloc) / rounds / 1024
		allocs := float64(after.Mallocs-before.Mallocs) / rounds
		budget := deepAnswerAllocBudget[strat]
		t.Logf("%v: %d tuples, %.0f KiB and %.0f allocations per answer (budget %.0f KiB, %.0f)",
			strat, tuples, kib, allocs, budget.kib, budget.allocs)
		if tuples < 500 {
			t.Errorf("%v: only %d tuples: not a deep-shaped answer", strat, tuples)
		}
		if kib > budget.kib || allocs > budget.allocs {
			t.Errorf("%v: %.0f KiB and %.0f allocations per answer, budget %.0f KiB and %.0f",
				strat, kib, allocs, budget.kib, budget.allocs)
		}
	}
}

// busiestDirector returns the name of the director with the most films.
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
