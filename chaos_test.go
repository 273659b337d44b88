package precis

// Chaos suite: proves the resource-governance layer's promises under
// injected failure. Faults (errors, panics, latency) fire at the named
// faultinject sites inside storage lookups, index probes, generated
// SELECTs, and join execution while the engine is hammered from 32
// goroutines — and the suite asserts exactly what the governor guarantees:
//
//   - no crash and no deadlock: every panic surfaces as ErrInternal and the
//     engine keeps serving afterwards;
//   - partial answers stay deterministic: for the same Budget the serial
//     and parallel paths produce byte-identical prefixes of the unbounded
//     answer;
//   - the cache never serves a partial answer or an answer poisoned by a
//     fault: failed and truncated generations are never stored.
//
// scripts/ci.sh runs this file under -race -count=2; `go test -short`
// shrinks the storm so the tier-1 suite stays fast.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"precis/internal/dataset"
	"precis/internal/faultinject"
	"precis/internal/storage"
)

// errInjected is the sentinel the chaos plans return from error rules; any
// query error must be this, ErrInternal, or ErrNoMatches — anything else is
// a governance bug.
var errInjected = errors.New("chaos: injected fault")

// chaosIters scales the storm: full size normally, small under -short.
func chaosIters(full int) int {
	if testing.Short() {
		return full / 5
	}
	return full
}

// TestChaosInjectedErrorsSurfaceCleanly arms an error rule at each
// error-capable site in turn and asserts the query fails with the injected
// sentinel (wrapped, so errors.Is sees it), then succeeds again once the
// plan is disarmed — no residue, no poisoned cache.
func TestChaosInjectedErrorsSurfaceCleanly(t *testing.T) {
	eng := newEngine(t)
	eng.EnableCache(CacheConfig{MaxEntries: 16})
	for _, site := range []string{
		faultinject.SiteStorageLookup,
		faultinject.SiteSQLSelect,
		faultinject.SiteJoin,
	} {
		t.Run(site, func(t *testing.T) {
			eng.InvalidateCache()
			plan := faultinject.NewPlan().Set(site, faultinject.Rule{Err: errInjected})
			deactivate := faultinject.Activate(plan)
			_, err := eng.Query([]string{"Woody Allen"}, Options{SkipNarrative: true})
			deactivate()
			if err == nil {
				t.Fatalf("site %s: fault armed on every call but query succeeded", site)
			}
			if !errors.Is(err, errInjected) {
				t.Fatalf("site %s: error does not wrap the injected sentinel: %v", site, err)
			}
			if plan.Fired(site) == 0 {
				t.Fatalf("site %s: rule never fired", site)
			}
			// The failed generation must not have poisoned the cache.
			ans, err := eng.Query([]string{"Woody Allen"}, Options{SkipNarrative: true})
			if err != nil {
				t.Fatalf("site %s: engine did not recover after disarm: %v", site, err)
			}
			if ans.Partial || ans.Database.TotalTuples() == 0 {
				t.Fatalf("site %s: post-fault answer partial=%v tuples=%d", site, ans.Partial, ans.Database.TotalTuples())
			}
		})
	}
}

// TestChaosTranslatorLookupFault: the translator's joins probe the result
// database's own indexes through SiteStorageLookup, after the generator's
// last probe of the source. An error on any of them fails the query with the
// injected sentinel attributed to the join — a narrative never comes back
// with a clause silently missing — and neither the cache nor the next query
// sees it.
func TestChaosTranslatorLookupFault(t *testing.T) {
	eng := newEngine(t)
	eng.EnableCache(CacheConfig{MaxEntries: 16})
	terms := []string{"Woody Allen"}
	lookups := func(opts Options) int64 {
		t.Helper()
		eng.InvalidateCache()
		plan := faultinject.NewPlan().Set(faultinject.SiteStorageLookup, faultinject.Rule{Every: 1 << 30})
		defer faultinject.Activate(plan)()
		if _, err := eng.Query(terms, opts); err != nil {
			t.Fatal(err)
		}
		return plan.Calls(faultinject.SiteStorageLookup)
	}
	generation := lookups(Options{Parallelism: -1, SkipNarrative: true})
	total := lookups(Options{Parallelism: -1})
	if generation == 0 || total <= generation {
		t.Fatalf("%d lookups generating, %d with the narrative: the translator's joins do not pass the site", generation, total)
	}
	want, err := eng.Query(terms, Options{Parallelism: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, nth := range []int64{generation, (generation + total) / 2, total - 1} {
		eng.InvalidateCache()
		plan := faultinject.NewPlan().Set(faultinject.SiteStorageLookup, faultinject.Rule{Err: errInjected, After: int(nth), Limit: 1})
		deactivate := faultinject.Activate(plan)
		ans, err := eng.Query(terms, Options{Parallelism: -1})
		deactivate()
		if !errors.Is(err, errInjected) || !strings.Contains(err.Error(), "nlg: join ") || ans != nil {
			t.Fatalf("lookup %d of %d failed: answer %v, error %v", nth+1, total, ans != nil, err)
		}
		if plan.Fired(faultinject.SiteStorageLookup) != 1 {
			t.Fatalf("lookup %d: rule fired %d times", nth+1, plan.Fired(faultinject.SiteStorageLookup))
		}
		// Nothing of the failed query was cached: a miss and a hit agree
		// with the answer from before the fault.
		for i := 0; i < 2; i++ {
			got, err := eng.Query(terms, Options{Parallelism: -1})
			if err != nil || got.Narrative != want.Narrative || dumpDatabase(got.Database) != dumpDatabase(want.Database) {
				t.Fatalf("lookup %d: query %d after the fault differs: %v", nth+1, i, err)
			}
		}
	}
}

// TestChaosMidGenerationFault sweeps one injected error over the generated
// statements and cursor probes of a query, and over the index lookups behind
// them, serially and with a fetch pool: a join that fails after earlier ones
// have entered D′ — a whole batch each, its indexes merged — fails the query
// with the injected error and no answer, and the next query, cached or not,
// is the unfaulted one. (What D′ holds at that moment is internal/core's
// TestFaultMidJoinLeavesExactPrefix.)
func TestChaosMidGenerationFault(t *testing.T) {
	eng := newEngine(t)
	eng.EnableCache(CacheConfig{MaxEntries: 16})
	terms := []string{"Woody Allen"}
	for _, workers := range []int{-1, 4} {
		opts := Options{Parallelism: workers, SkipNarrative: true}
		eng.InvalidateCache()
		want, err := eng.Query(terms, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, site := range []string{faultinject.SiteSQLSelect, faultinject.SiteStorageLookup} {
			eng.InvalidateCache()
			count := faultinject.NewPlan().Set(site, faultinject.Rule{Every: 1 << 30})
			stop := faultinject.Activate(count)
			if _, err := eng.Query(terms, opts); err != nil {
				t.Fatal(err)
			}
			stop()
			calls := int(count.Calls(site))
			if calls < 4 {
				t.Fatalf("workers=%d: only %d calls pass %s", workers, calls, site)
			}
			for nth := 0; nth < calls; nth += 1 + calls/chaosIters(40) {
				eng.InvalidateCache()
				stop := faultinject.Activate(faultinject.NewPlan().Set(site, faultinject.Rule{Err: errInjected, After: nth, Limit: 1}))
				ans, err := eng.Query(terms, opts)
				stop()
				if !errors.Is(err, errInjected) || ans != nil {
					t.Fatalf("workers=%d, %s call %d of %d: answer %v, error %v", workers, site, nth+1, calls, ans != nil, err)
				}
				for i := 0; i < 2; i++ {
					got, err := eng.Query(terms, opts)
					if err != nil || got.Partial || dumpDatabase(got.Database) != dumpDatabase(want.Database) {
						t.Fatalf("workers=%d, %s call %d: query %d after the fault differs: %v", workers, site, nth+1, i, err)
					}
				}
			}
		}
	}
}

// TestChaosPanicsBecomeErrInternal arms a panic rule at every site — on the
// serial path and on the parallel path (SiteIndexProbe fires inside
// ParallelFor workers), on a single engine and on four shards (where a
// statement's scatter runs one goroutine per shard, and SiteStorageLookup
// fires inside them) — and asserts the panic is recovered at the engine
// boundary as ErrInternal with the panic text attached, while the engine
// keeps serving other queries.
func TestChaosPanicsBecomeErrInternal(t *testing.T) {
	sites := []string{
		faultinject.SiteStorageLookup,
		faultinject.SiteIndexProbe,
		faultinject.SiteSQLSelect,
		faultinject.SiteJoin,
	}
	engines := []struct {
		name  string
		eng   *Engine
		sites []string
	}{
		{"unsharded", newEngine(t), sites},
		{"shards=4", newShardedEngine(t, 4, "hash"), append(sites[:len(sites):len(sites)],
			faultinject.SiteShardScatter, faultinject.SiteShardGather)},
	}
	for _, e := range engines {
		for _, site := range e.sites {
			for _, workers := range []int{-1, 4} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", e.name, site, workers), func(t *testing.T) {
					plan := faultinject.NewPlan().Set(site, faultinject.Rule{Panic: "chaos boom"})
					deactivate := faultinject.Activate(plan)
					_, err := e.eng.Query([]string{"Woody Allen"}, Options{
						SkipNarrative: true,
						Parallelism:   workers,
					})
					deactivate()
					if !errors.Is(err, ErrInternal) {
						t.Fatalf("want ErrInternal, got %v", err)
					}
					if !strings.Contains(err.Error(), "chaos boom") {
						t.Fatalf("panic message lost: %v", err)
					}
					// The engine must keep serving: same query, no faults.
					ans, err := e.eng.Query([]string{"Woody Allen"}, Options{SkipNarrative: true})
					if err != nil || ans.Database.TotalTuples() == 0 {
						t.Fatalf("engine stopped serving after panic: err=%v", err)
					}
				})
			}
		}
	}
}

// TestChaosStorm32 hammers one shared engine from 32 goroutines while a
// mixed fault plan fires: scheduled errors on storage lookups and SELECTs,
// a capped run of panics on join execution, and pure latency on index
// probes. Queriers sweep strategies, pool sizes, and budgets. The suite
// passes when the storm finishes (no deadlock), every failure is one of the
// three sanctioned errors, partial flags are coherent, unbudgeted answers
// are never partial, and the cache is still byte-coherent afterwards.
func TestChaosStorm32(t *testing.T) {
	eng := newEngine(t)
	eng.EnableCache(CacheConfig{MaxEntries: 64})

	plan := faultinject.NewPlan().
		Set(faultinject.SiteStorageLookup, faultinject.Rule{Err: errInjected, Every: 97}).
		Set(faultinject.SiteSQLSelect, faultinject.Rule{Err: errInjected, Every: 131, After: 50}).
		Set(faultinject.SiteJoin, faultinject.Rule{Panic: "storm boom", Every: 61, Limit: 8}).
		Set(faultinject.SiteIndexProbe, faultinject.Rule{Delay: 100 * time.Microsecond, Every: 13})
	deactivate := faultinject.Activate(plan)
	defer deactivate()

	queries := [][]string{
		{"Woody Allen"}, {"Match Point"}, {"Comedy"}, {"Scarlett Johansson"},
	}
	budgets := []Budget{
		{},                // unbounded
		{MaxTuples: 5},    // tuple budget
		{MaxJoinSteps: 1}, // step budget
		{MaxResultBytes: 256},
		{Deadline: time.Now().Add(time.Hour)}, // generous deadline, uncacheable
	}
	const goroutines = 32
	iters := chaosIters(40)

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				b := budgets[(w+i)%len(budgets)]
				opts := Options{
					Strategy:      []Strategy{StrategyAuto, StrategyNaive, StrategyRoundRobin}[i%3],
					SkipNarrative: i%2 == 0,
					Parallelism:   []int{-1, 2, 4, 8}[w%4],
					Budget:        b,
				}
				ans, err := eng.Query(queries[(w+i)%len(queries)], opts)
				if err != nil {
					if errors.Is(err, errInjected) || errors.Is(err, ErrInternal) || errors.Is(err, ErrNoMatches) {
						continue // sanctioned failure modes
					}
					fail(fmt.Errorf("worker %d iter %d: unsanctioned error: %w", w, i, err))
					return
				}
				if ans.Partial != (ans.Truncation != TruncateNone) {
					fail(fmt.Errorf("worker %d: incoherent partial flag: partial=%v truncation=%q",
						w, ans.Partial, ans.Truncation))
					return
				}
				if b.IsZero() && ans.Partial {
					// An unbudgeted query can never be partial — and since
					// only unbudgeted (and deterministic-budget) queries are
					// cacheable, this also proves the cache never served a
					// truncated answer.
					fail(fmt.Errorf("worker %d: unbudgeted answer marked partial (%s)", w, ans.Truncation))
					return
				}
				if ans.Database.TotalTuples() == 0 {
					fail(fmt.Errorf("worker %d: empty answer without error", w))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if plan.Fired(faultinject.SiteStorageLookup) == 0 && plan.Fired(faultinject.SiteSQLSelect) == 0 {
		t.Fatal("storm ran without any injected error firing — schedule too sparse")
	}

	// Disarm and verify the cache is still coherent: a miss/hit pair agrees.
	deactivate()
	eng.InvalidateCache()
	a1, err := eng.Query([]string{"Woody Allen"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := eng.Query([]string{"Woody Allen"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a1.Partial || a2.Partial {
		t.Fatal("post-storm answers marked partial")
	}
	if dumpDatabase(a1.Database) != dumpDatabase(a2.Database) || a1.Narrative != a2.Narrative {
		t.Fatal("post-storm cache hit differs from miss")
	}
}

// TestChaosPartialDeterminism pins the governor's central invariant: for
// the same deterministic budget the serial and parallel paths truncate at
// the same tuple, so partial answers are byte-identical across pool sizes
// and every partial answer is an exact per-relation prefix of the
// unbounded answer.
func TestChaosPartialDeterminism(t *testing.T) {
	eng := newEngine(t)
	terms := []string{"Woody Allen"}
	full, err := eng.Query(terms, Options{SkipNarrative: true})
	if err != nil {
		t.Fatal(err)
	}
	fullDump := dumpDatabase(full.Database)

	for _, b := range []Budget{
		{MaxTuples: 3},
		{MaxTuples: 7},
		{MaxJoinSteps: 2},
		{MaxResultBytes: 300},
	} {
		name := fmt.Sprintf("tuples=%d,steps=%d,bytes=%d", b.MaxTuples, b.MaxJoinSteps, b.MaxResultBytes)
		t.Run(name, func(t *testing.T) {
			for _, strat := range []Strategy{StrategyNaive, StrategyRoundRobin} {
				opts := Options{Strategy: strat, SkipNarrative: true, Parallelism: -1, Budget: b}
				ref, err := eng.Query(terms, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !ref.Partial {
					t.Fatalf("%v: budget %+v did not truncate", strat, b)
				}
				if ref.Database.TotalTuples() == 0 {
					t.Fatalf("%v: partial answer is empty", strat)
				}
				refDump := dumpDatabase(ref.Database)
				assertPerRelationPrefix(t, refDump, fullDump)
				for _, workers := range []int{2, 4, 8} {
					opts.Parallelism = workers
					ans, err := eng.Query(terms, opts)
					if err != nil {
						t.Fatalf("%v workers=%d: %v", strat, workers, err)
					}
					if got := dumpDatabase(ans.Database); got != refDump {
						t.Fatalf("%v workers=%d: partial answer differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s",
							strat, workers, refDump, got)
					}
					if ans.Truncation != ref.Truncation {
						t.Fatalf("%v workers=%d: truncation %q vs serial %q",
							strat, workers, ans.Truncation, ref.Truncation)
					}
				}
			}
		})
	}
}

// TestChaosDeadlineOnLargestDataset is the acceptance scenario: a 1ms
// deadline on the largest bundled dataset returns a non-empty partial
// answer — the fully-materialized seeds — byte-identical across pool
// sizes, and an exact prefix of the unbounded answer.
func TestChaosDeadlineOnLargestDataset(t *testing.T) {
	films := 2000
	if testing.Short() {
		films = 400
	}
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
	eng, err := New(db, g)
	if err != nil {
		t.Fatal(err)
	}
	terms := []string{mostProlificDirector(db)}

	full, err := eng.Query(terms, Options{SkipNarrative: true})
	if err != nil {
		t.Fatal(err)
	}
	fullDump := dumpDatabase(full.Database)

	deadline := time.Now().Add(time.Millisecond)
	// Let the deadline lapse before the query starts: the budget then trips
	// at the first checkpoint after seed placement in every configuration,
	// which is what makes the cross-pool comparison exact rather than a
	// race against the wall clock.
	time.Sleep(2 * time.Millisecond)

	var refDump string
	for i, workers := range []int{-1, 2, 8} {
		ans, err := eng.Query(terms, Options{
			SkipNarrative: true,
			Parallelism:   workers,
			Budget:        Budget{Deadline: deadline},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !ans.Partial || ans.Truncation != TruncateDeadline {
			t.Fatalf("workers=%d: want deadline truncation, got partial=%v reason=%q",
				workers, ans.Partial, ans.Truncation)
		}
		if ans.Database.TotalTuples() == 0 {
			t.Fatalf("workers=%d: deadline answer is empty — seeds must always materialize", workers)
		}
		dump := dumpDatabase(ans.Database)
		assertPerRelationPrefix(t, dump, fullDump)
		if i == 0 {
			refDump = dump
		} else if dump != refDump {
			t.Fatalf("workers=%d: deadline answer differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s",
				workers, refDump, dump)
		}
	}
}

// TestChaosPartialNeverCached proves truncated answers are not stored: a
// budgeted query that truncates, re-run after lifting the budget, yields
// the full answer (a cached partial would have been replayed verbatim
// because deterministic budgets are part of the cache key only when set).
func TestChaosPartialNeverCached(t *testing.T) {
	eng := newEngine(t)
	eng.EnableCache(CacheConfig{MaxEntries: 16})

	b := Budget{MaxTuples: 3}
	p1, err := eng.Query([]string{"Woody Allen"}, Options{SkipNarrative: true, Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	if !p1.Partial {
		t.Fatalf("MaxTuples=3 did not truncate (got %d tuples)", p1.Database.TotalTuples())
	}
	// Same budgeted query again: must recompute (partial was not cached),
	// and still agree byte-for-byte — determinism, not caching.
	misses := eng.CacheStats().Misses
	p2, err := eng.Query([]string{"Woody Allen"}, Options{SkipNarrative: true, Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	if eng.CacheStats().Misses == misses {
		t.Fatal("budgeted re-query did not miss: a partial answer was served from cache")
	}
	if dumpDatabase(p1.Database) != dumpDatabase(p2.Database) {
		t.Fatal("recomputed partial answer differs")
	}
	// Unbudgeted query: full answer, strictly more tuples.
	fullAns, err := eng.Query([]string{"Woody Allen"}, Options{SkipNarrative: true})
	if err != nil {
		t.Fatal(err)
	}
	if fullAns.Partial {
		t.Fatal("unbudgeted answer marked partial")
	}
	if fullAns.Database.TotalTuples() <= p1.Database.TotalTuples() {
		t.Fatalf("full answer (%d tuples) not larger than truncated (%d)",
			fullAns.Database.TotalTuples(), p1.Database.TotalTuples())
	}
}

// assertPerRelationPrefix asserts that, relation by relation, the tuple
// lines of partialDump form a prefix of fullDump's lines. Because inserts
// are serialized in one canonical order, a budget cut that is an exact
// prefix of the global insertion sequence is an exact prefix of every
// relation's scan order too.
func assertPerRelationPrefix(t *testing.T, partialDump, fullDump string) {
	t.Helper()
	part := splitDumpByRelation(partialDump)
	full := splitDumpByRelation(fullDump)
	for rel, lines := range part {
		fullLines, ok := full[rel]
		if !ok {
			if len(lines) > 0 {
				t.Fatalf("relation %s present in partial answer but absent from full answer", rel)
			}
			continue
		}
		if len(lines) > len(fullLines) {
			t.Fatalf("relation %s: partial has %d tuples, full only %d", rel, len(lines), len(fullLines))
		}
		for i, ln := range lines {
			if fullLines[i] != ln {
				t.Fatalf("relation %s: partial tuple %d is not a prefix of the full answer:\npartial: %s\nfull:    %s",
					rel, i, ln, fullLines[i])
			}
		}
	}
}

// splitDumpByRelation parses a dumpDatabase rendering into per-relation
// tuple lines.
func splitDumpByRelation(dump string) map[string][]string {
	out := make(map[string][]string)
	var cur string
	for _, ln := range strings.Split(dump, "\n") {
		if ln == "" {
			continue
		}
		if strings.HasPrefix(ln, "== ") {
			cur = ln
			out[cur] = nil
			continue
		}
		out[cur] = append(out[cur], ln)
	}
	return out
}

// TestChaosPersistentStorm points the storm at a durable engine: 24
// goroutines mix queries with logged mutations while WAL-append faults
// fire and a checkpointer rotates generations mid-storm. The assertions
// are the durability layer's contract under fire: no deadlock, every
// mutation either fully applied or fully rolled back (sanctioned errors
// only), the engine still serving afterwards — and a close + reopen must
// reproduce the live database byte-for-byte with zero WAL replay and no
// integrity violations.
func TestChaosPersistentStorm(t *testing.T) {
	dir := t.TempDir()
	eng := openPersistent(t, dir)
	eng.EnableCache(CacheConfig{MaxEntries: 64})

	// A real MOVIE.mid to hang GENRE inserts off (FK target).
	var mid storage.Value
	eng.Database().Relation("MOVIE").Scan(func(tp storage.Tuple) bool {
		mid = tp.Values[0]
		return false
	})
	if mid.IsNull() {
		t.Fatal("no movie to mutate against")
	}

	// Faults on the durability path itself: append errors force the
	// rollback path under concurrency, fsync delays widen the group-commit
	// window.
	plan := faultinject.NewPlan().
		Set(faultinject.SiteWALAppend, faultinject.Rule{Err: errInjected, Every: 23}).
		Set(faultinject.SiteWALFsync, faultinject.Rule{Delay: 200 * time.Microsecond, Every: 7})
	deactivate := faultinject.Activate(plan)
	defer deactivate()

	const goroutines = 24
	iters := chaosIters(40)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	queries := [][]string{{"Woody Allen"}, {"Match Point"}, {"Comedy"}}
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch {
				case w%3 == 0: // reader
					_, err := eng.Query(queries[(w+i)%len(queries)], Options{SkipNarrative: i%2 == 0})
					if err != nil && !errors.Is(err, ErrNoMatches) {
						fail(fmt.Errorf("reader %d iter %d: %w", w, i, err))
						return
					}
				default: // mutator: insert, sometimes delete what it inserted
					id, err := eng.Insert("GENRE", mid, storage.String(fmt.Sprintf("chaos-%d-%d", w, i)))
					if err != nil {
						if errors.Is(err, errInjected) {
							continue // rolled back; the reopen check proves it left no residue
						}
						fail(fmt.Errorf("mutator %d iter %d: unsanctioned insert error: %w", w, i, err))
						return
					}
					if i%3 == 0 {
						if _, err := eng.Delete("GENRE", id); err != nil && !errors.Is(err, errInjected) {
							fail(fmt.Errorf("mutator %d iter %d: unsanctioned delete error: %w", w, i, err))
							return
						}
					}
					if i%5 == 0 {
						eng.AddSynonym(fmt.Sprintf("chaosalias%d_%d", w, i), "Match Point")
					}
				}
			}
		}(w)
	}
	// Mid-storm checkpoints: each rotates the WAL generation while
	// mutators are appending to it.
	ckpts := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			time.Sleep(2 * time.Millisecond)
			if err := eng.Checkpoint(); err != nil {
				fail(fmt.Errorf("mid-storm checkpoint %d: %w", i, err))
				return
			}
			ckpts++
		}
	}()
	wg.Wait()
	deactivate()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if ckpts == 0 {
		t.Fatal("no mid-storm checkpoint completed")
	}

	// The engine must still serve and still accept durable mutations.
	if _, err := eng.Insert("GENRE", mid, storage.String("post-storm")); err != nil {
		t.Fatalf("engine rejects mutations after the storm: %v", err)
	}
	if violations := eng.Database().CheckIntegrity(); len(violations) > 0 {
		t.Fatalf("live database has %d integrity violations after the storm", len(violations))
	}
	liveDump := dumpDatabase(eng.Database())
	if err := eng.Close(); err != nil {
		t.Fatalf("close after storm: %v", err)
	}

	reopened := openPersistent(t, dir)
	defer reopened.Close()
	st := reopened.PersistStats()
	if st.Recovery.WALRecordsReplayed != 0 {
		t.Errorf("clean close left %d WAL records to replay", st.Recovery.WALRecordsReplayed)
	}
	if got := dumpDatabase(reopened.Database()); got != liveDump {
		t.Errorf("recovered database differs from the live one after the storm:\nlive:\n%s\nrecovered:\n%s", liveDump, got)
	}
	if violations := reopened.Database().CheckIntegrity(); len(violations) > 0 {
		t.Errorf("recovered database has %d integrity violations", len(violations))
	}
}
