package precis

// Sharded-execution suite: a coordinator that scatters the précis pipeline
// over N shards must be invisible in the answer. Every test here
// holds the sharded engine to the single-engine output byte for byte —
// result database dump, narrative, stats — across partitioners, shard
// counts, worker-pool sizes, budget-truncated partials, mutations, crash
// recovery, and a faulted concurrent storm. scripts/ci.sh runs the suite
// under -race.

import (
	"errors"
	"fmt"
	"io"
	"log"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"precis/internal/dataset"
	"precis/internal/faultinject"
	"precis/internal/storage"
)

var shardCounts = []int{1, 2, 4, 8}

func shardCountsForTest() []int {
	if testing.Short() {
		return []int{1, 4}
	}
	return shardCounts
}

// newShardedEngine builds a fresh in-memory sharded engine over its own
// copy of the example-movies dataset.
func newShardedEngine(t *testing.T, shards int, partitioner string) *Engine {
	t.Helper()
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.AnnotateNarrative(g); err != nil {
		t.Fatal(err)
	}
	eng, err := NewSharded(db, g, ShardedConfig{Shards: shards, Partitioner: partitioner})
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range dataset.StandardMacros() {
		if err := eng.DefineMacro(def); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// TestShardedDeterminism sweeps every dataset × partitioner × shard count
// × strategy × pool size and requires the sharded answer to be
// byte-identical to the single-engine serial answer: same result database
// (content and insertion order), same narrative, same tuple counts.
func TestShardedDeterminism(t *testing.T) {
	for _, w := range determinismWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			db, g, err := w.build()
			if err != nil {
				t.Fatal(err)
			}
			single, err := New(db, g)
			if err != nil {
				t.Fatal(err)
			}
			if w.narrative {
				for _, def := range dataset.StandardMacros() {
					if err := single.DefineMacro(def); err != nil {
						t.Fatal(err)
					}
				}
			}
			terms := w.terms
			if terms == nil {
				terms = []string{mostProlificDirector(db)}
			}
			type refAnswer struct {
				dump, narrative string
				tuples          int
			}
			refs := map[Strategy]refAnswer{}
			for _, strat := range []Strategy{StrategyNaive, StrategyRoundRobin} {
				ans, err := single.Query(terms, Options{
					Degree:        MinPathWeight(0.1),
					Cardinality:   MaxTuplesPerRelation(20),
					Strategy:      strat,
					SkipNarrative: !w.narrative,
					Parallelism:   -1, // serial single-engine reference
				})
				if err != nil {
					t.Fatal(err)
				}
				refs[strat] = refAnswer{dumpDatabase(ans.Database), ans.Narrative, ans.Stats.TotalTuples}
			}
			for _, partitioner := range []string{"hash", "range"} {
				for _, shards := range shardCountsForTest() {
					t.Run(fmt.Sprintf("%s-%d", partitioner, shards), func(t *testing.T) {
						eng, err := NewSharded(db, g, ShardedConfig{Shards: shards, Partitioner: partitioner})
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
						for _, strat := range []Strategy{StrategyNaive, StrategyRoundRobin} {
							ref := refs[strat]
							for _, workers := range []int{-1, 4} {
								ans, err := eng.Query(terms, Options{
									Degree:        MinPathWeight(0.1),
									Cardinality:   MaxTuplesPerRelation(20),
									Strategy:      strat,
									SkipNarrative: !w.narrative,
									Parallelism:   workers,
								})
								if err != nil {
									t.Fatalf("%v workers=%d: %v", strat, workers, err)
								}
								if got := dumpDatabase(ans.Database); got != ref.dump {
									t.Fatalf("%v workers=%d: sharded result database differs from single engine\n--- single ---\n%s\n--- sharded ---\n%s",
										strat, workers, ref.dump, got)
								}
								if ans.Narrative != ref.narrative {
									t.Fatalf("%v workers=%d: narrative differs\nsingle:  %q\nsharded: %q",
										strat, workers, ref.narrative, ans.Narrative)
								}
								if ans.Stats.TotalTuples != ref.tuples {
									t.Fatalf("%v workers=%d: %d tuples vs single-engine %d",
										strat, workers, ans.Stats.TotalTuples, ref.tuples)
								}
							}
						}
					})
				}
			}
		})
	}
}

// TestShardedBudgetPartialDeterminism requires budget-truncated partial
// answers to stay exact prefixes under sharding: same Partial flag, same
// truncation reason, same result database and narrative as the
// single-engine partial for every shard count.
func TestShardedBudgetPartialDeterminism(t *testing.T) {
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.AnnotateNarrative(g); err != nil {
		t.Fatal(err)
	}
	single, err := New(db, g)
	if err != nil {
		t.Fatal(err)
	}
	budgets := []Budget{
		{MaxTuples: 5},
		{MaxJoinSteps: 1},
		{MaxResultBytes: 256},
	}
	for bi, b := range budgets {
		opts := Options{Budget: b, Parallelism: -1}
		ref, err := single.Query([]string{"Woody Allen"}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !ref.Partial {
			t.Fatalf("budget %d: single-engine answer not partial (budget too generous for the test)", bi)
		}
		refDump := dumpDatabase(ref.Database)
		for _, shards := range shardCountsForTest() {
			eng, err := NewSharded(db, g, ShardedConfig{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{-1, 4} {
				opts.Parallelism = workers
				ans, err := eng.Query([]string{"Woody Allen"}, opts)
				if err != nil {
					t.Fatalf("budget %d shards=%d workers=%d: %v", bi, shards, workers, err)
				}
				if ans.Partial != ref.Partial || ans.Truncation != ref.Truncation {
					t.Fatalf("budget %d shards=%d: partial=%v/%q, single engine %v/%q",
						bi, shards, ans.Partial, ans.Truncation, ref.Partial, ref.Truncation)
				}
				if got := dumpDatabase(ans.Database); got != refDump {
					t.Fatalf("budget %d shards=%d workers=%d: partial prefix differs\n--- single ---\n%s\n--- sharded ---\n%s",
						bi, shards, workers, refDump, got)
				}
				if ans.Narrative != ref.Narrative {
					t.Fatalf("budget %d shards=%d: partial narrative differs", bi, shards)
				}
			}
		}
	}
}

// shardMutationScript applies the same deterministic mutation sequence to
// any engine (sharded or not) and returns the allocated tuple ids.
func shardMutationScript(t *testing.T, e *Engine) []storage.TupleID {
	t.Helper()
	var ids []storage.TupleID
	id, err := e.Insert("DIRECTOR", storage.Int(900), storage.String("Greta Gerwig"), storage.String("Sacramento"), storage.String("1983"))
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, id)
	mid, err := e.Insert("MOVIE", storage.Int(910), storage.String("Lady Bird"), storage.Int(2017), storage.Int(900))
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, mid)
	if err := e.Update("DIRECTOR", id, []storage.Value{storage.Int(900), storage.String("Greta Gerwig"), storage.String("Sacramento, California"), storage.String("1983")}); err != nil {
		t.Fatal(err)
	}
	gid, err := e.Insert("GENRE", storage.Int(910), storage.String("Coming-of-age"))
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, gid)
	gid2, err := e.Insert("GENRE", storage.Int(910), storage.String("Scrapped"))
	if err != nil {
		t.Fatal(err)
	}
	deleted, err := e.Delete("GENRE", gid2)
	if err != nil {
		t.Fatal(err)
	}
	if !deleted {
		t.Fatal("delete was a no-op")
	}
	if err := e.AddSynonym("gerwig", "Greta Gerwig"); err != nil {
		t.Fatal(err)
	}
	if err := e.DefineMacro(`DEFINE SHARD_TEST as "macro survived."`); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestShardedMutationParity routes the same mutation sequence through a
// sharded coordinator and a single engine and requires identical tuple-id
// allocation and identical answers afterwards — including a lookup through
// the fanned-out synonym.
func TestShardedMutationParity(t *testing.T) {
	db1, g1, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.AnnotateNarrative(g1); err != nil {
		t.Fatal(err)
	}
	single, err := New(db1, g1)
	if err != nil {
		t.Fatal(err)
	}
	for _, partitioner := range []string{"hash", "range"} {
		t.Run(partitioner, func(t *testing.T) {
			sharded := newShardedEngine(t, 3, partitioner)
			// A fresh single engine per partitioner so both sides start from
			// the same seed state.
			db, g, err := dataset.ExampleMovies()
			if err != nil {
				t.Fatal(err)
			}
			if err := dataset.AnnotateNarrative(g); err != nil {
				t.Fatal(err)
			}
			single, err = New(db, g)
			if err != nil {
				t.Fatal(err)
			}
			for _, def := range dataset.StandardMacros() {
				if err := single.DefineMacro(def); err != nil {
					t.Fatal(err)
				}
			}
			singleIDs := shardMutationScript(t, single)
			shardedIDs := shardMutationScript(t, sharded)
			if len(singleIDs) != len(shardedIDs) {
				t.Fatalf("id count differs: %v vs %v", singleIDs, shardedIDs)
			}
			for i := range singleIDs {
				if singleIDs[i] != shardedIDs[i] {
					t.Fatalf("mutation %d allocated id %d on the single engine, %d sharded",
						i, singleIDs[i], shardedIDs[i])
				}
			}
			if single.TotalTuples() != sharded.TotalTuples() {
				t.Fatalf("tuple counts diverged: single %d, sharded %d", single.TotalTuples(), sharded.TotalTuples())
			}
			for _, q := range []string{"Greta Gerwig", "gerwig", "Woody Allen"} {
				ref, err := single.QueryString(q, Options{})
				if err != nil {
					t.Fatalf("%q: single engine: %v", q, err)
				}
				ans, err := sharded.QueryString(q, Options{})
				if err != nil {
					t.Fatalf("%q: sharded: %v", q, err)
				}
				if got, want := dumpDatabase(ans.Database), dumpDatabase(ref.Database); got != want {
					t.Fatalf("%q: post-mutation answers differ\n--- single ---\n%s\n--- sharded ---\n%s", q, want, got)
				}
				if ans.Narrative != ref.Narrative {
					t.Fatalf("%q: post-mutation narrative differs\nsingle:  %q\nsharded: %q", q, ref.Narrative, ans.Narrative)
				}
			}
		})
	}
}

// TestShardedCache: the answer cache sits on the coordinator, keyed
// exactly as on a single engine — hits are served without re-scattering,
// and any mutation invalidates.
func TestShardedCache(t *testing.T) {
	eng := newShardedEngine(t, 4, "hash")
	eng.EnableCache(CacheConfig{MaxEntries: 16})
	first, err := eng.QueryString("Woody Allen", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.FromCache {
		t.Fatal("first query served from an empty cache")
	}
	scatters := eng.ShardStats() // topology probe only; scatter count via second query below
	_ = scatters
	second, err := eng.QueryString("Woody Allen", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !second.FromCache {
		t.Fatal("repeat query missed the cache")
	}
	if got, want := dumpDatabase(second.Database), dumpDatabase(first.Database); got != want {
		t.Fatalf("cached answer differs from computed answer\n--- computed ---\n%s\n--- cached ---\n%s", want, got)
	}
	if _, err := eng.Insert("GENRE", storage.Int(902), storage.String("Noir")); err != nil {
		t.Fatal(err)
	}
	third, err := eng.QueryString("Woody Allen", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if third.FromCache {
		t.Fatal("mutation did not invalidate the sharded answer cache")
	}
}

func quietShardPersist(dir string) PersistConfig {
	return PersistConfig{
		Dir:             dir,
		Fsync:           FsyncNever,
		CheckpointBytes: -1,
		Logger:          log.New(io.Discard, "", 0),
	}
}

// TestShardedPersistence: each shard persists into its own subdirectory;
// Close + reopen restores the exact coordinator state, and reopening with
// a mismatched topology is refused rather than silently misrouting.
func TestShardedPersistence(t *testing.T) {
	dir := t.TempDir()
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.AnnotateNarrative(g); err != nil {
		t.Fatal(err)
	}
	cfg := ShardedConfig{Shards: 3, Partitioner: "range", Persist: quietShardPersist(dir)}
	eng, err := NewSharded(db, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range dataset.StandardMacros() {
		if err := eng.DefineMacro(def); err != nil {
			t.Fatal(err)
		}
	}
	shardMutationScript(t, eng)
	ref, err := eng.QueryString("gerwig", Options{})
	if err != nil {
		t.Fatal(err)
	}
	refDump := dumpDatabase(ref.Database)
	refTuples := eng.TotalTuples()
	refStats := eng.ShardStats()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// The seed database handed to the reopen is ignored: recovery rebuilds
	// every shard from its own snapshot+WAL.
	db2, g2, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.AnnotateNarrative(g2); err != nil {
		t.Fatal(err)
	}
	re, err := NewSharded(db2, g2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.TotalTuples(); got != refTuples {
		t.Fatalf("recovered %d tuples, want %d", got, refTuples)
	}
	reStats := re.ShardStats()
	for i := range refStats.ShardInfo {
		if reStats.ShardInfo[i].Tuples != refStats.ShardInfo[i].Tuples ||
			reStats.ShardInfo[i].NextTupleID != refStats.ShardInfo[i].NextTupleID {
			t.Fatalf("shard %d recovered to %d tuples/next=%d, want %d/%d", i,
				reStats.ShardInfo[i].Tuples, reStats.ShardInfo[i].NextTupleID,
				refStats.ShardInfo[i].Tuples, refStats.ShardInfo[i].NextTupleID)
		}
	}
	// The synonym and macro were fanned out to every shard's WAL, so the
	// same query (through the synonym) must reproduce the same answer.
	ans, err := re.QueryString("gerwig", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := dumpDatabase(ans.Database); got != refDump {
		t.Fatalf("recovered answer differs\n--- before ---\n%s\n--- after ---\n%s", refDump, got)
	}
	if ans.Narrative != ref.Narrative {
		t.Fatalf("recovered narrative differs\nbefore: %q\nafter:  %q", ref.Narrative, ans.Narrative)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// Topology mismatch: the manifest pins 3 range shards.
	for _, bad := range []ShardedConfig{
		{Shards: 4, Partitioner: "range", Persist: quietShardPersist(dir)},
		{Shards: 3, Partitioner: "hash", Persist: quietShardPersist(dir)},
	} {
		if _, err := NewSharded(db2, g2, bad); err == nil || !strings.Contains(err.Error(), "misroute") {
			t.Fatalf("topology mismatch %d/%s accepted (err=%v)", bad.Shards, bad.Partitioner, err)
		}
	}
}

// TestShardedCrashRecovery kills a sharded engine mid-storm — every shard
// directory abandoned without Close, WAL tails unflushed beyond what
// FsyncAlways already committed — and requires the reopened coordinator to
// match the never-crashed in-memory engine exactly.
func TestShardedCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.AnnotateNarrative(g); err != nil {
		t.Fatal(err)
	}
	cfg := ShardedConfig{Shards: 3, Partitioner: "hash", Persist: PersistConfig{
		Dir:             dir,
		Fsync:           FsyncAlways,
		CheckpointBytes: -1,
		Logger:          log.New(io.Discard, "", 0),
	}}
	eng, err := NewSharded(db, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Note: never Closed — the directories are abandoned mid-flight below.

	const goroutines = 8
	iters := chaosIters(25)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if i%3 == 0 {
					if _, err := eng.Query([]string{"Woody Allen"}, Options{SkipNarrative: true}); err != nil {
						select {
						case errs <- fmt.Errorf("worker %d: query: %w", w, err):
						default:
						}
						return
					}
					continue
				}
				name := fmt.Sprintf("Crashtest Dummy-%d-%d", w, i)
				if _, err := eng.Insert("DIRECTOR", storage.Int(int64(1000+w*100+i)), storage.String(name), storage.String("Nowhere"), storage.String("1990")); err != nil {
					select {
					case errs <- fmt.Errorf("worker %d: insert: %w", w, err):
					default:
					}
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

	// The never-crashed reference is the live engine itself: FsyncAlways
	// means everything it acknowledged is on disk.
	refTuples := eng.TotalTuples()
	refStats := eng.ShardStats()
	refAns, err := eng.Query([]string{"Crashtest"}, Options{SkipNarrative: true})
	if err != nil {
		t.Fatal(err)
	}
	refDump := dumpDatabase(refAns.Database)

	// "Crash": reopen the same directories in a second coordinator without
	// ever closing the first.
	db2, g2, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.AnnotateNarrative(g2); err != nil {
		t.Fatal(err)
	}
	re, err := NewSharded(db2, g2, cfg)
	if err != nil {
		t.Fatalf("recovery after crash: %v", err)
	}
	defer re.Close()
	if got := re.TotalTuples(); got != refTuples {
		t.Fatalf("recovered %d tuples, never-crashed engine holds %d", got, refTuples)
	}
	reStats := re.ShardStats()
	for i := range refStats.ShardInfo {
		if reStats.ShardInfo[i].Tuples != refStats.ShardInfo[i].Tuples ||
			reStats.ShardInfo[i].NextTupleID != refStats.ShardInfo[i].NextTupleID {
			t.Fatalf("shard %d recovered to %d tuples/next=%d, reference %d/%d", i,
				reStats.ShardInfo[i].Tuples, reStats.ShardInfo[i].NextTupleID,
				refStats.ShardInfo[i].Tuples, refStats.ShardInfo[i].NextTupleID)
		}
		if !reStats.ShardInfo[i].Persist.Recovery.SnapshotLoaded {
			t.Fatalf("shard %d recovery did not load its snapshot", i)
		}
	}
	ans, err := re.Query([]string{"Crashtest"}, Options{SkipNarrative: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := dumpDatabase(ans.Database); got != refDump {
		t.Fatalf("recovered answer differs from never-crashed reference\n--- reference ---\n%s\n--- recovered ---\n%s", refDump, got)
	}
	// The recovered coordinator keeps serving mutations: ids resume above
	// the reference watermark.
	id, err := re.Insert("DIRECTOR", storage.Int(2000), storage.String("Post Crash"), storage.String("X"), storage.String("2000"))
	if err != nil {
		t.Fatal(err)
	}
	if int64(id) < refStats.ShardInfo[0].NextTupleID && int64(id) < refStats.ShardInfo[1].NextTupleID {
		t.Fatalf("post-recovery insert reused id %d below the watermark", id)
	}
}

var errShardInjected = errors.New("shardchaos: injected fault")

// TestShardedChaos is the sharding chaos regression: rotating err/delay
// faults at shard.scatter, shard.gather, and shard.apply while 24
// goroutines hammer a sharded coordinator with queries and mutations.
// Every operation must either produce the deterministic answer or fail
// with a typed, injected error — never a torn answer, never a deadlock —
// and the engine must account for exactly the mutations that succeeded.
func TestShardedChaos(t *testing.T) {
	eng := newShardedEngine(t, 4, "hash")
	eng.EnableCache(CacheConfig{MaxEntries: 32})

	// Reference answers, computed before any fault is armed. The storm's
	// inserts add directors with no films, which never join into these
	// précis, so every successful storm answer must equal its reference.
	type ref struct {
		dump      string
		narrative string
	}
	queries := []string{"Woody Allen", "Match Point", "Scarlett Johansson"}
	refs := make(map[string]ref, len(queries))
	for _, q := range queries {
		ans, err := eng.QueryString(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		refs[q] = ref{dumpDatabase(ans.Database), ans.Narrative}
	}
	baseTuples := eng.TotalTuples()

	// Rotating fault plans: each phase of the storm arms a different mix
	// of scatter/gather/apply faults.
	plans := []*faultinject.Plan{
		faultinject.NewPlan().
			Set(faultinject.SiteShardScatter, faultinject.Rule{Err: errShardInjected, Every: 13}).
			Set(faultinject.SiteShardGather, faultinject.Rule{Delay: 50 * time.Microsecond, Every: 5}),
		faultinject.NewPlan().
			Set(faultinject.SiteShardGather, faultinject.Rule{Err: errShardInjected, Every: 11}).
			Set(faultinject.SiteShardScatter, faultinject.Rule{Delay: 100 * time.Microsecond, Every: 7}),
		faultinject.NewPlan().
			Set(faultinject.SiteShardApply, faultinject.Rule{Err: errShardInjected, Every: 5}).
			Set(faultinject.SiteShardScatter, faultinject.Rule{Err: errShardInjected, Every: 17, After: 3}),
	}

	const goroutines = 24
	iters := chaosIters(60)
	var inserted atomic.Int64
	var injectedSeen atomic.Int64
	var nextDID atomic.Int64
	nextDID.Store(5000) // unique primary keys across the storm

	for phase, plan := range plans {
		deactivate := faultinject.Activate(plan)
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
					if (w+i)%6 == 5 {
						// Mutation: a director with no films (invisible to the
						// reference queries).
						name := fmt.Sprintf("Chaos Extra-%d-%d-%d", phase, w, i)
						_, err := eng.Insert("DIRECTOR", storage.Int(nextDID.Add(1)), storage.String(name), storage.String("Void"), storage.String("1991"))
						if err != nil {
							if errors.Is(err, errShardInjected) {
								injectedSeen.Add(1)
								continue
							}
							fail(fmt.Errorf("phase %d worker %d: unsanctioned insert error: %w", phase, w, err))
							return
						}
						inserted.Add(1)
						continue
					}
					q := queries[(w+i)%len(queries)]
					ans, err := eng.QueryString(q, Options{Parallelism: []int{-1, 2, 4}[w%3]})
					if err != nil {
						if errors.Is(err, errShardInjected) || errors.Is(err, ErrInternal) {
							injectedSeen.Add(1)
							continue
						}
						fail(fmt.Errorf("phase %d worker %d: unsanctioned query error: %w", phase, w, err))
						return
					}
					want := refs[q]
					if got := dumpDatabase(ans.Database); got != want.dump {
						fail(fmt.Errorf("phase %d worker %d: torn answer for %q\n--- want ---\n%s\n--- got ---\n%s",
							phase, w, q, want.dump, got))
						return
					}
					if ans.Narrative != want.narrative {
						fail(fmt.Errorf("phase %d worker %d: torn narrative for %q", phase, w, q))
						return
					}
				}
			}(w)
		}
		wg.Wait()
		deactivate()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		fired := plan.Fired(faultinject.SiteShardScatter) + plan.Fired(faultinject.SiteShardGather) + plan.Fired(faultinject.SiteShardApply)
		if fired == 0 {
			t.Fatalf("phase %d: no shard fault ever fired — the storm did not exercise the sites", phase)
		}
	}
	if injectedSeen.Load() == 0 {
		t.Fatal("no operation ever observed an injected shard fault")
	}

	// Exactly the acknowledged inserts landed: nothing torn, nothing lost.
	if got, want := eng.TotalTuples(), baseTuples+int(inserted.Load()); got != want {
		t.Fatalf("after the storm the engine holds %d tuples, want %d (base %d + %d acked inserts)",
			got, want, baseTuples, inserted.Load())
	}
	// And with all faults disarmed the answers are still byte-identical.
	for _, q := range queries {
		ans, err := eng.QueryString(q, Options{})
		if err != nil {
			t.Fatalf("post-storm %q: %v", q, err)
		}
		if got := dumpDatabase(ans.Database); got != refs[q].dump {
			t.Fatalf("post-storm answer for %q differs from pre-storm reference", q)
		}
	}
}
