package precis

// Engine-level answer cache tests: fingerprint separation (queries that
// differ in any constraint must not share an entry), invalidation on every
// mutation class, and the cache-bypass rules.

import (
	"errors"
	"testing"
	"time"

	"precis/internal/storage"
)

func newCachedEngine(t *testing.T) *Engine {
	t.Helper()
	eng := newEngine(t)
	eng.EnableCache(CacheConfig{MaxEntries: 32})
	return eng
}

func TestCacheHitReturnsSameAnswer(t *testing.T) {
	eng := newCachedEngine(t)
	opts := Options{Degree: MinPathWeight(0.9), Cardinality: MaxTuplesPerRelation(3)}
	a1, err := eng.Query([]string{"Woody Allen"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := eng.Query([]string{"Woody Allen"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
	if a1.Narrative != a2.Narrative || a1.Database != a2.Database {
		t.Fatal("cache hit returned a different answer")
	}
	if a1 == a2 {
		t.Fatal("cache handed out the same Answer header to both callers")
	}
}

// TestCacheFingerprintSeparation issues query variants that differ in
// exactly one input each; every variant must be a distinct cache entry. A
// fingerprint collision here would silently serve one configuration's
// précis for another.
func TestCacheFingerprintSeparation(t *testing.T) {
	eng := newCachedEngine(t)
	terms := []string{"Woody Allen"}
	variants := []Options{
		{},
		{Cardinality: MaxTuplesPerRelation(1)},
		{Cardinality: MaxTuplesPerRelation(2)},
		{Cardinality: MaxTotalTuples(2)},
		{Degree: MinPathWeight(0.95)},
		{Degree: MaxAttributes(3)},
		{Strategy: StrategyNaive},
		{Strategy: StrategyRoundRobin},
		{WeightOverlay: map[string]float64{"MOVIE.title": 0.5}},
		{WeightOverlay: map[string]float64{"MOVIE.title": 0.7}},
		{SkipNarrative: true},
	}
	for i, opts := range variants {
		if _, err := eng.Query(terms, opts); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
	}
	st := eng.CacheStats()
	if st.Misses != uint64(len(variants)) || st.Hits != 0 {
		t.Fatalf("first pass: hits=%d misses=%d entries=%d, want 0/%d",
			st.Hits, st.Misses, st.Entries, len(variants))
	}
	if st.Entries != len(variants) {
		t.Fatalf("fingerprint collision: %d variants share %d entries", len(variants), st.Entries)
	}
	// Second pass: all hits, answers must match the variant's semantics.
	for i, opts := range variants {
		ans, err := eng.Query(terms, opts)
		if err != nil {
			t.Fatalf("variant %d second pass: %v", i, err)
		}
		if opts.SkipNarrative && ans.Narrative != "" {
			t.Fatalf("variant %d: cached answer has a narrative despite SkipNarrative", i)
		}
	}
	st = eng.CacheStats()
	if st.Hits != uint64(len(variants)) {
		t.Fatalf("second pass: hits=%d, want %d", st.Hits, len(variants))
	}
}

// TestCacheKeyNormalization pins the key function: term order matters,
// tokenization folds case, and identical inputs agree.
func TestCacheKeyNormalization(t *testing.T) {
	k1, ok1 := cacheKey([]string{"Woody Allen"}, Options{})
	k2, ok2 := cacheKey([]string{"woody ALLEN"}, Options{})
	if !ok1 || !ok2 || k1 != k2 {
		t.Fatalf("case folding broken: %q vs %q", k1, k2)
	}
	k3, _ := cacheKey([]string{"woody", "allen"}, Options{})
	k4, _ := cacheKey([]string{"allen", "woody"}, Options{})
	if k3 == k4 {
		t.Fatal("term order must be part of the key (occurrence maps differ)")
	}
	if _, ok := cacheKey([]string{"x"}, Options{TupleWeights: TupleWeights{}}); ok {
		t.Fatal("per-call tuple weights must bypass the cache")
	}
	k5, _ := cacheKey([]string{"x"}, Options{Profile: "reviewer"})
	k6, _ := cacheKey([]string{"x"}, Options{Profile: "fan"})
	if k5 == k6 {
		t.Fatal("profile must be part of the key")
	}
}

// TestCacheInvalidationOnMutation verifies every mutation class purges the
// cache, so post-mutation queries always recompute.
func TestCacheInvalidationOnMutation(t *testing.T) {
	eng := newCachedEngine(t)
	warm := func() {
		t.Helper()
		if _, err := eng.Query([]string{"Woody Allen"}, Options{SkipNarrative: true}); err != nil {
			t.Fatal(err)
		}
		if eng.CacheStats().Entries == 0 {
			t.Fatal("warm query did not populate the cache")
		}
	}

	warm()
	id, err := eng.Insert("MOVIE",
		storage.Int(9001), storage.String("Cache Buster"), storage.Int(2026), storage.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.CacheStats().Entries; n != 0 {
		t.Fatalf("Insert left %d cache entries", n)
	}

	warm()
	if err := eng.Update("MOVIE", id, []storage.Value{
		storage.Int(9001), storage.String("Cache Buster II"), storage.Int(2026), storage.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if n := eng.CacheStats().Entries; n != 0 {
		t.Fatalf("Update left %d cache entries", n)
	}

	warm()
	if ok, err := eng.Delete("MOVIE", id); err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	if n := eng.CacheStats().Entries; n != 0 {
		t.Fatalf("Delete left %d cache entries", n)
	}

	warm()
	eng.SetTupleWeights(TupleWeights{"MOVIE": {1: 2.0}})
	if n := eng.CacheStats().Entries; n != 0 {
		t.Fatalf("SetTupleWeights left %d cache entries", n)
	}

	warm()
	eng.AddSynonym("woodrow", "woody")
	if n := eng.CacheStats().Entries; n != 0 {
		t.Fatalf("AddSynonym left %d cache entries", n)
	}

	warm()
	eng.InvalidateCache()
	st := eng.CacheStats()
	if st.Entries != 0 || st.Invalidations == 0 {
		t.Fatalf("InvalidateCache: %+v", st)
	}
}

// TestCacheMacroDefinition: a write the engine refuses changes nothing, so it
// must leave the cache alone — a macro definition the renderer rejects (the
// case this test began with), a duplicate or unnamed profile, a tuple change
// the storage layer refuses (unknown relation, arity, type or key violation,
// absent id). The accepted twin of each purges it. On the single engine and
// on a coordinator.
func TestCacheMacroDefinition(t *testing.T) {
	sharded := newShardedEngine(t, 3, "hash")
	sharded.EnableCache(CacheConfig{MaxEntries: 32})
	const absent = storage.TupleID(1 << 40)
	director := []storage.Value{storage.Int(777), storage.String("Cache Tester"), storage.String("Nowhere"), storage.String("1970")}
	for name, eng := range map[string]*Engine{"single": newCachedEngine(t), "sharded": sharded} {
		t.Run(name, func(t *testing.T) {
			if err := eng.AddProfile(&Profile{Name: "taken"}); err != nil {
				t.Fatal(err)
			}
			var inserted storage.TupleID
			steps := []struct {
				name   string
				reject bool
				run    func() error
			}{
				{"DEFINE (malformed)", true, func() error { return eng.DefineMacro(`DEFINE BROKEN as [i<arityOf(@TITLE)`) }},
				{"DEFINE", false, func() error { return eng.DefineMacro(`DEFINE FINE as "fine."`) }},
				{"AddProfile (duplicate)", true, func() error { return eng.AddProfile(&Profile{Name: "taken"}) }},
				{"AddProfile (unnamed)", true, func() error { return eng.AddProfile(&Profile{}) }},
				{"AddProfile", false, func() error { return eng.AddProfile(&Profile{Name: "fresh"}) }},
				{"Insert (unknown relation)", true, func() error { _, err := eng.Insert("NOPE", storage.Int(1)); return err }},
				{"Insert (arity)", true, func() error { _, err := eng.Insert("DIRECTOR", storage.Int(777)); return err }},
				{"Insert (type)", true, func() error {
					_, err := eng.Insert("DIRECTOR", storage.String("x"), storage.String("x"), storage.String("x"), storage.String("x"))
					return err
				}},
				{"Insert", false, func() (err error) { inserted, err = eng.Insert("DIRECTOR", director...); return err }},
				{"Insert (duplicate key)", true, func() error {
					if name == "sharded" {
						return errNoSuchTuple // keys are only unique within a shard: not refused there
					}
					_, err := eng.Insert("DIRECTOR", director...)
					return err
				}},
				{"Update (unknown relation)", true, func() error { return eng.Update("NOPE", inserted, director) }},
				{"Update (absent id)", true, func() error { return eng.Update("DIRECTOR", absent, director) }},
				{"Update (arity)", true, func() error { return eng.Update("DIRECTOR", inserted, director[:2]) }},
				{"Update", false, func() error { return eng.Update("DIRECTOR", inserted, director) }},
				{"Delete (unknown relation)", true, func() error { _, err := eng.Delete("NOPE", inserted); return err }},
				{"Delete (absent id)", true, func() error {
					if ok, err := eng.Delete("DIRECTOR", absent); ok || err != nil {
						return nil // wrong: reported below as "accepted"
					}
					return errNoSuchTuple
				}},
				{"Delete", false, func() error { _, err := eng.Delete("DIRECTOR", inserted); return err }},
			}
			for _, step := range steps {
				if _, err := eng.Query([]string{"Woody Allen"}, Options{}); err != nil {
					t.Fatal(err)
				}
				before := eng.CacheStats()
				if before.Entries == 0 {
					t.Fatal("warm query did not populate the cache")
				}
				err := step.run()
				after := eng.CacheStats()
				switch {
				case step.reject && err == nil:
					t.Fatalf("%s: accepted", step.name)
				case step.reject && (after.Entries != before.Entries || after.Invalidations != before.Invalidations):
					t.Fatalf("%s: rejected (%v) but touched the cache: %+v -> %+v", step.name, err, before, after)
				case !step.reject && err != nil:
					t.Fatalf("%s: %v", step.name, err)
				case !step.reject && after.Entries != 0:
					t.Fatalf("%s: accepted but left %d cache entries", step.name, after.Entries)
				}
			}
		})
	}
}

// errNoSuchTuple stands for Delete's (false, nil) — "no such tuple", which
// is not an error — in TestCacheMacroDefinition's reject-or-accept table (and
// for a step that does not apply to an engine).
var errNoSuchTuple = errors.New("no such tuple")

func TestCacheDisableAndTTL(t *testing.T) {
	eng := newEngine(t)
	if eng.CacheEnabled() {
		t.Fatal("cache enabled by default")
	}
	// Queries work with the cache off and stats read as zero.
	if _, err := eng.Query([]string{"Woody Allen"}, Options{SkipNarrative: true}); err != nil {
		t.Fatal(err)
	}
	if st := eng.CacheStats(); st != (CacheStats{}) {
		t.Fatalf("disabled cache has stats %+v", st)
	}
	eng.EnableCache(CacheConfig{MaxEntries: 8, TTL: time.Minute})
	if !eng.CacheEnabled() {
		t.Fatal("cache not enabled")
	}
	if _, err := eng.Query([]string{"Woody Allen"}, Options{SkipNarrative: true}); err != nil {
		t.Fatal(err)
	}
	if eng.CacheStats().Entries != 1 {
		t.Fatalf("entries = %d", eng.CacheStats().Entries)
	}
	eng.DisableCache()
	if eng.CacheEnabled() {
		t.Fatal("cache still enabled after DisableCache")
	}
}

// TestCacheTupleWeightsBypass verifies a per-call weighted query neither
// reads nor writes the cache.
func TestCacheTupleWeightsBypass(t *testing.T) {
	eng := newCachedEngine(t)
	opts := Options{SkipNarrative: true, TupleWeights: TupleWeights{"MOVIE": {3: 5.0}}}
	for i := 0; i < 2; i++ {
		if _, err := eng.Query([]string{"Woody Allen"}, opts); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.CacheStats()
	if st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("weighted query touched the cache: %+v", st)
	}
}
