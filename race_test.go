package precis

// Race-hardening suite. Run with `go test -race` (scripts/ci.sh does): the
// regression test below documents and pins the fix for a latent data race
// in the seed implementation, and the stress test hammers one shared engine
// from 32 goroutines mixing queries, profile reads, cache operations, and
// database mutations — asserting that the answer cache never serves a stale
// précis after an invalidating write.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"precis/internal/profile"
	"precis/internal/storage"
)

// TestProfilesConcurrentWithAddProfile is the regression test for a latent
// data race: Engine.Profiles() used to read the profile registry's map
// without holding the engine lock, racing with AddProfile's write under
// e.mu.Lock. Before Profiles() took e.mu.RLock this test failed under
// `go test -race` (concurrent map read and map write).
func TestProfilesConcurrentWithAddProfile(t *testing.T) {
	eng := newEngine(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p := profile.Reviewer()
				p.Name = fmt.Sprintf("reviewer-%d-%d", w, i)
				if err := eng.AddProfile(p); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = eng.Profiles() // must not race with the writers above
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := len(eng.Profiles()); got != 200 {
		t.Fatalf("registered 200 profiles, Profiles() reports %d", got)
	}
}

// TestEngineStress32 runs 32 goroutines against one shared engine with the
// answer cache enabled: queriers sweeping profiles, strategies, and worker
// counts; readers polling Profiles and CacheStats; invalidators purging the
// cache; and a mutator inserting movies with unique tokens, verifying each
// is immediately findable (an insert purges the cache under the write lock,
// so no reader may ever see a pre-insert answer for its token), then
// deleting it and verifying the token stops matching.
func TestEngineStress32(t *testing.T) {
	eng := newEngine(t)
	eng.EnableCache(CacheConfig{MaxEntries: 64})
	for _, p := range []*Profile{profile.Reviewer(), profile.Fan()} {
		if err := eng.AddProfile(p); err != nil {
			t.Fatal(err)
		}
	}

	const (
		queriers     = 20
		readers      = 4
		invalidators = 4
		mutators     = 4
		iters        = 30
	)
	queries := [][]string{
		{"Woody Allen"}, {"Match Point"}, {"Comedy"}, {"Scarlett Johansson"},
	}
	profiles := []string{"", "reviewer", "fan"}
	var wg sync.WaitGroup
	errs := make(chan error, queriers+readers+invalidators+mutators)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	for w := 0; w < queriers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				opts := Options{
					Profile:       profiles[(w+i)%len(profiles)],
					Strategy:      []Strategy{StrategyAuto, StrategyNaive, StrategyRoundRobin}[i%3],
					SkipNarrative: i%2 == 0,
				}
				if _, err := eng.Query(queries[(w+i)%len(queries)], opts); err != nil {
					fail(fmt.Errorf("querier %d: %w", w, err))
					return
				}
			}
		}(w)
	}
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters*4; i++ {
				_ = eng.Profiles()
				_ = eng.CacheStats()
				_ = eng.CacheEnabled()
			}
		}()
	}
	for w := 0; w < invalidators; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				eng.InvalidateCache()
			}
		}()
	}

	// Mutators: insert a movie carrying a globally unique token, then query
	// that token through the cached path. The insert purged the cache under
	// the write lock, so the query must find the fresh tuple — a stale
	// cached ErrNoMatches would be a correctness bug, not a flake.
	var nextID atomic.Int64
	nextID.Store(10000)
	for w := 0; w < mutators; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters/3; i++ {
				mid := nextID.Add(1)
				token := fmt.Sprintf("zzstress%d", mid)
				title := "The " + strings.ToUpper(token[:1]) + token[1:] + " Affair"
				id, err := eng.Insert("MOVIE",
					storage.Int(mid), storage.String(title), storage.Int(2026), storage.Int(1))
				if err != nil {
					fail(fmt.Errorf("mutator %d insert: %w", w, err))
					return
				}
				ans, err := eng.Query([]string{token}, Options{SkipNarrative: true})
				if err != nil {
					fail(fmt.Errorf("mutator %d: fresh token %q not found after insert: %w", w, token, err))
					return
				}
				if ans.Database.TotalTuples() == 0 {
					fail(fmt.Errorf("mutator %d: empty answer for fresh token %q", w, token))
					return
				}
				if ok, err := eng.Delete("MOVIE", id); err != nil || !ok {
					fail(fmt.Errorf("mutator %d delete: ok=%v err=%v", w, ok, err))
					return
				}
				if _, err := eng.Query([]string{token}, Options{SkipNarrative: true}); !errors.Is(err, ErrNoMatches) {
					fail(fmt.Errorf("mutator %d: deleted token %q still matches (err=%v)", w, token, err))
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

	// The cache must still be coherent: a fresh query pair (miss then hit)
	// returns identical answers.
	eng.InvalidateCache()
	a1, err := eng.Query([]string{"Woody Allen"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := eng.Query([]string{"Woody Allen"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a1.Narrative != a2.Narrative {
		t.Fatalf("cache hit narrative differs from miss:\n%q\n%q", a1.Narrative, a2.Narrative)
	}
	st := eng.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("stress run recorded no cache hits: %+v", st)
	}
}
