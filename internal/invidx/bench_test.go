package invidx

import (
	"runtime"
	"testing"

	"precis/internal/dataset"
)

func benchIndex(b *testing.B) *Index {
	b.Helper()
	cfg := dataset.DefaultSyntheticConfig()
	cfg.Films = 1000
	db, err := dataset.SyntheticMovies(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return New(db)
}

func BenchmarkLookupSingleToken(b *testing.B) {
	ix := benchIndex(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if occs := ix.Lookup("drama"); len(occs) == 0 {
			b.Fatal("no occurrences")
		}
	}
}

func BenchmarkLookupPhrase(b *testing.B) {
	ix := benchIndex(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Lookup("Night City")
	}
}

// BenchmarkTokenize measures the single tokenizer shared by indexing and
// querying. It is on the hot path of index construction (every string
// attribute of every tuple) and of every query (terms + cache keys), so its
// allocation profile matters. Inputs span the common shapes: short mixed-case
// names, already-lowercase queries, and longer punctuated prose.
//
// Before the preallocated-slice + reusable-buffer rewrite (strings.Builder
// per token, append-grown output slice) this reported, on the author
// machine:
//
//	mixed-case-name     4 allocs/op    64 B/op   ~224 ns/op
//	lowercase-query     6 allocs/op   136 B/op   ~306 ns/op
//	punctuated-prose   20 allocs/op   624 B/op  ~1891 ns/op
//
// After: already-lowercase tokens are zero-copy substrings of the input,
// the output slice is sized by a counting pre-pass, and case folding goes
// through one stack-backed buffer:
//
//	mixed-case-name     3 allocs/op    42 B/op   ~199 ns/op
//	lowercase-query     1 allocs/op    48 B/op   ~234 ns/op
//	punctuated-prose    8 allocs/op   272 B/op  ~1173 ns/op
func BenchmarkTokenize(b *testing.B) {
	inputs := []struct{ name, s string }{
		{"mixed-case-name", "Woody Allen"},
		{"lowercase-query", "comedy drama 1977"},
		{"punctuated-prose", "The Purple Rose of Cairo (1985), directed by Woody Allen — a Depression-era fantasy."},
	}
	for _, in := range inputs {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if toks := Tokenize(in.s); len(toks) == 0 {
					b.Fatal("no tokens")
				}
			}
		})
	}
}

// BenchmarkEngineBuild builds what an engine keeps resident — the synthetic
// database with its hash indexes, and the inverted index over it — and
// reports the live heap it costs per tuple (B/tuple), the number
// TestLiveBytesPerTuple budgets and `storage.bytes_per_tuple` reports at
// paper scale.
func BenchmarkEngineBuild(b *testing.B) {
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	b.ReportAllocs()
	var perTuple float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := heap()
		b.StartTimer()
		db, err := dataset.SyntheticMovies(dataset.DefaultSyntheticConfig())
		if err != nil {
			b.Fatal(err)
		}
		ix := New(db)
		b.StopTimer()
		perTuple = float64(heap()-before) / float64(db.TotalTuples())
		runtime.KeepAlive(ix)
		b.StartTimer()
	}
	b.ReportMetric(perTuple, "B/tuple")
}
