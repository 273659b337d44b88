package precis

import (
	"context"
	"errors"
	"testing"

	"precis/internal/dataset"
)

// fuzzDegree maps two fuzzed bytes onto a degree constraint of Table 1, or
// none (the engine's default).
func fuzzDegree(kind, n uint8) DegreeConstraint {
	switch kind % 5 {
	case 0:
		return MinPathWeight(float64(n) / 255)
	case 1:
		return TopProjections(int(n % 16))
	case 2:
		return MaxAttributes(int(n % 16))
	case 3:
		return MaxPathLength(int(n % 6))
	default:
		return nil
	}
}

// fuzzCardinality maps two fuzzed bytes onto a cardinality constraint of
// Table 2, or none.
func fuzzCardinality(kind, n uint8) CardinalityConstraint {
	switch kind % 4 {
	case 0:
		return MaxTuplesPerRelation(int(n % 64))
	case 1:
		return MaxTotalTuples(int(n))
	case 2:
		return Unlimited()
	default:
		return nil
	}
}

// FuzzQuery runs arbitrary query strings under fuzzed degree and cardinality
// constraints and strategy through the whole pipeline on a small synthetic
// engine. Whatever the input: nothing panics (a recovered panic is
// ErrInternal), every answer is a sub-database of the base, no answer is
// Partial (no budget is set), and a second run gives the same result
// database, tuple for tuple, and the same narrative — or the same error. The
// last argument once chose a worker-pool size; it is kept, unread, so the
// checked-in corpus still decodes.
func FuzzQuery(f *testing.F) {
	cfg := dataset.DefaultSyntheticConfig()
	cfg.Films, cfg.Directors, cfg.Actors, cfg.Theatres = 120, 20, 150, 6
	db, err := dataset.SyntheticMovies(cfg)
	if err != nil {
		f.Fatal(err)
	}
	g, err := dataset.PaperGraph(db)
	if err != nil {
		f.Fatal(err)
	}
	if err := dataset.AnnotateNarrative(g); err != nil {
		f.Fatal(err)
	}
	eng, err := New(db, g)
	if err != nil {
		f.Fatal(err)
	}
	for _, def := range dataset.StandardMacros() {
		if err := eng.DefineMacro(def); err != nil {
			f.Fatal(err)
		}
	}
	eng.DisableCache() // every run must compute its own answer
	f.Add(`"`+mostProlificDirector(db)+`"`, uint8(0), uint8(25), uint8(0), uint8(3), uint8(1), uint8(3))

	f.Fuzz(func(t *testing.T, q string, degKind, degN, cardKind, cardN, strat, _ uint8) {
		opts := Options{
			Degree:      fuzzDegree(degKind, degN),
			Cardinality: fuzzCardinality(cardKind, cardN),
			Strategy:    []Strategy{StrategyAuto, StrategyNaive, StrategyRoundRobin}[strat%3],
		}
		var refDump, refNarrative, refErr string
		for i := 0; i < 2; i++ {
			ans, err := eng.QueryStringContext(context.Background(), q, opts)
			var dump, narrative, errText string
			if err != nil {
				if errors.Is(err, ErrInternal) {
					t.Fatalf("run %d: %v", i, err)
				}
				errText = err.Error()
			} else {
				checkAnswer(t, eng, q, opts, ans)
				if ans.Partial {
					t.Fatalf("run %d: unbudgeted answer marked partial (%q)", i, ans.Truncation)
				}
				dump, narrative = dumpDatabase(ans.Database), ans.Narrative
			}
			if i == 0 {
				refDump, refNarrative, refErr = dump, narrative, errText
				continue
			}
			if errText != refErr || dump != refDump || narrative != refNarrative {
				t.Fatalf("second run differs from the first:\nerror %q vs %q\nnarrative %q vs %q\n--- tuples ---\n%s\n--- vs ---\n%s",
					errText, refErr, narrative, refNarrative, dump, refDump)
			}
		}
	})
}
