package nlg

import (
	"sort"
	"strings"
	"testing"

	"precis/internal/core"
	"precis/internal/dataset"
	"precis/internal/invidx"
	"precis/internal/schemagraph"
	"precis/internal/sqlx"
	"precis/internal/storage"
)

// precisOf runs the pipeline for one query term: index lookup, result schema
// at degree constraint w, result database under card, strat and budget b. It
// freezes g, as an engine does, so G′ and its narration plan are memoised.
func precisOf(t testing.TB, db *storage.Database, g *schemagraph.Graph, term string, w float64,
	card core.CardinalityConstraint, strat core.Strategy, b core.Budget) (*core.ResultDatabase, []invidx.Occurrence) {
	t.Helper()
	g.Freeze()
	occs := invidx.New(db).Lookup(term)
	seeds := map[string][]storage.TupleID{}
	var seedRels []string
	for _, o := range occs {
		seeds[o.Relation] = append(seeds[o.Relation], o.TupleIDs...)
		seedRels = append(seedRels, o.Relation)
	}
	sort.Strings(seedRels)
	rs, err := core.GenerateSchema(g, seedRels, core.MinPathWeight(w))
	if err != nil {
		t.Fatal(err)
	}
	rs.CopyAnnotations(g)
	rd, err := core.GenerateDatabaseOpts(sqlx.NewEngine(db), rs, seeds, card, strat, core.DBGenOptions{Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	return rd, occs
}

// exampleMovies is the paper's example database with the narrative
// annotations attached.
func exampleMovies(t testing.TB) (*storage.Database, *schemagraph.Graph) {
	t.Helper()
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.AnnotateNarrative(g); err != nil {
		t.Fatal(err)
	}
	return db, g
}

// woodyPrecis runs the full pipeline for Q = {"Woody Allen"} and returns
// the result database plus occurrences.
func woodyPrecis(t testing.TB, perRel int) (*core.ResultDatabase, []invidx.Occurrence) {
	t.Helper()
	db, g := exampleMovies(t)
	return precisOf(t, db, g, "Woody Allen", 0.9, core.MaxTuplesPerRelation(perRel), core.StrategyAuto, core.Budget{})
}

func paperRenderer(t testing.TB) *Renderer {
	t.Helper()
	r := NewRenderer()
	for _, def := range dataset.StandardMacros() {
		if err := r.DefineMacro(def); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestPaperNarrative reproduces the §5.3 narrative for the director
// occurrence of "Woody Allen".
func TestPaperNarrative(t *testing.T) {
	rd, occs := woodyPrecis(t, 100)
	r := paperRenderer(t)
	out, err := r.Narrative(rd, occs)
	if err != nil {
		t.Fatal(err)
	}
	wantFragments := []string{
		"Woody Allen was born on December 1, 1935 in Brooklyn, New York, USA.",
		"As a director, Woody Allen's work includes Match Point (2005), Melinda and Melinda (2004), Anything Else (2003), Hollywood Ending (2002), The Curse of the Jade Scorpion (2001).",
		"Match Point is Drama, Thriller.",
		"Melinda and Melinda is Comedy, Drama.",
		"Anything Else is Comedy, Romance.",
		// The actor occurrence produces its own paragraph (§5.3: one part
		// per token occurrence).
		"As an actor, Woody Allen's work includes",
	}
	for _, frag := range wantFragments {
		if !strings.Contains(out, frag) {
			t.Errorf("narrative missing %q\n--- got ---\n%s", frag, out)
		}
	}
	// Two occurrences => two paragraphs.
	if got := len(strings.Split(out, "\n\n")); got != 2 {
		t.Errorf("paragraphs = %d, want 2\n%s", got, out)
	}
	// The actor's credits are the §1 ones.
	if !strings.Contains(out, "Hollywood Ending (2002)") ||
		!strings.Contains(out, "The Curse of the Jade Scorpion (2001)") {
		t.Errorf("actor credits missing:\n%s", out)
	}
}

func TestNarrativeRespectsCardinalityCut(t *testing.T) {
	rd, occs := woodyPrecis(t, 2)
	r := paperRenderer(t)
	out, err := r.Narrative(rd, occs)
	if err != nil {
		t.Fatal(err)
	}
	// With <= 2 movies per relation the list is shorter but well-formed.
	if !strings.Contains(out, "work includes") {
		t.Errorf("narrative lost the work list:\n%s", out)
	}
}

func TestNarrativeDefaultTemplates(t *testing.T) {
	// Without annotations, the renderer falls back to generic clauses.
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	ix := invidx.New(db)
	occs := ix.Lookup("Match Point")
	if len(occs) != 1 || occs[0].Relation != "MOVIE" {
		t.Fatalf("occs = %+v", occs)
	}
	rs, err := core.GenerateSchema(g, []string{"MOVIE"}, core.MinPathWeight(0.7))
	if err != nil {
		t.Fatal(err)
	}
	rs.CopyAnnotations(g)
	seeds := map[string][]storage.TupleID{"MOVIE": occs[0].TupleIDs}
	rd, err := core.GenerateDatabase(sqlx.NewEngine(db), rs, seeds,
		core.MaxTuplesPerRelation(10), core.StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	out, err := NewRenderer().Narrative(rd, occs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Match Point") {
		t.Errorf("default narrative missing the heading value:\n%s", out)
	}
	// The default join clause names the joined relation.
	if !strings.Contains(strings.ToLower(out), "genre") {
		t.Errorf("default narrative missing genre clause:\n%s", out)
	}
}

func TestNarrativeMovieSeed(t *testing.T) {
	// Query a movie: MOVIE -> GENRE and MOVIE -> DIRECTOR clauses render
	// with the annotated labels.
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.AnnotateNarrative(g); err != nil {
		t.Fatal(err)
	}
	ix := invidx.New(db)
	occs := ix.Lookup("Match Point")
	rs, err := core.GenerateSchema(g, []string{"MOVIE"}, core.MinPathWeight(0.7))
	if err != nil {
		t.Fatal(err)
	}
	rs.CopyAnnotations(g)
	seeds := map[string][]storage.TupleID{"MOVIE": occs[0].TupleIDs}
	rd, err := core.GenerateDatabase(sqlx.NewEngine(db), rs, seeds,
		core.MaxTuplesPerRelation(10), core.StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	r := paperRenderer(t)
	out, err := r.Narrative(rd, occs)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"Match Point (2005).",
		"Match Point is Drama, Thriller.",
		"Match Point was directed by Woody Allen.",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("missing %q in:\n%s", frag, out)
		}
	}
}

func TestNarrativeClauseCap(t *testing.T) {
	rd, occs := woodyPrecis(t, 100)
	r := paperRenderer(t)
	r.MaxClauses = 2
	out, err := r.Narrative(rd, occs)
	if err != nil {
		t.Fatal(err)
	}
	for _, para := range strings.Split(out, "\n\n") {
		// Clauses are separated by single spaces after sentence periods;
		// count rendered clauses approximately by the annotated patterns.
		n := strings.Count(para, "work includes") + strings.Count(para, "was born") +
			strings.Count(para, " is ") + strings.Count(para, "directed by")
		if n > 2 {
			t.Errorf("paragraph exceeds clause cap (%d):\n%s", n, para)
		}
	}
}

func TestNarrativeEmptyResult(t *testing.T) {
	rd, occs := woodyPrecis(t, 100)
	out, err := paperRenderer(t).Narrative(rd, []invidx.Occurrence{})
	if err != nil || out != "" {
		t.Errorf("empty occurrences: %q, %v", out, err)
	}
	// Occurrence pointing at a tuple the cardinality cut: skipped quietly.
	ghost := []invidx.Occurrence{{Relation: "MOVIE", Attribute: "title", TupleIDs: []storage.TupleID{99999}}}
	out, err = paperRenderer(t).Narrative(rd, ghost)
	if err != nil || out != "" {
		t.Errorf("ghost occurrence: %q, %v", out, err)
	}
	_ = occs
}

// TestNarrativeTellsEachTupleOnce: a tuple reached by several occurrences
// (two query terms, or two attributes of the tuple) gets one paragraph, at
// its first position.
func TestNarrativeTellsEachTupleOnce(t *testing.T) {
	rd, occs := woodyPrecis(t, 100)
	r := paperRenderer(t)
	want, err := r.Narrative(rd, occs)
	if err != nil {
		t.Fatal(err)
	}
	twice := append(append([]invidx.Occurrence{}, occs...), occs...)
	got, err := r.Narrative(rd, twice)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("repeated occurrences changed the narrative\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// woodyPrecisBudget runs the pipeline under a resource budget so the
// result database arrives truncated.
func woodyPrecisBudget(t testing.TB, strat core.Strategy, b core.Budget) (*core.ResultDatabase, []invidx.Occurrence) {
	t.Helper()
	db, g := exampleMovies(t)
	return precisOf(t, db, g, "Woody Allen", 0.9, core.Unlimited(), strat, b)
}

// TestNarrativePartialGolden pins the exact narrative rendered from a
// budget-truncated answer for both retrieval strategies: the paragraphs
// stay well-formed (the generator trimmed dangling FK edges, so no clause
// references a cut tuple), and the truncation note is the final paragraph.
func TestNarrativePartialGolden(t *testing.T) {
	// Both strategies truncate at the same canonical prefix under this
	// budget — deliberate: for the example database the seed set plus the
	// first director joins fill the budget before the strategies diverge.
	const golden = "Woody Allen.\n\n" +
		"Woody Allen was born on December 1, 1935 in Brooklyn, New York, USA. " +
		"As a director, Woody Allen's work includes Match Point (2005), Melinda and Melinda (2004).\n\n" +
		"(This answer was truncated: the tuple budget ran out; some related information is omitted.)"
	for _, tc := range []struct {
		strat core.Strategy
		b     core.Budget
		want  string
	}{
		{
			strat: core.StrategyNaive,
			b:     core.Budget{MaxTuples: 7},
			want:  golden,
		},
		{
			strat: core.StrategyRoundRobin,
			b:     core.Budget{MaxTuples: 7},
			want:  golden,
		},
	} {
		t.Run(tc.strat.String(), func(t *testing.T) {
			rd, occs := woodyPrecisBudget(t, tc.strat, tc.b)
			if !rd.Partial() {
				t.Fatalf("budget %+v did not truncate", tc.b)
			}
			r := paperRenderer(t)
			out, err := r.Narrative(rd, occs)
			if err != nil {
				t.Fatal(err)
			}
			if out != tc.want {
				t.Errorf("narrative mismatch\n--- got ---\n%s\n--- want ---\n%s", out, tc.want)
			}
			if !strings.HasSuffix(out, "(This answer was truncated: the tuple budget ran out; some related information is omitted.)") {
				t.Errorf("truncation note not final paragraph:\n%s", out)
			}
		})
	}
}
