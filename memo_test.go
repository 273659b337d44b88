package precis

// What depends only on the schema is computed once (core.GenerateSchema on a
// frozen graph, D′'s layout, the join order and the narration plan on a frozen
// G′): these tests hold a warm engine to a cold one, answer for answer, on
// every engine shape, and the memo to its staleness rules and its bound.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"precis/internal/core"
	"precis/internal/dataset"
	"precis/internal/faultinject"
	"precis/internal/invidx"
	"precis/internal/obs"
	"precis/internal/schemagraph"
	"precis/internal/storage"
)

// schemaDump renders everything a G′ says: its graph with every annotation,
// the seeds, the accepted paths in order, the in-degrees and the join order.
func schemaDump(t *testing.T, rs *core.ResultSchema) string {
	t.Helper()
	var sb strings.Builder
	if err := rs.Graph.SaveJSON(&sb); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&sb, "seeds %v\n", rs.Seeds)
	for _, p := range rs.Paths {
		fmt.Fprintf(&sb, "path %s\n", p)
	}
	for _, rel := range rs.Relations() {
		fmt.Fprintf(&sb, "in-degree %s seed=%d join=%d\n", rel, rs.SeedInDegree(rel), rs.JoinInDegree(rel))
	}
	for _, e := range rs.JoinEdgesByWeight() {
		fmt.Fprintf(&sb, "join %s\n", e.Key())
	}
	return sb.String()
}

// answerDump is G′, D′ (tuples, foreign keys) and the narrative of an answer.
func answerDump(t *testing.T, ans *Answer) string {
	t.Helper()
	return schemaDump(t, ans.Schema) + dumpDatabase(ans.Database) +
		fmt.Sprintf("fks %v\nstats %+v\nnarrative %s", ans.Database.ForeignKeys(), ans.Stats, ans.Narrative)
}

// memoDegrees is every constraint kind, made anew per query: MaxAttributes
// carries per-run state and says not to be shared.
var memoDegrees = map[string]func() DegreeConstraint{
	"default":        func() DegreeConstraint { return nil },
	"MinPathWeight":  func() DegreeConstraint { return MinPathWeight(0.1) },
	"TopProjections": func() DegreeConstraint { return TopProjections(6) },
	"MaxAttributes":  func() DegreeConstraint { return MaxAttributes(5) },
	"MaxPathLength":  func() DegreeConstraint { return MaxPathLength(2) },
	"AllDegree":      func() DegreeConstraint { return AllDegree(MinPathWeight(0.3), MaxAttributes(8)) },
}

// assertWarmEqualsCold answers every constraint kind under both strategies
// twice on warm — the second answer comes off the memo: same G′ object — and
// once on an engine cold() builds over a Clone of the graph, and requires G′,
// D′ and the narrative to be identical.
func assertWarmEqualsCold(t *testing.T, warm *Engine, cold func() *Engine, terms []string, narrative bool) {
	t.Helper()
	for name, degree := range memoDegrees {
		for _, strat := range []Strategy{StrategyNaive, StrategyRoundRobin} {
			opts := func() Options {
				return Options{Degree: degree(), Cardinality: MaxTuplesPerRelation(20), Strategy: strat, SkipNarrative: !narrative}
			}
			first, err := warm.Query(terms, opts())
			if err != nil {
				t.Fatalf("%s/%s: %v", name, strat, err)
			}
			second, err := warm.Query(terms, opts())
			if err != nil {
				t.Fatalf("%s/%s: %v", name, strat, err)
			}
			if second.Schema != first.Schema {
				t.Fatalf("%s/%s: the second answer has a G′ of its own: the memo missed", name, strat)
			}
			fresh, err := cold().Query(terms, opts())
			if err != nil {
				t.Fatalf("%s/%s on the cold engine: %v", name, strat, err)
			}
			if fresh.Schema == second.Schema {
				t.Fatalf("%s/%s: the cold engine shares the warm one's G′", name, strat)
			}
			if want, got := answerDump(t, fresh), answerDump(t, second); got != want {
				t.Fatalf("%s/%s: warm answer differs from cold\n--- cold ---\n%s\n--- warm ---\n%s", name, strat, want, got)
			}
			if narrative {
				for i, ans := range []*Answer{first, second} {
					if cold := narrateUnfrozen(t, warm, ans); ans.Narrative != cold {
						t.Fatalf("%s/%s: narration %d of the frozen G′ differs from its unfrozen clone's\n--- clone ---\n%s\n--- frozen ---\n%s", name, strat, i+1, cold, ans.Narrative)
					}
				}
			}
		}
	}
}

// answerOccurrences are the occurrences an answer's narrative was told from.
func answerOccurrences(ans *Answer) []invidx.Occurrence {
	var occs []invidx.Occurrence
	for _, term := range ans.Terms {
		occs = append(occs, ans.Occurrences[term]...)
	}
	return occs
}

// narrateUnfrozen narrates ans's D′ with e's renderer under an unfrozen
// Clone() of its G′, which compiles a narration plan of its own per call.
func narrateUnfrozen(t *testing.T, e *Engine, ans *Answer) string {
	t.Helper()
	rd := *ans.Result
	rd.Schema = &core.ResultSchema{Graph: ans.Schema.Graph.Clone()}
	out, err := e.renderer.Narrative(&rd, answerOccurrences(ans))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMemoNarrationPlanConcurrentFirstUse: eight goroutines narrate one
// answer at once, so that the first use of its G′'s narration plan — compiled
// and kept on G′ — overlaps with the others' hits. Every narrative equals the
// unfrozen clone's. Under -race this is the test of nothing writing a shared
// plan.
func TestMemoNarrationPlanConcurrentFirstUse(t *testing.T) {
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	for round := 0; round < rounds; round++ {
		eng := newEngine(t)
		ans, err := eng.QueryString("Woody Allen", Options{Degree: MinPathWeight(0.3), SkipNarrative: true})
		if err != nil {
			t.Fatal(err)
		}
		want := narrateUnfrozen(t, eng, ans)
		_, _, before := ans.Schema.Graph.MemoStats()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 4; i++ {
					if got, err := eng.renderer.Narrative(ans.Result, answerOccurrences(ans)); err != nil || got != want {
						t.Errorf("goroutine %d: %v\n%s", g, err, got)
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		if _, _, after := ans.Schema.Graph.MemoStats(); after != before+1 {
			t.Fatalf("G′ keeps %d derived values after its narrations, %d before: want one more, the plan", after, before)
		}
	}
}

// TestMemoNarrationPlanUsesMacrosAsDefined: macros are not part of the plan.
// A macro redefined between two queries of one G′ is the one the second
// narrative renders.
func TestMemoNarrationPlanUsesMacrosAsDefined(t *testing.T) {
	eng := newEngine(t)
	first, err := eng.QueryString("Woody Allen", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.DefineMacro(`DEFINE MOVIE_LIST as [i<arityOf(@TITLE)] {@TITLE[$i$] + " / "} [i=arityOf(@TITLE)] {@TITLE[$i$] + "!"}`); err != nil {
		t.Fatal(err)
	}
	second, err := eng.QueryString("Woody Allen", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if second.Schema != first.Schema {
		t.Fatal("the second query has a G′ of its own: the plan is not shared")
	}
	const old, redefined = "work includes Match Point (2005), Melinda", "work includes Match Point / Melinda"
	if !strings.Contains(first.Narrative, old) || !strings.Contains(second.Narrative, redefined) || strings.Contains(second.Narrative, old) {
		t.Fatalf("the redefined macro is not the one rendered\n--- before ---\n%s\n--- after ---\n%s", first.Narrative, second.Narrative)
	}
}

// TestMemoNarrationPlanKeepsLabelErrorsToTheirClause: a label that does not
// parse is compiled into the plan as its error. It fails the answers whose
// walk reaches its clause, with the error the walk always reported, and no
// other answer of the same G′ — before or after one that failed.
func TestMemoNarrationPlanKeepsLabelErrorsToTheirClause(t *testing.T) {
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.AnnotateNarrative(g); err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Relation("PLAY").Out() {
		if e.To == "THEATRE" {
			e.Label = `@TITLE + " plays at " + THEATRE_LIST + "`
		}
	}
	eng, err := New(db, g)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, def := range dataset.StandardMacros() {
		if err := eng.DefineMacro(def); err != nil {
			t.Fatal(err)
		}
	}
	opts := Options{Degree: MinPathWeight(0.5)}
	// Anything Else plays nowhere; Match Point does, and its walk reaches
	// PLAY->THEATRE through the PLAY junction.
	quiet, err := eng.QueryString(`"Anything Else"`, opts)
	if err != nil || !strings.Contains(quiet.Narrative, "Anything Else (2003).") {
		t.Fatalf("an answer that never reaches the label failed: %v\n%v", err, quiet)
	}
	_, err = eng.QueryString(`"Match Point"`, opts)
	if err == nil || !strings.Contains(err.Error(), "nlg: label of PLAY->THEATRE(tid=tid): nlg: unterminated string literal") {
		t.Fatalf("an answer that reaches the label: %v", err)
	}
	again, err := eng.QueryString(`"Anything Else"`, opts)
	if err != nil || again.Narrative != quiet.Narrative || again.Schema != quiet.Schema {
		t.Fatalf("after the failure: %v\n%s", err, again.Narrative)
	}
	opts.SkipNarrative = true
	if loud, err := eng.QueryString(`"Match Point"`, opts); err != nil || loud.Schema != quiet.Schema {
		t.Fatalf("the two answers do not share one G′ and its plan: %v", err)
	}
}

// TestMemoWarmEqualsCold is the differential test of the memo over the
// determinism suite's datasets, on a single engine and on three shards.
func TestMemoWarmEqualsCold(t *testing.T) {
	for _, w := range determinismWorkloads(t) {
		db, g, err := w.build()
		if err != nil {
			t.Fatal(err)
		}
		terms := w.terms
		if terms == nil {
			terms = []string{mostProlificDirector(db)}
		}
		shapes := map[string]func(g *schemagraph.Graph) (*Engine, error){
			"single": func(g *schemagraph.Graph) (*Engine, error) { return New(db, g) },
			"sharded": func(g *schemagraph.Graph) (*Engine, error) {
				return NewSharded(db, g, ShardedConfig{Shards: 3, Partitioner: "hash"})
			},
		}
		for shape, build := range shapes {
			t.Run(w.name+"/"+shape, func(t *testing.T) {
				open := func(g *schemagraph.Graph) *Engine {
					eng, err := build(g)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { eng.Close() })
					for _, def := range dataset.StandardMacros() {
						if err := eng.DefineMacro(def); err != nil {
							t.Fatal(err)
						}
					}
					return eng
				}
				assertWarmEqualsCold(t, open(g), func() *Engine { return open(g.Clone()) }, terms, w.narrative)
			})
		}
	}
}

// coldOver is an in-memory engine over e's database and a Clone of its graph.
func coldOver(t *testing.T, e *Engine) func() *Engine {
	return func() *Engine {
		t.Helper()
		eng, err := New(e.Database(), e.Graph().Clone())
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
}

// TestMemoWarmEqualsColdRecoveredAndFollower is the same differential on an
// engine recovered from its directory and on a follower, before and after a
// re-bootstrap swaps the follower's database under its warm memo: the layout
// kept for the old catalog is not found for the new one.
func TestMemoWarmEqualsColdRecoveredAndFollower(t *testing.T) {
	terms := []string{"Woody Allen"}
	dir := t.TempDir()
	eng := openPersistent(t, dir)
	for i := 0; i < numCrashMutations; i++ {
		if err := crashMutation(eng, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	recovered := openPersistent(t, dir)
	defer recovered.Close()
	assertWarmEqualsCold(t, recovered, coldOver(t, recovered), terms, true)

	primary, addr := startReplPrimary(t)
	defer primary.Close()
	follower := startReplFollower(t, addr)
	defer follower.Close()
	waitReplConverged(t, primary, follower, 10*time.Second)
	assertWarmEqualsCold(t, follower, coldOver(t, follower), terms, true)

	before, err := follower.Query(terms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	catalog := follower.Database().CatalogID()
	_, _, derived := before.Schema.Graph.MemoStats()
	deactivate := faultinject.Activate(faultinject.NewPlan().
		Set(faultinject.SiteReplRecv, faultinject.Rule{Err: errors.New("memo test: link down")}))
	for i := 0; i < numCrashMutations; i++ {
		if err := crashMutation(primary, i); err != nil {
			t.Fatal(err)
		}
		if i == 3 || i == 7 {
			if err := primary.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	deactivate()
	waitReplConverged(t, primary, follower, 30*time.Second)
	if follower.ReplStats().Follower.Snapshots < 2 || follower.Database().CatalogID() == catalog {
		t.Fatal("the follower did not re-bootstrap into a new database")
	}
	after, err := follower.Query(terms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if after.Schema != before.Schema {
		t.Fatal("a re-bootstrap regenerated G′: it depends on the graph alone")
	}
	if _, _, n := after.Schema.Graph.MemoStats(); n != derived+1 {
		t.Fatalf("G′ keeps %d derived values after the re-bootstrap, %d before: want one more, the new catalog's layout", n, derived)
	}
	assertWarmEqualsCold(t, follower, coldOver(t, follower), terms, true)
	assertReplicaIdentical(t, primary, follower, "after a re-bootstrap under a warm memo")
}

// TestMemoConcurrentFirstUse: eight goroutines meet a new engine at once, on
// one key and on different ones, so that first uses — G′ generated, annotated,
// frozen, stored; the join plan, the layout and the translator's edge order
// derived on it — overlap with each other and with hits. Every answer equals
// the one a serial engine gave. Under -race this is the test of the memo's
// locking and of nothing writing a shared G′.
func TestMemoConcurrentFirstUse(t *testing.T) {
	weights := []float64{0.9, 0.5, 0.3, 0.1}
	queries := []string{"Woody Allen", "Match Point", `"Woody Allen" comedy`}
	serial := newEngine(t)
	want := make(map[string]string)
	key := func(q string, w float64) string { return fmt.Sprintf("%s@%v", q, w) }
	for _, q := range queries {
		for _, w := range weights {
			ans, err := serial.QueryString(q, Options{Degree: MinPathWeight(w)})
			if err != nil {
				t.Fatal(err)
			}
			want[key(q, w)] = answerDump(t, ans)
		}
	}
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	for round := 0; round < rounds; round++ {
		eng := newEngine(t)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 12; i++ {
					// Even goroutines walk the keys in step, odd ones apart.
					q, w := queries[i%len(queries)], weights[i%len(weights)]
					if g%2 == 1 {
						q, w = queries[(i+g)%len(queries)], weights[(i+g/2)%len(weights)]
					}
					ans, err := eng.QueryString(q, Options{Degree: MinPathWeight(w), Trace: i%3 == 0})
					if err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
					if got := answerDump(t, ans); got != want[key(q, w)] {
						t.Errorf("goroutine %d, %s: answer differs from the serial engine's", g, key(q, w))
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}

// TestMemoSeesCatalogChange: a foreign key added to the original through a
// side channel after a first answer is in the next one — the layout is kept
// per catalog — while G′ stays the memoised one.
func TestMemoSeesCatalogChange(t *testing.T) {
	eng := newEngine(t)
	opts := Options{Degree: MinPathWeight(0.5)}
	first, err := eng.QueryString("Woody Allen", opts)
	if err != nil {
		t.Fatal(err)
	}
	fk := storage.ForeignKey{FromRelation: "CAST", FromColumn: "mid", ToRelation: "GENRE", ToColumn: "mid"}
	for _, have := range first.Database.ForeignKeys() {
		if have == fk {
			t.Fatal("the example already declares the test's foreign key")
		}
	}
	if err := eng.Database().AddForeignKey(fk); err != nil {
		t.Fatal(err)
	}
	second, err := eng.QueryString("Woody Allen", opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.Schema != first.Schema {
		t.Fatal("a catalog change regenerated G′")
	}
	found := false
	for _, have := range second.Database.ForeignKeys() {
		found = found || have == fk
	}
	if !found {
		t.Fatalf("the foreign key added to the original is missing from the next D′: %v", second.Database.ForeignKeys())
	}
}

// TestProfileQueriesShareOneSchema: the graph a profile's weights are applied
// to is kept with the profile, so two queries under it find one G′; a
// per-call overlay clones and memoises nothing; and the same profile name
// defined otherwise on another engine over the same base graph shares nothing.
func TestProfileQueriesShareOneSchema(t *testing.T) {
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*Engine, 2)
	for i, w := range []float64{1.0, 0.2} {
		if engines[i], err = New(db, g); err != nil {
			t.Fatal(err)
		}
		p := &Profile{Name: "theatre", Weights: map[string]float64{"MOVIE->PLAY(mid=mid)": w}, Degree: MinPathWeight(0.9)}
		if err := engines[i].AddProfile(p); err != nil {
			t.Fatal(err)
		}
	}
	ask := func(e *Engine, opts Options) *Answer {
		t.Helper()
		opts.SkipNarrative = true
		ans, err := e.QueryString("Match Point", opts)
		if err != nil {
			t.Fatal(err)
		}
		return ans
	}
	a1, a2 := ask(engines[0], Options{Profile: "theatre"}), ask(engines[0], Options{Profile: "theatre"})
	if a1.Schema != a2.Schema {
		t.Error("two queries under one profile generated two result schemas")
	}
	if a1.Database.Relation("PLAY") == nil {
		t.Error("the profile's weight was not applied")
	}
	other := ask(engines[1], Options{Profile: "theatre"})
	if other.Schema == a1.Schema || other.Database.Relation("PLAY") != nil {
		t.Error("a profile of the same name defined otherwise shares the first one's G′")
	}
	if plain := ask(engines[0], Options{Degree: MinPathWeight(0.9)}); plain.Schema == a1.Schema || plain.Database.Relation("PLAY") != nil {
		t.Error("the profile's graph leaked into the engine's")
	}
	overlay := Options{Degree: MinPathWeight(0.9), WeightOverlay: map[string]float64{"MOVIE->PLAY(mid=mid)": 1.0}}
	o1, o2 := ask(engines[0], overlay), ask(engines[0], overlay)
	if o1.Schema == o2.Schema {
		t.Error("a per-call weight overlay memoised its G′")
	}
	if want, got := schemaDump(t, a1.Schema), schemaDump(t, o1.Schema); got != want {
		t.Errorf("the overlay's G′ differs from the equal profile's\n--- profile ---\n%s\n--- overlay ---\n%s", want, got)
	}
}

// TestMemoIsObservable: the schema_gen span of a traced query says whether G′
// came off the memo, and the registry exports the engine graph's counters.
func TestMemoIsObservable(t *testing.T) {
	eng := newEngine(t)
	reg := obs.NewRegistry()
	eng.Instrument(reg)
	note := func(opts Options) string {
		t.Helper()
		opts.Trace = true
		ans, err := eng.QueryString("Woody Allen", opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range ans.Trace.Spans {
			if sp.Name == obs.StageSchemaGen {
				return sp.Note
			}
		}
		t.Fatal("no schema_gen span")
		return ""
	}
	if got := note(Options{}); got != "memo=miss" {
		t.Errorf("first query: schema_gen note %q, want memo=miss", got)
	}
	if got := note(Options{}); got != "memo=hit" {
		t.Errorf("second query: schema_gen note %q, want memo=hit", got)
	}
	overlay := Options{WeightOverlay: map[string]float64{"MOVIE->PLAY(mid=mid)": 1.0}}
	for i := 0; i < 2; i++ {
		if got := note(overlay); got != "memo=miss" {
			t.Errorf("overlay query %d: schema_gen note %q, want memo=miss", i, got)
		}
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{MetricMemoHits + " 1", MetricMemoMisses + " 1"} {
		if !strings.Contains(sb.String(), "\n"+line+"\n") {
			t.Errorf("metrics lack %q:\n%s", line, sb.String())
		}
	}
}
