package precis

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"precis/internal/costmodel"
	"precis/internal/dataset"
	"precis/internal/profile"
	"precis/internal/storage"
)

// newEngine builds the engine over the paper's example database with the
// narrative annotations and standard macros installed.
func newEngine(t *testing.T) *Engine {
	t.Helper()
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.AnnotateNarrative(g); err != nil {
		t.Fatal(err)
	}
	eng, err := New(db, g)
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

func TestEndToEndWoodyAllen(t *testing.T) {
	eng := newEngine(t)
	ans, err := eng.Query([]string{"Woody Allen"}, Options{
		Degree:      MinPathWeight(0.9),
		Cardinality: MaxTuplesPerRelation(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Unmatched) != 0 {
		t.Errorf("unmatched = %v", ans.Unmatched)
	}
	// The précis is a database.
	if ans.Database == nil || ans.Database.NumRelations() == 0 {
		t.Fatal("no result database")
	}
	if err := storage.VerifySubDatabase(eng.Database(), ans.Database); err != nil {
		t.Errorf("sub-database: %v", err)
	}
	// The narrative reproduces the §5.3 opening.
	if !strings.Contains(ans.Narrative, "Woody Allen was born on December 1, 1935") {
		t.Errorf("narrative = %q", ans.Narrative)
	}
	if ans.Stats.Queries == 0 {
		t.Error("no SQL issued?")
	}
}

func TestQueryStringPhrases(t *testing.T) {
	eng := newEngine(t)
	ans, err := eng.QueryString(`"Woody Allen"`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Occurrences["Woody Allen"]) != 2 {
		t.Errorf("occurrences = %v", ans.Occurrences)
	}
}

func TestParseQuery(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{`"Woody Allen" comedy`, []string{"Woody Allen", "comedy"}},
		{`match point`, []string{"match", "point"}},
		{`  spaced   out  `, []string{"spaced", "out"}},
		{`"unterminated phrase`, []string{"unterminated phrase"}},
		{``, nil},
		{`""`, nil},
	}
	for _, c := range cases {
		if got := ParseQuery(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseQuery(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMultiTermQuery(t *testing.T) {
	eng := newEngine(t)
	ans, err := eng.Query([]string{"Woody Allen", "Lost in Translation"}, Options{
		Degree:      MinPathWeight(0.9),
		Cardinality: MaxTuplesPerRelation(10),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Seeds from both terms: DIRECTOR, ACTOR and MOVIE.
	movies := ans.Database.Relation("MOVIE")
	if movies == nil {
		t.Fatal("MOVIE missing")
	}
	ti := movies.Schema().ColumnIndex("title")
	found := false
	movies.Scan(func(tu storage.Tuple) bool {
		if tu.Values[ti].AsString() == "Lost in Translation" {
			found = true
		}
		return true
	})
	if !found {
		t.Error("second term's seed tuple missing")
	}
}

// TestMultiTermQueryNarratesSharedTupleOnce: the unquoted query
// `Woody Allen` is two terms that both match the same DIRECTOR and ACTOR
// tuples; each is narrated once, so the narrative equals the phrase query's.
func TestMultiTermQueryNarratesSharedTupleOnce(t *testing.T) {
	eng := newEngine(t)
	opts := Options{Degree: MinPathWeight(0.9), Cardinality: MaxTuplesPerRelation(10)}
	phrase, err := eng.Query([]string{"Woody Allen"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	terms, err := eng.Query([]string{"Woody", "Allen"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	const born = "Woody Allen was born on December 1, 1935 in Brooklyn, New York, USA."
	if n := strings.Count(terms.Narrative, born); n != 1 {
		t.Errorf("director sentence appears %d times, want 1:\n%s", n, terms.Narrative)
	}
	if terms.Narrative != phrase.Narrative {
		t.Errorf("two-term narrative differs from the phrase query's\n--- terms ---\n%s\n--- phrase ---\n%s",
			terms.Narrative, phrase.Narrative)
	}
}

func TestUnmatchedTermsReported(t *testing.T) {
	eng := newEngine(t)
	ans, err := eng.Query([]string{"Woody Allen", "zzzzz"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ans.Unmatched, []string{"zzzzz"}) {
		t.Errorf("unmatched = %v", ans.Unmatched)
	}
}

func TestNoMatchesError(t *testing.T) {
	eng := newEngine(t)
	_, err := eng.Query([]string{"zzzzz"}, Options{})
	if !errors.Is(err, ErrNoMatches) {
		t.Errorf("err = %v", err)
	}
	if _, err := eng.Query(nil, Options{}); err == nil {
		t.Error("empty query accepted")
	}
}

func TestProfilesChangeAnswers(t *testing.T) {
	eng := newEngine(t)
	if err := eng.AddProfile(profile.Reviewer()); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddProfile(profile.Fan()); err != nil {
		t.Fatal(err)
	}
	if got := eng.Profiles(); len(got) != 2 {
		t.Errorf("profiles = %v", got)
	}
	rev, err := eng.Query([]string{"Woody Allen"}, Options{Profile: "reviewer", SkipNarrative: true})
	if err != nil {
		t.Fatal(err)
	}
	fan, err := eng.Query([]string{"Woody Allen"}, Options{Profile: "fan", SkipNarrative: true})
	if err != nil {
		t.Fatal(err)
	}
	if rev.Database.NumRelations() <= fan.Database.NumRelations() {
		t.Errorf("reviewer (%d rel) should see more than fan (%d rel)",
			rev.Database.NumRelations(), fan.Database.NumRelations())
	}
	if _, err := eng.Query([]string{"Woody Allen"}, Options{Profile: "nope"}); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestWeightOverlayChangesExploredRegion(t *testing.T) {
	eng := newEngine(t)
	base, err := eng.Query([]string{"Match Point"}, Options{
		Degree: MinPathWeight(0.9), SkipNarrative: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.Database.Relation("PLAY") != nil {
		t.Fatal("PLAY unexpectedly present at baseline weights")
	}
	// Boost MOVIE->PLAY so the theatre region becomes reachable: the §3.1
	// interactive-exploration scenario.
	boosted, err := eng.Query([]string{"Match Point"}, Options{
		Degree:        MinPathWeight(0.9),
		WeightOverlay: map[string]float64{"MOVIE->PLAY(mid=mid)": 1.0},
		SkipNarrative: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if boosted.Database.Relation("PLAY") == nil || boosted.Database.Relation("THEATRE") == nil {
		t.Errorf("overlay did not expand the region: %v", boosted.Database.RelationNames())
	}
	// The engine's shared graph must not have been mutated.
	again, err := eng.Query([]string{"Match Point"}, Options{
		Degree: MinPathWeight(0.9), SkipNarrative: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if again.Database.Relation("PLAY") != nil {
		t.Error("overlay leaked into the shared graph")
	}
	if _, err := eng.Query([]string{"Match Point"}, Options{
		WeightOverlay: map[string]float64{"NOPE.x": 1.0},
	}); err == nil {
		t.Error("bad overlay key accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	eng := newEngine(t)
	ans, err := eng.Query([]string{"Woody Allen"}, Options{SkipNarrative: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range ans.Database.RelationNames() {
		if n := ans.Database.Relation(rel).Len(); n > 10 {
			t.Errorf("default cardinality violated: %s has %d", rel, n)
		}
	}
}

func TestInsertDeleteLiveIndex(t *testing.T) {
	eng := newEngine(t)
	id, err := eng.Insert("MOVIE", storage.Int(99), storage.String("Sweet and Lowdown"), storage.Int(1999), storage.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Query([]string{"Sweet and Lowdown"}, Options{SkipNarrative: true})
	if err != nil {
		t.Fatalf("fresh insert not searchable: %v", err)
	}
	if ans.Database.Relation("MOVIE").Len() == 0 {
		t.Error("fresh tuple missing from result")
	}
	ok, err := eng.Delete("MOVIE", id)
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if _, err := eng.Query([]string{"Sweet and Lowdown"}, Options{}); !errors.Is(err, ErrNoMatches) {
		t.Errorf("deleted tuple still searchable: %v", err)
	}
	if _, err := eng.Delete("NOPE", 1); err == nil {
		t.Error("delete from unknown relation accepted")
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("nil inputs accepted")
	}
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	bad := g.Clone()
	bad.AddRelation("GHOST")
	if _, err := New(db, bad); err == nil {
		t.Error("invalid graph accepted")
	}
}

func TestTimeBudgetConstraint(t *testing.T) {
	params := costmodel.Params{IndexTime: 2 * time.Microsecond, TupleTime: time.Microsecond}
	c := TimeBudget(params, 60*time.Microsecond, 4)
	if b := c.Budget("R", map[string]int{}, 0); b != 5 {
		t.Errorf("budget = %d, want 5", b)
	}
}

func TestConcurrentQueries(t *testing.T) {
	eng := newEngine(t)
	queries := [][]string{
		{"Woody Allen"}, {"Match Point"}, {"Comedy"}, {"Scarlett Johansson"},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				q := queries[(w+i)%len(queries)]
				if _, err := eng.Query(q, Options{SkipNarrative: i%2 == 0}); err != nil {
					errs <- err
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
}

func TestConcurrentQueriesWithMutations(t *testing.T) {
	eng := newEngine(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			title := fmt.Sprintf("Concurrent Movie %d", i)
			id, err := eng.Insert("MOVIE", storage.Int(int64(200+i)), storage.String(title),
				storage.Int(2000), storage.Int(1))
			if err != nil {
				errs <- err
				return
			}
			if _, err := eng.Delete("MOVIE", id); err != nil {
				errs <- err
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := eng.Query([]string{"Woody Allen"}, Options{SkipNarrative: true}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestEngineUpdate(t *testing.T) {
	eng := newEngine(t)
	id, err := eng.Insert("MOVIE", storage.Int(50), storage.String("Old Title"), storage.Int(1990), storage.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Update("MOVIE", id, []storage.Value{
		storage.Int(50), storage.String("New Title"), storage.Int(1991), storage.Int(1),
	}); err != nil {
		t.Fatal(err)
	}
	// The index follows: old title gone, new searchable.
	if _, err := eng.Query([]string{"Old Title"}, Options{}); !errors.Is(err, ErrNoMatches) {
		t.Errorf("old title still searchable: %v", err)
	}
	ans, err := eng.Query([]string{"New Title"}, Options{SkipNarrative: true})
	if err != nil {
		t.Fatalf("new title not searchable: %v", err)
	}
	if ans.Database.Relation("MOVIE").Len() == 0 {
		t.Error("updated tuple missing from result")
	}
	// Errors.
	if err := eng.Update("NOPE", 1, nil); err == nil {
		t.Error("unknown relation accepted")
	}
	if err := eng.Update("MOVIE", 99999, nil); err == nil {
		t.Error("unknown tuple accepted")
	}
}

func TestEngineSynonym(t *testing.T) {
	eng := newEngine(t)
	if _, err := eng.Query([]string{"W. Allen"}, Options{}); !errors.Is(err, ErrNoMatches) {
		t.Fatalf("pre-synonym: %v", err)
	}
	eng.AddSynonym("W. Allen", "Woody Allen")
	ans, err := eng.Query([]string{"W. Allen"}, Options{
		Degree: MinPathWeight(0.9), Cardinality: MaxTuplesPerRelation(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Database.Relation("DIRECTOR").Len() != 1 {
		t.Error("synonym did not reach the director")
	}
}
