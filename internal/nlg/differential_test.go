package nlg

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"precis/internal/core"
	"precis/internal/dataset"
	"precis/internal/faultinject"
	"precis/internal/invidx"
	"precis/internal/schemagraph"
	"precis/internal/storage"
)

// sameAsReference renders rd with the production walk and with the reference
// walk of reference_test.go at several clause caps and requires identical
// bytes.
func sameAsReference(t *testing.T, r *Renderer, rd *core.ResultDatabase, occs []invidx.Occurrence) {
	t.Helper()
	defer func(old int) { r.MaxClauses = old }(r.MaxClauses)
	for _, maxClauses := range []int{1, 3, 64} {
		r.MaxClauses = maxClauses
		want, wantErr := refNarrative(r, rd, occs)
		got, gotErr := r.Narrative(rd, occs)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("MaxClauses=%d: error %v, reference error %v", maxClauses, gotErr, wantErr)
		}
		if got != want {
			t.Fatalf("MaxClauses=%d: narrative differs from the reference\n--- got ---\n%s\n--- want ---\n%s", maxClauses, got, want)
		}
	}
}

// busiestDirector returns the dname of the director with the most films.
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

// syntheticMovies is the annotated synthetic database at the given size.
func syntheticMovies(t testing.TB, films int) (*storage.Database, *schemagraph.Graph) {
	t.Helper()
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
	if err := dataset.AnnotateNarrative(g); err != nil {
		t.Fatal(err)
	}
	return db, g
}

// differentialDataset is one bundled dataset and the terms to narrate.
type differentialDataset struct {
	name  string
	db    *storage.Database
	g     *schemagraph.Graph
	terms []string
}

func differentialDatasets(t *testing.T) []differentialDataset {
	t.Helper()
	exDB, exG := exampleMovies(t)
	synDB, synG := syntheticMovies(t, 300)
	chainCfg := dataset.DefaultChainConfig()
	chainCfg.RowsPerRel = 200
	chainDB, chainG, err := dataset.Chain(chainCfg)
	if err != nil {
		t.Fatal(err)
	}
	starDB, starG, err := dataset.Star(dataset.StarConfig{Satellites: 4, RowsPerRel: 100, Fanout: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return []differentialDataset{
		{"example-movies", exDB, exG, []string{"Woody Allen", "Match Point", "Comedy"}},
		{"synthetic-movies", synDB, synG, []string{busiestDirector(synDB), "Drama", "Downtown"}},
		// chain and star carry no annotations: the fallback clauses.
		{"chain", chainDB, chainG, []string{"tokR0"}},
		{"star", starDB, starG, []string{"tokHUB"}},
	}
}

// TestNarrativeMatchesReference is the translator's differential oracle:
// over the bundled datasets, both retrieval strategies, tight and loose
// cardinality and degree constraints, and budget-truncated partials, the
// production walk must produce the reference walk's bytes.
func TestNarrativeMatchesReference(t *testing.T) {
	strategies := []core.Strategy{core.StrategyNaive, core.StrategyRoundRobin}
	for _, ds := range differentialDatasets(t) {
		r := paperRenderer(t)
		for _, term := range ds.terms {
			for _, strat := range strategies {
				for _, card := range []int{1, 10, 150} {
					for _, w := range []float64{0.8, 0.05} {
						t.Run(fmt.Sprintf("%s/%s/%s/card=%d/w=%v", ds.name, term, strat, card, w), func(t *testing.T) {
							rd, occs := precisOf(t, ds.db, ds.g, term, w, core.MaxTuplesPerRelation(card), strat, core.Budget{})
							sameAsReference(t, r, rd, occs)
						})
					}
				}
				for _, b := range []core.Budget{{MaxTuples: 7}, {MaxTuples: 40}, {MaxJoinSteps: 1}, {MaxJoinSteps: 3}} {
					t.Run(fmt.Sprintf("%s/%s/%s/budget=%+v", ds.name, term, strat, b), func(t *testing.T) {
						rd, occs := precisOf(t, ds.db, ds.g, term, 0.05, core.Unlimited(), strat, b)
						sameAsReference(t, r, rd, occs)
					})
				}
			}
		}
	}
}

// handBuiltResult is a result database assembled by hand around the cases
// the generated ones rarely produce:
//
//   - BOOK tuples are inserted out of id order, and WROTE (heading-less, no
//     label: a pure junction) reaches BOOK with several anchors whose targets
//     are in descending id order, two of them the same book; TAG 40 is
//     inserted after 41–44, so a scan finds Salt's tags out of id order for
//     its one anchor;
//   - a NULL foreign key (a book without a publisher) and a dangling one; a
//     NULL on both sides of a join (WROTE 26 and TAG 44 have no book): an
//     index keeps NULL keys, and NULL still joins nothing;
//   - PUBLISHER and AUTHOR both have "name" and "city": the newest binding
//     wins, and a publisher whose city is NULL shadows the author's city with
//     an empty list rather than letting it show through;
//   - author 3 has an empty name, its heading and a projection, and wrote
//     nothing: with no sentence template (FuzzNarrative's empty one) the
//     fallback sentence names the relation instead;
//   - REVIEW is in G′ but not in the database; TAG has neither sentence nor
//     label, so the fallback clauses render;
//   - NOTE keeps the columns its templates read at positions 12 to 14, past
//     the per-frame count cache. Salt's only note is all NULL: its label
//     renders to white space in the middle of Ada Moss's paragraph, and as
//     the first seed its sentence renders an empty first paragraph. Brine's
//     notes have a NULL text between two others (@TEXT[$i$] skips it) and
//     integer pages read through upper() and lower().
//
// indexed builds it as a generated result database is built: a batch
// database with a RunIndex on every join column of G′. Without it the
// database is a plain one, only the keyed columns have a (hash) index, and the
// joins into WROTE and TAG scan.
func handBuiltResult(t testing.TB, indexed bool) (*core.ResultDatabase, []invidx.Occurrence) {
	t.Helper()
	db := storage.NewDatabase("handbuilt")
	if indexed {
		db = storage.NewBatchDatabase("handbuilt")
	}
	str := func(name string) storage.Column { return storage.Column{Name: name, Type: storage.TypeString} }
	num := func(name string) storage.Column { return storage.Column{Name: name, Type: storage.TypeInt} }
	db.MustCreateRelation(storage.MustSchema("AUTHOR", "aid", num("aid"), str("name"), str("city")))
	db.MustCreateRelation(storage.MustSchema("WROTE", "", num("aid"), num("bid")))
	db.MustCreateRelation(storage.MustSchema("BOOK", "bid", num("bid"), str("title"), num("pid"), num("year")))
	db.MustCreateRelation(storage.MustSchema("PUBLISHER", "pid", num("pid"), str("name"), str("city")))
	db.MustCreateRelation(storage.MustSchema("TAG", "", num("bid"), str("tag")))
	noteCols := []storage.Column{num("bid")}
	for i := 1; i <= 11; i++ {
		noteCols = append(noteCols, num(fmt.Sprintf("filler%d", i)))
	}
	db.MustCreateRelation(storage.MustSchema("NOTE", "", append(noteCols, str("text"), num("page"), str("blank"))...))
	note := func(bid int64, text, page storage.Value) []storage.Value {
		vals := make([]storage.Value, 15)
		vals[0], vals[12], vals[13] = storage.Int(bid), text, page
		return vals
	}
	null := storage.Null
	rows := []struct {
		rel  string
		id   storage.TupleID
		vals []storage.Value
	}{
		{"AUTHOR", 1, []storage.Value{storage.Int(1), storage.String("Ada Moss"), storage.String("Oslo")}},
		{"AUTHOR", 2, []storage.Value{storage.Int(2), storage.String("Ben Ruiz"), null}},
		{"AUTHOR", 3, []storage.Value{storage.Int(3), storage.String(""), storage.String("Nowhere")}},
		{"BOOK", 13, []storage.Value{storage.Int(3), storage.String("Tides"), null, storage.Int(2003)}},
		{"BOOK", 11, []storage.Value{storage.Int(1), storage.String("Salt"), storage.Int(1), storage.Int(2001)}},
		{"BOOK", 14, []storage.Value{storage.Int(4), storage.String("Kelp"), storage.Int(9), null}},
		{"BOOK", 12, []storage.Value{storage.Int(2), storage.String("Brine"), storage.Int(2), storage.Int(2002)}},
		{"WROTE", 21, []storage.Value{storage.Int(1), storage.Int(4)}},
		{"WROTE", 22, []storage.Value{storage.Int(1), storage.Int(3)}},
		{"WROTE", 23, []storage.Value{storage.Int(1), storage.Int(1)}},
		{"WROTE", 24, []storage.Value{storage.Int(1), storage.Int(3)}},
		{"WROTE", 25, []storage.Value{storage.Int(2), storage.Int(2)}},
		{"WROTE", 26, []storage.Value{storage.Int(2), null}},
		{"PUBLISHER", 31, []storage.Value{storage.Int(1), storage.String("Quay Press"), null}},
		{"PUBLISHER", 32, []storage.Value{storage.Int(2), storage.String("Mole & Pier"), storage.String("Bergen")}},
		{"TAG", 41, []storage.Value{storage.Int(1), storage.String("sea")}},
		{"TAG", 42, []storage.Value{storage.Int(1), storage.String("essays")}},
		{"TAG", 43, []storage.Value{storage.Int(2), null}},
		{"TAG", 44, []storage.Value{null, storage.String("ghost")}},
		{"TAG", 40, []storage.Value{storage.Int(1), storage.String("brine-first")}},
		{"NOTE", 51, note(1, null, null)},
		{"NOTE", 52, note(2, storage.String("first"), storage.Int(7))},
		{"NOTE", 53, note(2, null, storage.Int(8))},
		{"NOTE", 54, note(2, storage.String("Third"), null)},
	}
	for _, row := range rows {
		if err := db.InsertWithID(row.rel, row.id, row.vals...); err != nil {
			t.Fatal(err)
		}
	}

	g := schemagraph.New()
	for _, rel := range []string{"AUTHOR", "WROTE", "BOOK", "PUBLISHER", "TAG", "REVIEW", "NOTE"} {
		g.AddRelation(rel)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for rel, heading := range map[string]string{"AUTHOR": "name", "BOOK": "title", "PUBLISHER": "name", "TAG": "tag"} {
		must(g.SetHeading(rel, heading))
	}
	for _, p := range [][2]string{{"AUTHOR", "name"}, {"AUTHOR", "city"}, {"BOOK", "year"}, {"PUBLISHER", "city"}} {
		_, err := g.AddProjection(p[0], p[1], 0.9)
		must(err)
	}
	join := func(from, to, col string, w float64, label string) {
		t.Helper()
		e, err := g.AddJoin(from, to, col, col, w)
		must(err)
		e.Label = label
	}
	join("AUTHOR", "WROTE", "aid", 1.0, "")
	join("WROTE", "AUTHOR", "aid", 0.9, `@TITLE + " is by " + @NAME + "."`)
	join("WROTE", "BOOK", "bid", 1.0, `@NAME + " of " + @CITY + " wrote " + TITLES`)
	join("BOOK", "WROTE", "bid", 0.9, "")
	join("BOOK", "PUBLISHER", "pid", 0.8,
		`@TITLE + " (" + @YEAR + ") came out at " + upper(@NAME) + " in " + arityOf(@CITY) + " city " + @CITY + "."`)
	join("BOOK", "TAG", "bid", 0.8, "")
	join("BOOK", "NOTE", "bid", 0.85, `" " + @BLANK + "`+"\t\u00a0"+`" + NOTES`) // a tab and a no-break space
	join("WROTE", "TAG", "bid", 0.5, "")
	join("BOOK", "REVIEW", "bid", 0.7, `"Reviews: " + @STARS`)
	g.Relation("AUTHOR").Sentence = `@NAME [i=arityOf(@CITY)] {" lives in " + @CITY} "."`
	g.Relation("NOTE").Sentence = `@BLANK + " " + @TEXT`
	if indexed {
		for _, e := range g.JoinEdges() {
			if rel := db.Relation(e.To); rel != nil {
				if err := rel.CreateIndex(e.ToCol); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	rd := &core.ResultDatabase{DB: db, Schema: &core.ResultSchema{Graph: g}}
	occs := []invidx.Occurrence{
		{Relation: "NOTE", Attribute: "text", TupleIDs: []storage.TupleID{51}},
		{Relation: "AUTHOR", Attribute: "name", TupleIDs: []storage.TupleID{1, 2, 3}},
		{Relation: "BOOK", Attribute: "title", TupleIDs: []storage.TupleID{11, 14}},
		{Relation: "WROTE", Attribute: "aid", TupleIDs: []storage.TupleID{22}},
		{Relation: "REVIEW", Attribute: "stars", TupleIDs: []storage.TupleID{50}},
	}
	return rd, occs
}

// handBuiltRenderer defines the macros handBuiltResult's labels use.
func handBuiltRenderer(t testing.TB) *Renderer {
	t.Helper()
	r := NewRenderer()
	for _, def := range []string{
		`DEFINE TITLES as [i<arityOf(@TITLE)] {@TITLE[$i$] + ", "} [i=arityOf(@TITLE)] {@TITLE[$i$] + "."}`,
		`DEFINE NOTES as [i<arityOf(@TEXT)] {@TEXT[$i$] + " p." + lower(@PAGE[$i$]) + "; "}
			[i=arityOf(@TEXT)] {upper(@TEXT[$i$]) + " pp." + upper(@PAGE) + "."}`,
	} {
		if err := r.DefineMacro(def); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestNarrativeMatchesReferenceHandBuilt(t *testing.T) {
	r := handBuiltRenderer(t)
	// Without the join indexes the walk's lookups scan: the same narrative.
	scanned, occs := handBuiltResult(t, false)
	sameAsReference(t, r, scanned, occs)
	rd, occs := handBuiltResult(t, true)
	sameAsReference(t, r, rd, occs)
	if rd.DB.Relation("TAG").RunIndexOn("bid") == nil || scanned.DB.Relation("TAG").HasIndex("bid") {
		t.Fatal("the indexed and the unindexed fixture do not differ")
	}

	// Pin what the cases are there for, so the oracle cannot agree on a
	// narrative that never reaches them.
	out, err := r.Narrative(rd, occs)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := r.Narrative(scanned, occs); err != nil || again != out {
		t.Fatalf("the scanned fixture narrates otherwise (%v)\n%s", err, again)
	}
	for _, frag := range []string{
		// several anchors, targets re-sorted by id, the repeated book once
		"Ada Moss of Oslo wrote Salt, Tides, Kelp.",
		// the publisher's NULL city shadows the author's
		"Salt (2001) came out at QUAY PRESS in 0 city .",
		"Brine (2002) came out at MOLE & PIER in 1 city Bergen.",
		// fallback join clause, its tags in id order, however they were found
		"The tag of Salt: brine-first, sea, essays.",
		// Salt's note renders white space only: the clause goes, and its separator with it
		"Ada Moss of Oslo wrote Salt, Tides, Kelp. Salt (2001) came out",
		// columns 12 and 13: the NULL text is skipped, not indexed; integers
		// go through lower() and upper()
		"wrote Brine. first p.7; THIRD pp.7, 8. Brine (2002) came out",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("narrative missing %q\n%s", frag, out)
		}
	}
	// The first seed (note 51) renders an empty paragraph: no blank line
	// leads the narrative.
	if !strings.HasPrefix(out, "Ada Moss lives in Oslo.") {
		t.Errorf("narrative starts %q", out[:min(len(out), 40)])
	}
	// A NULL publisher joins nothing (the index keeps NULL keys: the walk
	// must not probe them), and neither does a dangling one.
	for _, frag := range []string{"Tides (2003) came out", "Kelp (", "ghost"} {
		if strings.Contains(out, frag) {
			t.Errorf("narrative has %q\n%s", frag, out)
		}
	}
}

// TestNarrativeFailsOnLookupError: the clause walk's joins go through the
// storage lookup site. An error there fails the narrative, naming the join —
// a clause is never dropped silently — whichever lookup of the walk it hits,
// and the next call is unaffected.
func TestNarrativeFailsOnLookupError(t *testing.T) {
	r := handBuiltRenderer(t)
	injected := errors.New("injected")
	for _, indexed := range []bool{false, true} {
		rd, occs := handBuiltResult(t, indexed)
		want, err := r.Narrative(rd, occs)
		if err != nil {
			t.Fatal(err)
		}
		counting := faultinject.NewPlan().Set(faultinject.SiteStorageLookup, faultinject.Rule{Every: 1 << 30})
		deactivate := faultinject.Activate(counting)
		_, err = r.Narrative(rd, occs)
		deactivate()
		lookups := int(counting.Calls(faultinject.SiteStorageLookup))
		if err != nil || lookups < 10 {
			t.Fatalf("indexed=%v: %d lookups in the walk, %v", indexed, lookups, err)
		}
		for nth := 0; nth < lookups; nth++ {
			plan := faultinject.NewPlan().Set(faultinject.SiteStorageLookup, faultinject.Rule{Err: injected, After: nth, Limit: 1})
			deactivate := faultinject.Activate(plan)
			out, err := r.Narrative(rd, occs)
			deactivate()
			if !errors.Is(err, injected) || !strings.Contains(err.Error(), "nlg: join ") || out != "" {
				t.Fatalf("indexed=%v, lookup %d failed: narrative %q, error %v", indexed, nth, out, err)
			}
		}
		if got, err := r.Narrative(rd, occs); err != nil || got != want {
			t.Fatalf("indexed=%v: after the faults: %v\n%s", indexed, err, got)
		}
	}
}
