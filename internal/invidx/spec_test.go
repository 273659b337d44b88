package invidx

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"precis/internal/dataset"
	"precis/internal/spec"
	"precis/internal/storage"
)

// TestLookupMatchesSpec holds Lookup to internal/spec's scan of every string
// value, on a generated movies database, for every title, actor name and
// director name: as stored, each of its words alone, its words shuffled (the
// rarest word — a title's serial, a name's surname — first, in the middle or
// last), and repeated, the whole value twice and its first word doubled; each
// term also punctuated ("Woody,Allen.") and double-spaced. At
// this scale a title's serial meets its title words' lists, and a surname its
// first name's, about 1 : 10, so the kernel's skip is on the path as well as
// its walk; its search, from 1 : 64, is held to the merge by the storage
// package's TestIntersectIDsMatchesLinearMerge.
func TestLookupMatchesSpec(t *testing.T) {
	cfg := dataset.DefaultSyntheticConfig()
	cfg.Films, cfg.Actors, cfg.Directors, cfg.Theatres = 200, 300, 30, 10
	if testing.Short() {
		cfg.Films, cfg.Actors = 100, 150
	}
	db, err := dataset.SyntheticMovies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix, sdb := New(db), spec.FromDatabase(db)
	r := rand.New(rand.NewSource(47))
	seen := map[string]bool{}
	lookup := func(term string) {
		if seen[term] {
			return
		}
		seen[term] = true
		want := spec.Lookup(sdb, term)
		// The spec reads a term's tokens only, so the term punctuated or
		// double-spaced has its answer.
		fields := strings.Fields(term)
		for _, form := range []string{term, strings.Join(fields, ",") + ".", strings.Join(fields, "  ")} {
			var got []spec.Occurrence
			for _, o := range ix.Lookup(form) {
				ids := make([]int64, len(o.TupleIDs))
				for i, id := range o.TupleIDs {
					ids[i] = int64(id)
				}
				got = append(got, spec.Occurrence{Relation: o.Relation, Attribute: o.Attribute, IDs: ids})
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Lookup(%q) = %v, spec (of %q) %v", form, got, term, want)
			}
		}
	}
	for _, rel := range []string{"MOVIE", "ACTOR", "DIRECTOR"} {
		db.Relation(rel).Scan(func(tu storage.Tuple) bool {
			value := tu.Values[1].AsString() // title, aname, dname
			words := strings.Fields(value)
			shuffled := slices.Clone(words)
			r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			for _, term := range append([]string{value, strings.Join(shuffled, " "), value + " " + value, words[0] + " " + value}, words...) {
				lookup(term)
			}
			return true
		})
	}
	if len(seen) < 500 {
		t.Fatalf("%d distinct terms looked up", len(seen))
	}
}
