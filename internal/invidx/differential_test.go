package invidx

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"precis/internal/storage"
)

// The differential test drives the sorted-slice index and the map-of-maps
// oracle (reference_test.go) through the same seeded sequence of mutations
// and compares everything either can be asked, snapshot bytes included,
// after every step.

var diffWords = []string{"woody", "Allen", "night", "CITY", "match", "point", "élan", "r2d2", "the", "of", "Scott", "x"}

// diffValue draws 0–4 words, sometimes the same word twice, joined by
// separators the tokenizer must skip.
func diffValue(r *rand.Rand) storage.Value {
	n := r.Intn(5)
	if n == 0 && r.Intn(2) == 0 {
		return storage.Null
	}
	words := make([]string, n)
	for i := range words {
		words[i] = diffWords[r.Intn(len(diffWords))]
		if i > 0 && r.Intn(6) == 0 {
			words[i] = words[i-1]
		}
	}
	return storage.String(strings.Join(words, []string{" ", ", ", " - "}[r.Intn(3)]))
}

func diffDB(t testing.TB) *storage.Database {
	t.Helper()
	db := storage.NewDatabase("diff")
	db.MustCreateRelation(storage.MustSchema("R", "",
		storage.Column{Name: "a", Type: storage.TypeString},
		storage.Column{Name: "n", Type: storage.TypeInt},
		storage.Column{Name: "b", Type: storage.TypeString}))
	db.MustCreateRelation(storage.MustSchema("S", "",
		storage.Column{Name: "s", Type: storage.TypeString}))
	return db
}

// diffQueries is every word, every ordered pair of words as a phrase (most
// miss), and a few terms no value holds.
func diffQueries() []string {
	qs := append([]string{"", "zzz", "woody zzz", "--"}, diffWords...)
	for _, a := range diffWords {
		for _, b := range diffWords {
			qs = append(qs, a+" "+b)
		}
	}
	return append(qs, "woody allen night", "the the the")
}

// pair is the index under test and its oracle over one database.
type pair struct {
	db   *storage.Database
	ix   *Index
	ref  *refIndex
	live map[storage.TupleID]string // id -> relation
	gone []storage.TupleID          // deleted ids, candidates for re-insert
}

func newPair(t testing.TB) *pair {
	db := diffDB(t)
	p := &pair{db: db, ix: New(db), ref: newRefIndex(db), live: map[storage.TupleID]string{}}
	for alias, canonical := range map[string]string{"W. Allen": "woody allen", "town": "city", "nobody": "zzz", "x": "the"} {
		p.ix.AddSynonym(alias, canonical)
		p.ref.synonyms[synonymKey(alias)] = canonical
	}
	return p
}

func (p *pair) values(r *rand.Rand, rel string) []storage.Value {
	if rel == "S" {
		return []storage.Value{diffValue(r)}
	}
	return []storage.Value{diffValue(r), storage.Int(r.Int63n(10)), diffValue(r)}
}

// step applies one random mutation to the database and both indexes.
func (p *pair) step(t testing.TB, r *rand.Rand) {
	t.Helper()
	insert := func(id storage.TupleID) {
		rel := []string{"R", "S"}[r.Intn(2)]
		if err := p.db.InsertWithID(rel, id, p.values(r, rel)...); err != nil {
			t.Fatal(err)
		}
		tu, _ := p.db.Relation(rel).Get(id)
		p.ix.AddTuple(rel, tu)
		p.ref.AddTuple(rel, tu)
		p.live[id] = rel
	}
	switch op := r.Intn(10); {
	case op < 4: // a fresh id, mostly out of order
		id := storage.TupleID(1 + r.Intn(400))
		for p.live[id] != "" {
			id = storage.TupleID(1 + r.Intn(400))
		}
		insert(id)
	case op < 5 && len(p.gone) > 0: // a deleted id comes back with new values
		i := r.Intn(len(p.gone))
		id := p.gone[i]
		p.gone = append(p.gone[:i], p.gone[i+1:]...)
		if p.live[id] == "" {
			insert(id)
		}
	case op < 8 && len(p.live) > 0: // delete: un-index the stored tuple first
		id, rel := p.anyLive(r)
		tu, _ := p.db.Relation(rel).Get(id)
		p.ix.RemoveTuple(rel, tu)
		p.ref.RemoveTuple(rel, tu)
		if ok, err := p.db.Delete(rel, id); err != nil || !ok {
			t.Fatalf("delete %s %d: %v %v", rel, id, ok, err)
		}
		delete(p.live, id)
		p.gone = append(p.gone, id)
	case op < 9 && len(p.live) > 0: // indexing a tuple twice changes nothing
		id, rel := p.anyLive(r)
		tu, _ := p.db.Relation(rel).Get(id)
		p.ix.AddTuple(rel, tu)
		p.ref.AddTuple(rel, tu)
	default: // removing a tuple that was never indexed changes nothing
		tu := storage.Tuple{ID: storage.TupleID(1000 + r.Intn(50)), Values: p.values(r, "R")}
		p.ix.RemoveTuple("R", tu)
		p.ref.RemoveTuple("R", tu)
	}
}

func (p *pair) anyLive(r *rand.Rand) (storage.TupleID, string) {
	ids := make([]storage.TupleID, 0, len(p.live))
	for id := range p.live {
		ids = append(ids, id)
	}
	slices.Sort(ids) // map order is random; the seeded run must not be
	id := ids[r.Intn(len(ids))]
	return id, p.live[id]
}

// check compares every observable of the two indexes.
func (p *pair) check(t testing.TB, queries []string, when string) {
	t.Helper()
	for _, q := range queries {
		if got, want := p.ix.Lookup(q), p.ref.Lookup(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Lookup(%q) = %v, oracle %v", when, q, got, want)
		}
		if got, want := p.ix.LookupExpanded(q), p.ref.LookupExpanded(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: LookupExpanded(%q) = %v, oracle %v", when, q, got, want)
		}
		if got, want := p.ix.DocFrequency(q), p.ref.DocFrequency(q); got != want {
			t.Fatalf("%s: DocFrequency(%q) = %d, oracle %d", when, q, got, want)
		}
	}
	for _, alias := range []string{"W. Allen", "w allen", "town", "nobody", "x"} {
		if got, want := p.ix.LookupExpanded(alias), p.ref.LookupExpanded(alias); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: LookupExpanded(%q) = %v, oracle %v", when, alias, got, want)
		}
	}
	if got, want := p.ix.NumTokens(), p.ref.NumTokens(); got != want {
		t.Fatalf("%s: NumTokens = %d, oracle %d", when, got, want)
	}
	var want Stats
	for _, byLoc := range p.ref.postings {
		want.Tokens++
		want.Lists += len(byLoc)
		for _, ids := range byLoc {
			want.Postings += len(ids)
		}
	}
	if got := p.ix.Stats(); got != want {
		t.Fatalf("%s: Stats = %+v, oracle %+v", when, got, want)
	}
	if got, want := p.ix.EncodeSnapshot(9), p.ref.EncodeSnapshot(9); !bytes.Equal(got, want) {
		t.Fatalf("%s: snapshot bytes differ from the oracle's (%d vs %d bytes)", when, len(got), len(want))
	}
}

// samePostings compares what an index holds, not how it got there.
func samePostings(a, b *Index) bool {
	return reflect.DeepEqual(a.postings, b.postings) && a.Stats() == b.Stats()
}

func TestIndexMatchesReference(t *testing.T) {
	seeds, steps := 12, 400
	if testing.Short() {
		seeds, steps = 4, 250
	}
	queries := diffQueries()
	for seed := 1; seed <= seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		p := newPair(t)
		for i := 0; i < steps; i++ {
			p.step(t, r)
			p.check(t, queries, fmt.Sprintf("seed %d step %d", seed, i))
			if i%50 != 49 {
				continue
			}
			// The maintained index, one built from scratch, every parallel
			// build and a decoded snapshot hold the same postings.
			built := New(p.db)
			if !samePostings(p.ix, built) {
				t.Fatalf("seed %d step %d: maintained index differs from New", seed, i)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				if par := NewParallel(p.db, workers); !reflect.DeepEqual(par, built) {
					t.Fatalf("seed %d step %d: NewParallel(%d) differs from New", seed, i, workers)
				}
			}
			decoded, gen, err := DecodeSnapshot(p.ix.EncodeSnapshot(3), p.db)
			if err != nil || gen != 3 || !samePostings(decoded, p.ix) {
				t.Fatalf("seed %d step %d: snapshot round trip: gen %d, %v", seed, i, gen, err)
			}
		}
	}
}

// TestLookupResultsDoNotAliasIndex is the differential run the way the
// engine runs it: queries copy posting lists under a read lock and keep
// reading them after releasing it, while a writer appends to, shifts and
// deletes from the same lists under the write lock. A result that aliased
// the index would be a data race (scripts/ci.sh runs this under -race) and
// would change after the fact.
func TestLookupResultsDoNotAliasIndex(t *testing.T) {
	p := newPair(t)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		p.step(t, r)
	}
	var mu sync.RWMutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			queries := []string{"woody", "the", "W. Allen", "night city", "x"}
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[i%len(queries)]
				mu.RLock()
				got := p.ix.LookupExpanded(q)
				n := p.ix.DocFrequency(q)
				snapshot := fmt.Sprint(got, n)
				mu.RUnlock()
				if again := fmt.Sprint(got, n); again != snapshot {
					t.Errorf("LookupExpanded(%q) changed after the lock was released:\n%s\n%s", q, snapshot, again)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 600; i++ {
		mu.Lock()
		p.step(t, r)
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
	p.check(t, diffQueries(), "after the concurrent run")
}

// snapshotOf hand-assembles a checksummed PRCIDX01 file from (token,
// locations) entries, each location a relation, an attribute and id gaps.
type snapLoc struct {
	rel, attr string
	gaps      []uint64
}

func snapshotOf(tokens []string, locs [][]snapLoc) []byte {
	out := []byte(indexMagic)
	out = binary.AppendUvarint(out, indexFormatVersion)
	out = binary.AppendUvarint(out, TokenizerVersion)
	out = binary.AppendUvarint(out, 1)
	out = binary.AppendUvarint(out, uint64(len(tokens)))
	for i, tok := range tokens {
		out = appendIndexStr(out, tok)
		out = binary.AppendUvarint(out, uint64(len(locs[i])))
		for _, l := range locs[i] {
			out = appendIndexStr(out, l.rel)
			out = appendIndexStr(out, l.attr)
			out = binary.AppendUvarint(out, uint64(len(l.gaps)))
			for _, g := range l.gaps {
				out = binary.AppendUvarint(out, g)
			}
		}
	}
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, indexCRCTable))
}

// malformedSnapshots are files with a valid frame and checksum whose
// postings break an invariant the sorted-slice index relies on. The
// map-of-maps decoder absorbed all of them silently.
func malformedSnapshots() map[string][]byte {
	one := func(locs ...snapLoc) []byte { return snapshotOf([]string{"woody"}, [][]snapLoc{locs}) }
	return map[string][]byte{
		"zerogap":            one(snapLoc{"R", "a", []uint64{3, 0, 2}}),
		"unsorted-locations": one(snapLoc{"R", "b", []uint64{1}}, snapLoc{"R", "a", []uint64{2}}),
		"repeated-location":  one(snapLoc{"R", "a", []uint64{1}}, snapLoc{"R", "a", []uint64{2}}),
		"zero-first-id":      one(snapLoc{"R", "a", []uint64{0}}),
		"id-past-int64":      one(snapLoc{"R", "a", []uint64{1 << 63}}),
		"id-sum-past-int64":  one(snapLoc{"R", "a", []uint64{1<<63 - 1, 1}}),
		"id-past-cap":        one(snapLoc{"R", "a", []uint64{1 << 32}}),
		"id-sum-past-cap":    one(snapLoc{"R", "a", []uint64{1<<32 - 1, 1}}),
		"empty-list":         one(snapLoc{"R", "a", nil}),
		"no-locations":       one(),
	}
}

func TestIndexSnapshotRejectsMalformedPostings(t *testing.T) {
	db := diffDB(t)
	valid := snapshotOf([]string{"allen", "woody"}, [][]snapLoc{
		{{"R", "a", []uint64{2}}},
		{{"R", "a", []uint64{2, 5}}, {"R", "b", []uint64{1}}, {"S", "s", []uint64{uint64(storage.MaxTupleID)}}},
	})
	ix, _, err := DecodeSnapshot(valid, db)
	if err != nil {
		t.Fatalf("hand-assembled valid snapshot rejected: %v", err)
	}
	if !bytes.Equal(ix.EncodeSnapshot(1), valid) {
		t.Fatal("valid snapshot does not re-encode to the same bytes")
	}
	for name, raw := range malformedSnapshots() {
		if _, _, err := DecodeSnapshot(raw, db); err == nil {
			t.Errorf("%s: decoded successfully", name)
		}
	}
}

// TestFuzzCorpus keeps the two malformed corpus entries of
// FuzzIndexSnapshotDecode in step with the codec, and uses the oldest entry —
// a file written by the map-of-maps encoder — as a golden: it must load and
// re-encode to the very same bytes.
func TestFuzzCorpus(t *testing.T) {
	corpus := filepath.Join("testdata", "fuzz", "FuzzIndexSnapshotDecode")
	golden, err := os.ReadFile(filepath.Join(corpus, "seed-valid"))
	if err != nil {
		t.Fatal(err)
	}
	quoted := strings.TrimSuffix(strings.TrimPrefix(string(golden), "go test fuzz v1\n[]byte("), ")\n")
	raw, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatalf("seed-valid: %v", err)
	}
	ix, gen, err := DecodeSnapshot([]byte(raw), diffDB(t))
	if err != nil {
		t.Fatalf("seed-valid no longer decodes: %v", err)
	}
	if !bytes.Equal(ix.EncodeSnapshot(gen), []byte(raw)) {
		t.Error("seed-valid does not re-encode to the same bytes")
	}
	all := malformedSnapshots()
	for _, name := range []string{"zerogap", "unsorted-locations"} {
		path := filepath.Join(corpus, "seed-"+name)
		want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(all[name])) + ")\n"
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%s is stale; it should hold\n%s", path, want)
		}
	}
}
