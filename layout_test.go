package precis_test

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"precis"
	"precis/internal/dataset"
	"precis/internal/invidx"
	"precis/internal/schemagraph"
	"precis/internal/storage"
	"precis/internal/web"
)

// liveBytesPerTupleBudget is what one tuple of the bundled synthetic dataset
// may cost in live heap once the engine (storage, hash indexes, inverted
// index) is built over it: 10 % above the 147 bytes measured when every row
// became one pointer-free record — by holder, in the exact profile of the
// 34,000-film server (EXPERIMENTS.md, "Resident memory"), per tuple: the rows
// 104.5 → 47.4 bytes (a []Value of 32-byte Values and a string per text value,
// against a record of kind bytes, 8-byte words and the text), the token strings
// the inverted index now owns instead of aliasing a row 0 → 1.6, the rest
// within a byte of where it was (slots 18.0, id table 7.1, hash-index maps
// 20.1, id lists 19.0, posting locations 16.0). It was 206 with the rows as
// []Value, 225 with 8-byte ids in the id lists and 460 before that. Raise it
// only with a heap profile that says where the bytes went.
const liveBytesPerTupleBudget = 162

// TestLiveBytesPerTuple pins the resident cost of a tuple so the bytes
// cannot creep back unnoticed. scripts/ci.sh runs it in a non-race step.
func TestLiveBytesPerTuple(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates the heap")
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	db, err := dataset.SyntheticMovies(dataset.DefaultSyntheticConfig())
	if err != nil {
		t.Fatal(err)
	}
	g, err := dataset.PaperGraph(db)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := precis.New(db, g)
	if err != nil {
		t.Fatal(err)
	}
	perTuple := float64(heap()-before) / float64(eng.TotalTuples())
	t.Logf("%d tuples, %.1f live bytes per tuple (budget %d)", eng.TotalTuples(), perTuple, liveBytesPerTupleBudget)
	if perTuple > liveBytesPerTupleBudget {
		t.Errorf("%.1f live bytes per tuple, budget %d", perTuple, liveBytesPerTupleBudget)
	}
	runtime.KeepAlive(eng)
}

// TestListBytesCountTheLists holds the list_bytes counts of LayoutStats — what
// /api/stats reports, maintained on the write path — to the lengths of the
// lists themselves, read back through the lookups, after a seeded run of
// deletes and inserts: four bytes for every posting, and for every id under
// a hash-index key that has more than one.
func TestListBytesCountTheLists(t *testing.T) {
	cfg := dataset.DefaultSyntheticConfig()
	cfg.Films = 150
	db, err := dataset.SyntheticMovies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dataset.PaperGraph(db)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := precis.New(db, g)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(26))
	for _, name := range db.RelationNames() {
		for _, tu := range db.Relation(name).Tuples() {
			op := r.Intn(4)
			if storage.CheckWrite([]*storage.Database{db}, 0, storage.WriteDelete, name, tu.ID, nil) != nil {
				op = -1 // a tuple a foreign key still needs is not deleted
			}
			switch op {
			case 0:
				if ok, err := eng.Delete(name, tu.ID); !ok || err != nil {
					t.Fatalf("delete %s/%d: %v, %v", name, tu.ID, ok, err)
				}
			case 1: // back under a fresh id, so lists shrink at any position and grow at the end
				if _, err := eng.Delete(name, tu.ID); err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Insert(name, tu.Values...); err != nil {
					t.Fatalf("re-insert into %s: %v", name, err)
				}
			}
		}
	}
	postings, listed := 0, 0
	tokens := map[string]bool{}
	for _, name := range db.RelationNames() {
		rel := db.Relation(name)
		rel.Scan(func(tu storage.Tuple) bool {
			for i, col := range rel.Schema().Columns {
				if col.Type == storage.TypeString && !tu.Values[i].IsNull() {
					for _, tok := range invidx.Tokenize(tu.Values[i].AsString()) {
						tokens[tok] = true
					}
				}
			}
			return true
		})
		for _, col := range rel.IndexedColumns() {
			ci, keys := rel.Schema().ColumnIndex(col), map[storage.Value]bool{}
			rel.ScanRows(func(_ storage.TupleID, row storage.Row) bool {
				keys[row.Value(ci)] = true
				return true
			})
			for k := range keys {
				if ids, _ := rel.Lookup(col, k); len(ids) > 1 {
					listed += len(ids)
				}
			}
		}
	}
	for tok := range tokens {
		for _, o := range eng.Index().Lookup(tok) {
			postings += len(o.TupleIDs)
		}
	}
	st := eng.LayoutStats()
	t.Logf("%d tuples: %d postings, %d ids in hash-index lists: %+v", eng.TotalTuples(), postings, listed, st)
	if postings == 0 || listed == 0 || st.Index.Postings != postings || st.Index.ListBytes != 4*postings || st.Storage.ListBytes != 4*listed {
		t.Errorf("LayoutStats = %+v, want %d postings at 4 bytes and %d listed ids at 4 bytes", st, postings, listed)
	}
}

// TestRowBytesCountTheRows holds the row_bytes count of LayoutStats — what
// /api/stats reports, maintained on the write path — to a recount of the
// records by their format after a seeded run of inserts, updates and deletes:
// a kind byte per column padded to eight, a word per column, the text, rounded
// to a word. A sharded engine given the same writes holds the same tuples
// across its shards and reports the same count.
func TestRowBytesCountTheRows(t *testing.T) {
	cfg := dataset.DefaultSyntheticConfig()
	cfg.Films = 150
	var engines []*precis.Engine
	for _, build := range []func(*storage.Database, *schemagraph.Graph) (*precis.Engine, error){precis.New,
		func(db *storage.Database, g *schemagraph.Graph) (*precis.Engine, error) {
			return precis.NewSharded(db, g, precis.ShardedConfig{Shards: 4, Partitioner: "hash"})
		}} {
		db, err := dataset.SyntheticMovies(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, err := dataset.PaperGraph(db)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := build(db, g)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, eng)
	}
	single := engines[0].Database()
	r := rand.New(rand.NewSource(30))
	for _, name := range single.RelationNames() {
		for _, tu := range single.Relation(name).Tuples() {
			op, vals := r.Intn(5), slices.Clone(tu.Values)
			if op < 2 && storage.CheckWrite([]*storage.Database{single}, 0, storage.WriteDelete, name, tu.ID, nil) != nil {
				op = -1 // a tuple a foreign key still needs is not deleted
			}
			for i, v := range vals {
				if v.Kind() == storage.KindString && op == 2 {
					vals[i] = storage.String(strings.Repeat(v.AsString(), 1+r.Intn(3)))
				}
			}
			for _, eng := range engines {
				var err error
				switch op {
				case 0:
					_, err = eng.Delete(name, tu.ID)
				case 1: // back under a fresh id
					if _, err = eng.Delete(name, tu.ID); err == nil {
						_, err = eng.Insert(name, vals...)
					}
				case 2:
					err = eng.Update(name, tu.ID, vals)
				}
				if err != nil {
					t.Fatalf("%s/%d, op %d: %v", name, tu.ID, op, err)
				}
			}
		}
	}
	want := 0
	for _, name := range single.RelationNames() {
		single.Relation(name).Scan(func(tu storage.Tuple) bool {
			size := (len(tu.Values)+7)&^7 + 8*len(tu.Values)
			for _, v := range tu.Values {
				size += len(v.AsString())
			}
			want += (size + 7) &^ 7
			return true
		})
	}
	for i, eng := range engines {
		st := eng.LayoutStats()
		t.Logf("%d tuples: %d bytes of records, %+v", eng.TotalTuples(), want, st.Storage)
		if st.Storage.RowBytes != want || want == 0 {
			t.Errorf("engine %d: row_bytes = %d, the records hold %d", i, st.Storage.RowBytes, want)
		}
	}
}

// A deep-shaped answer — the busiest director of the default synthetic
// dataset at w=0.05, card=150: 760 tuples over every relation of the graph,
// narrated — may allocate this much through Engine.QueryStringContext,
// uncached: 10 % above the 113 KiB / 200 allocations (NaïveQ) and
// 125 KiB / 206 (Round-Robin) measured when a query came to run on the
// caller's goroutine alone, its fetches charging the generation as they ran
// (115 KiB / 225 and 127 KiB / 231 before, when a statement stopped being a
// WHERE tree compiled into closures; 116 KiB / 292 and 127 KiB / 253 before
// that; that
// was measured when D′ stopped being a second database — its relations keep
// the fetched rows and ids, an id set and one sorted join index per column,
// built once — and the generator came to read driving values into buffers
// every batch reuses). It was 140 KiB / 348 and
// 161 KiB / 310 with D′ a batch database (slots, id tables, key indexes and
// sorted runs merged batch by batch); 155 KiB / 365 and 174 KiB / 326 before
// G′, D′'s layout and the join order came to be computed once per schema
// graph instead of once per request; 175 KiB / 676 and 193 KiB / 637 when an
// answer came to borrow the base rows instead of copying them (at w=0.05
// every fetched row is the whole stored row) and a relation node to hand out
// its projection list instead of a copy per expansion; 253 KiB / 687 and 272 KiB / 648 with the rows
// of a fetch carved out of one array per statement, D′ adopting it in one
// batch insert and indexing it as sorted runs; 286 KiB / 2,067 and
// 308 KiB / 1,945 with a row, a validation and a
// map update per tuple; 311 KiB / 2,084 and 535 KiB / 2,167 with a statement
// result per cursor probe; 363 KiB / 2,930 and 586 KiB / 3,020 with a string
// per value, clause and paragraph; and 552 KiB / 3,990 and 729 KiB / 5,440
// before each answer tuple was materialised once. What is left is D′ itself
// (its id sets, join indexes and the rows and ids of the statements that
// fetched it), the driving values and the narrative. Raise a bound only with an
// allocation profile that says which holder grew (EXPERIMENTS.md, "Allocated
// bytes per answer").
var deepAnswerAllocBudget = map[precis.Strategy]struct{ kib, allocs float64 }{
	precis.StrategyNaive:      {kib: 125, allocs: 220},
	precis.StrategyRoundRobin: {kib: 138, allocs: 227},
}

// What web.Server may add to one such answer on /api/search, measured as the
// handler's allocations less the engine call's: 28 allocations (request
// parsing — once: 37 while parseOptions parsed the URL again — admission, the
// per-request timeout; 58 while every relation's display columns were a fresh
// slice) plus 15 %, and 1 to 8 KiB — the 26 KB body is assembled in a pooled buffer,
// which costs nothing unless the goroutine changes processor mid-test and
// grows a second one (60 KB over 20 answers), hence the bound of 12. It was
// 66 KiB / 980 when the handler copied D′ into a [][]string for encoding/json
// to walk.
const (
	searchResponseKiBBudget    = 12
	searchResponseAllocsBudget = 33
)

// What nlg may allocate to narrate that answer: 10 % above the 17 measured
// when the narration plan came to be compiled once per G′ and the per-call
// state to be pooled (it was 25).
const deepNarrativeAllocsBudget = 19

// deepEngine is the engine the allocation pins query: the annotated default
// synthetic dataset, and the quoted name of its busiest director.
func deepEngine(t *testing.T) (*precis.Engine, string) {
	t.Helper()
	return deepEngineOn(t, precis.New)
}

// deepEngineOn is deepEngine on the engine shape build makes of that dataset.
func deepEngineOn(t *testing.T, build func(*storage.Database, *schemagraph.Graph) (*precis.Engine, error)) (*precis.Engine, string) {
	t.Helper()
	db, err := dataset.SyntheticMovies(dataset.DefaultSyntheticConfig())
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
	eng, err := build(db, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range dataset.StandardMacros() {
		if err := eng.DefineMacro(def); err != nil {
			t.Fatal(err)
		}
	}
	return eng, `"` + busiestDirector(db) + `"`
}

// allocPerRun is the KiB and the allocations of one call of run, averaged
// over 20 after a first one (template parses, pooled buffers grown). The
// collector is off meanwhile: a cycle empties sync.Pool, and how many cycles
// 20 answers take is the heap's business, not the code's.
func allocPerRun(run func()) (kib, allocs float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run()
	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / rounds / 1024, float64(after.Mallocs-before.Mallocs) / rounds
}

// pinDeepAnswer measures the deep-shaped answer of eng to query under strat —
// w=0.05, card=150 — and holds it to budget.
func pinDeepAnswer(t *testing.T, eng *precis.Engine, query string, strat precis.Strategy, budget struct{ kib, allocs float64 }) (opts precis.Options, kib, allocs float64) {
	t.Helper()
	opts = precis.Options{
		Degree:      precis.MinPathWeight(0.05),
		Cardinality: precis.MaxTuplesPerRelation(150),
		Strategy:    strat,
	}
	tuples := 0
	kib, allocs = allocPerRun(func() {
		ans, err := eng.QueryStringContext(context.Background(), query, opts)
		if err != nil || ans.Narrative == "" {
			t.Fatalf("%v: %v", strat, err)
		}
		tuples = ans.Database.TotalTuples()
	})
	t.Logf("%v: %d tuples, %.0f KiB and %.0f allocations per answer (budget %.0f KiB, %.0f)",
		strat, tuples, kib, allocs, budget.kib, budget.allocs)
	if tuples < 500 {
		t.Errorf("%v: only %d tuples: not a deep-shaped answer", strat, tuples)
	}
	if kib > budget.kib || allocs > budget.allocs {
		t.Errorf("%v: %.0f KiB and %.0f allocations per answer, budget %.0f KiB and %.0f",
			strat, kib, allocs, budget.kib, budget.allocs)
	}
	return opts, kib, allocs
}

// TestAllocPerDeepAnswer pins what one deep answer allocates, so a copy of
// the answer's tuples cannot creep back unnoticed. scripts/ci.sh runs it in
// the non-race step next to TestLiveBytesPerTuple.
func TestAllocPerDeepAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	eng, query := deepEngine(t)
	for _, strat := range []precis.Strategy{precis.StrategyNaive, precis.StrategyRoundRobin} {
		opts, kib, allocs := pinDeepAnswer(t, eng, query, strat, deepAnswerAllocBudget[strat])
		// A budget that never trips costs next to nothing: the tracker counts
		// tuples and reads the clock, and measures the bytes it charges without
		// rendering a value.
		opts.Budget = precis.Budget{Deadline: time.Now().Add(time.Hour), MaxResultBytes: 1 << 30}
		bkib, ballocs := allocPerRun(func() {
			if ans, err := eng.QueryStringContext(context.Background(), query, opts); err != nil || ans.Partial {
				t.Fatalf("%v, budgeted: partial or failed: %v", strat, err)
			}
		})
		if bkib > 1.02*kib || ballocs > 1.02*allocs {
			t.Errorf("%v: %.0f KiB and %.0f allocations under a budget that never trips, %.0f and %.0f without one",
				strat, bkib, ballocs, kib, allocs)
		}
	}
}

// What the same two answers may allocate on NewSharded(4, "hash"): 10 % above
// the 160 KiB / 510 allocations (NaïveQ) and 206 KiB / 586 (Round-Robin)
// measured when a scatter came to visit its shards in turn on the query's
// goroutine instead of sharing them out to a pool per statement (164 KiB /
// 589 and 214 KiB / 710 before, when a statement stopped being a WHERE tree
// each shard compiled into closures; 169 KiB / 746 and 217 KiB / 821 before
// that, when D′ stopped being a second database; it was 187 KiB / 799 and
// 244 KiB / 874 before that; 211 KiB / 825 and 265 KiB / 901 when a rowid
// fetch came to be bucketed by owner and every gather to be a merge by
// position; 264 KiB / 930 and 369 KiB / 1,094 with every listed id sent to
// every owner and the rows put back in order through a map or a sort). Over
// the single engine's answer that is, per statement, what four shards
// allocate to execute it where one did, the scatter (a result slot per
// shard), a rowid list's owners and buckets with a narrowed statement per
// shard, and the merged rows and ids.
var shardedDeepAnswerAllocBudget = map[precis.Strategy]struct{ kib, allocs float64 }{
	precis.StrategyNaive:      {kib: 176, allocs: 561},
	precis.StrategyRoundRobin: {kib: 227, allocs: 645},
}

// TestAllocPerShardedDeepAnswer is TestAllocPerDeepAnswer's pin for the
// scatter/gather path, whose allocations the benchmark gates on its sharded
// workload. scripts/ci.sh runs it in the non-race step.
func TestAllocPerShardedDeepAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	eng, query := deepEngineOn(t, func(db *storage.Database, g *schemagraph.Graph) (*precis.Engine, error) {
		return precis.NewSharded(db, g, precis.ShardedConfig{Shards: 4, Partitioner: "hash"})
	})
	for _, strat := range []precis.Strategy{precis.StrategyNaive, precis.StrategyRoundRobin} {
		pinDeepAnswer(t, eng, query, strat, shardedDeepAnswerAllocBudget[strat])
	}
}

// What a browse-shaped answer — a quoted name under the default constraints,
// some 40 tuples — may allocate through Engine.QueryStringContext, uncached,
// with one seed relation and with two: 15 % above the 12.5 KiB / 115
// allocations and 13.7 KiB / 143 measured when a query came to run on the
// caller's goroutine alone, its terms looked up in a plain loop (13.5 KiB /
// 129 and 14.8 KiB / 158 before, when a statement stopped being a WHERE tree
// compiled into closures; 13.8 KiB / 149 and 15.1 KiB / 180 before that,
// when D′ stopped being a second database; 18.2 KiB / 187 and
// 19.3 KiB / 218 before that; 22.2 KiB / 202 and
// 23.5 KiB / 238 before G′, D′'s layout and the join order came to be computed
// once per schema graph instead of once per request; 31.9 KiB / 365 and
// 35.5 KiB / 423 before that). At this size the fixed costs are the answer:
// what is left is the request's own — terms, occurrences and seed ids, the
// statements and their results, D′'s id sets and join indexes, the
// translator's frames and the narrative.
var browseAnswerAllocBudget = map[int]struct{ kib, allocs float64 }{
	1: {kib: 14.4, allocs: 133},
	2: {kib: 15.8, allocs: 165},
}

// TestAllocPerBrowseAnswer pins what a small answer allocates, so that work
// that depends on the schema alone cannot creep back into every request.
// scripts/ci.sh runs it in the non-race step.
func TestAllocPerBrowseAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	eng, _ := deepEngine(t)
	first := func(rel, col string) string { // the quoted col of rel's first tuple
		r, v := eng.Database().Relation(rel), ""
		r.Scan(func(tu storage.Tuple) bool {
			v = `"` + tu.Values[r.Schema().ColumnIndex(col)].AsString() + `"`
			return false
		})
		return v
	}
	title, actor := first("MOVIE", "title"), first("ACTOR", "aname")
	for seedRels, query := range map[int]string{1: actor, 2: title + " " + actor} {
		tuples := 0
		kib, allocs := allocPerRun(func() {
			ans, err := eng.QueryStringContext(context.Background(), query, precis.Options{})
			if err != nil || ans.Narrative == "" || len(ans.Schema.Seeds) != seedRels {
				t.Fatalf("%s: %d seed relations, want %d: %v", query, len(ans.Schema.Seeds), seedRels, err)
			}
			tuples = ans.Database.TotalTuples()
		})
		budget := browseAnswerAllocBudget[seedRels]
		t.Logf("%d seed relation(s): %d tuples, %.1f KiB and %.0f allocations per answer (budget %.1f KiB, %.0f)",
			seedRels, tuples, kib, allocs, budget.kib, budget.allocs)
		if kib > budget.kib || allocs > budget.allocs {
			t.Errorf("%d seed relation(s): %.1f KiB and %.0f allocations per answer, budget %.1f KiB and %.0f",
				seedRels, kib, allocs, budget.kib, budget.allocs)
		}
	}
}

// TestMemoIsBounded: 1,000 distinct weight bounds — what a client can send as
// w= — leave no more G′s on the graph than its memo's capacity, and the heap
// where it was.
func TestMemoIsBounded(t *testing.T) {
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := precis.New(db, g)
	if err != nil {
		t.Fatal(err)
	}
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	query := func(i int) {
		if _, err := eng.QueryString("Woody Allen", precis.Options{Degree: precis.MinPathWeight(float64(i) / 1000), SkipNarrative: true}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // fill the memo once before measuring
		query(i)
	}
	before := live()
	for i := 0; i < 1000; i++ {
		query(i)
		if _, _, n := eng.Graph().MemoStats(); n > 64 {
			t.Fatalf("after %d distinct bounds the graph keeps %d result schemas", i+1, n)
		}
	}
	_, misses, _ := eng.Graph().MemoStats()
	if misses < 1000 {
		t.Fatalf("%d misses: the bounds were not distinct keys", misses)
	}
	if raceEnabled {
		return // the detector's shadow memory is in HeapAlloc
	}
	if after := live(); after > before+256<<10 {
		t.Errorf("live heap grew from %d to %d bytes over 1,000 distinct bounds", before, after)
	}
	runtime.KeepAlive(eng)
}

// discardWriter is the cheapest http.ResponseWriter: what the handler
// allocates is then the handler's own.
type discardWriter struct {
	header http.Header
	code   int
	n      int
}

func (w *discardWriter) Header() http.Header  { return w.header }
func (w *discardWriter) WriteHeader(code int) { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.n += len(p)
	return len(p), nil
}

// TestAllocPerSearchResponse pins what the web layer adds to the same deep
// answer on /api/search — the handler's bytes and allocations less those of
// the engine call inside it — so a copy of D′ on the way to the socket (rows
// as [][]string, a reflective encoder, an unpooled body) fails here.
func TestAllocPerSearchResponse(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own and empties sync.Pool at random")
	}
	eng, query := deepEngine(t)
	handler := web.NewServer(eng).Handler() // instruments the engine: both sides are measured after it
	target := "/api/search?" + url.Values{"q": {query}, "w": {"0.05"}, "card": {"150"}, "strategy": {"naiveq"}}.Encode()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	w := &discardWriter{header: http.Header{}}
	httpKiB, httpAllocs := allocPerRun(func() {
		*w = discardWriter{header: w.header}
		handler.ServeHTTP(w, req)
		if w.code != http.StatusOK || w.n < 20_000 {
			t.Fatalf("status %d, %d bytes", w.code, w.n)
		}
	})
	opts := precis.Options{
		Degree:      precis.MinPathWeight(0.05),
		Cardinality: precis.MaxTuplesPerRelation(150),
		Strategy:    precis.StrategyNaive,
	}
	engKiB, engAllocs := allocPerRun(func() {
		if _, err := eng.QueryStringContext(context.Background(), query, opts); err != nil {
			t.Fatal(err)
		}
	})
	kib, allocs := httpKiB-engKiB, httpAllocs-engAllocs
	t.Logf("%d-byte body: %.1f KiB and %.0f allocations on top of the engine's %.0f KiB and %.0f (budget %d KiB, %d)",
		w.n, kib, allocs, engKiB, engAllocs, searchResponseKiBBudget, searchResponseAllocsBudget)
	if kib > searchResponseKiBBudget || allocs > searchResponseAllocsBudget {
		t.Errorf("the web layer adds %.1f KiB and %.0f allocations per response, budget %d KiB and %d",
			kib, allocs, searchResponseKiBBudget, searchResponseAllocsBudget)
	}
}

// TestAllocPerDeepNarrative pins the translator's share of the same deep
// answer — the query with its narrative less the query without — so per-call
// metadata rebuilt piecemeal (a struct, a column map and an upper-cased name
// per relation: 73 allocations once) or a plan compiled per request fails
// here. What is left is the two stacks' growth and the string returned.
func TestAllocPerDeepNarrative(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own and empties sync.Pool at random")
	}
	eng, query := deepEngine(t)
	opts := precis.Options{
		Degree:      precis.MinPathWeight(0.05),
		Cardinality: precis.MaxTuplesPerRelation(150),
		Strategy:    precis.StrategyNaive,
	}
	run := func() {
		if _, err := eng.QueryStringContext(context.Background(), query, opts); err != nil {
			t.Fatal(err)
		}
	}
	_, narrated := allocPerRun(run)
	opts.SkipNarrative = true
	_, bare := allocPerRun(run)
	t.Logf("the narrative adds %.0f allocations to the answer's %.0f (budget %d)", narrated-bare, bare, deepNarrativeAllocsBudget)
	if narrated-bare > deepNarrativeAllocsBudget {
		t.Errorf("the translator allocates %.0f times per deep narrative, budget %d", narrated-bare, deepNarrativeAllocsBudget)
	}
}

// busiestDirector returns the name of the director with the most films.
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
