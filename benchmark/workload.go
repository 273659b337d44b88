package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/url"
	"sort"

	"precis"
	"precis/internal/dataset"
	"precis/internal/storage"
)

// The four workloads. Names are part of BENCHMARK.json and do not change.
const (
	wlBrowse  = "browse"
	wlDeep    = "deep"
	wlSharded = "sharded"
	wlChurn   = "churn"
)

var workloadNames = []string{wlBrowse, wlDeep, wlSharded, wlChurn}

// workloadSpec fixes everything about a workload except its inputs.
type workloadSpec struct {
	name string
	// readsPerSecond sizes the read list: reads = readsPerSecond × -seconds,
	// so the measured phase lasts about -seconds calibrated seconds.
	readsPerSecond int
	// kernelEvery is k: one reference-kernel call after every k reads.
	kernelEvery int
	// writeEvery interleaves one write after every writeEvery-1 reads
	// (churn). Zero appends the writes as a block after the reads instead,
	// so that the read phase stays read-only.
	writeEvery int
	// tailWritesPerSecond sizes that trailing write block.
	tailWritesPerSecond int
	shards              int
	persist             bool
	cacheEntries        int
}

var specs = map[string]workloadSpec{
	wlBrowse:  {name: wlBrowse, readsPerSecond: 1600, kernelEvery: 16, tailWritesPerSecond: 2000},
	wlDeep:    {name: wlDeep, readsPerSecond: 150, kernelEvery: 2, tailWritesPerSecond: 2000},
	wlSharded: {name: wlSharded, readsPerSecond: 100, kernelEvery: 1, tailWritesPerSecond: 2000, shards: 4},
	wlChurn:   {name: wlChurn, readsPerSecond: 1950, kernelEvery: 16, writeEvery: 40, persist: true, cacheEntries: 256},
}

const (
	// busyDirectorNames is the size of deep's name pool.
	busyDirectorNames = 250
	// writeKernelEvery is one kernel call after this many writes.
	writeKernelEvery = 100
	// churnCheckpoints is how many Engine.Checkpoint calls a churn run
	// makes, evenly spaced over its writes: with the default CompactEvery
	// of 8 that is seven deltas, one compaction and two more deltas.
	churnCheckpoints = 10
	// churnHotSet is the number of hot terms churn reads draw 80% of their
	// terms from between two writes. Tuned once so that anscache.hit_ratio
	// lands in 0.25–0.50 (0.37); changing it is a benchmark-version change.
	churnHotSet = 12
	// benchGenres is how many distinct genre strings bench writes cycle
	// through, so index maintenance sees both new and known tokens.
	benchGenres = 977
)

// scale is the size of a run: the dataset and the length of the op lists.
type scale struct {
	cfg     dataset.SyntheticConfig
	seconds int
	// fixedOps, when positive, overrides the per-second sizing: every
	// workload gets this many reads (the -smoke mode).
	fixedOps int
}

// paperScale reports whether the run has the size its numbers are defined
// at; -smoke runs do not, and skip the checks that depend on it.
func (s scale) paperScale() bool { return s.fixedOps == 0 }

func (s scale) reads(sp workloadSpec) int {
	if s.fixedOps > 0 {
		return s.fixedOps
	}
	return sp.readsPerSecond * s.seconds
}

func (s scale) tailWrites(sp workloadSpec) int {
	if sp.writeEvery > 0 {
		return 0
	}
	if s.fixedOps > 0 {
		return s.fixedOps / 4
	}
	return sp.tailWritesPerSecond * s.seconds
}

type opKind uint8

const (
	opRead opKind = iota
	opInsert
	opDelete // deletes the oldest live bench row
)

// request is one GET /api/search, with the engine options its URL parses to
// so the replay can run the same query below the web layer.
type request struct {
	path  string // path and query string
	query string // the q parameter, unescaped
	opts  precis.Options
}

// op is one operation of a workload's list.
type op struct {
	kind  opKind
	req   *request // opRead
	mid   int64    // opInsert: the film the genre row is added to
	genre string   // opInsert
}

// termPools are the strings requests are made of, read from the generated
// dataset before the program sees it. Every term occurs in the data, so
// every request matches.
type termPools struct {
	titles    []string
	actors    []string // distinct, sorted
	directors []string // distinct, sorted
	// busyDirectors are the busyDirectorNames director names with the most
	// films directed under them: about the top decile at paper scale. A
	// fixed number, so that deep's read list is a whole number of laps
	// through them.
	busyDirectors []string
	films         int
}

func column(db *storage.Database, rel, col string) []storage.Value {
	r := db.Relation(rel)
	ci := r.Schema().ColumnIndex(col)
	out := make([]storage.Value, 0, r.Len())
	r.Scan(func(t storage.Tuple) bool {
		out = append(out, t.Values[ci])
		return true
	})
	return out
}

func distinctSorted(vals []storage.Value) []string {
	seen := make(map[string]bool, len(vals))
	var out []string
	for _, v := range vals {
		if s := v.AsString(); !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

func newTermPools(db *storage.Database) termPools {
	var p termPools
	for _, v := range column(db, "MOVIE", "title") {
		p.titles = append(p.titles, v.AsString())
	}
	p.films = len(p.titles)
	p.actors = distinctSorted(column(db, "ACTOR", "aname"))
	p.directors = distinctSorted(column(db, "DIRECTOR", "dname"))

	nameOf := make(map[int64]string)
	dids, dnames := column(db, "DIRECTOR", "did"), column(db, "DIRECTOR", "dname")
	for i := range dids {
		nameOf[dids[i].AsInt()] = dnames[i].AsString()
	}
	filmsBy := make(map[string]int)
	for _, did := range column(db, "MOVIE", "did") {
		filmsBy[nameOf[did.AsInt()]]++
	}
	byFilms := append([]string(nil), p.directors...)
	sort.SliceStable(byFilms, func(i, j int) bool { return filmsBy[byFilms[i]] > filmsBy[byFilms[j]] })
	n := busyDirectorNames
	if n > len(byFilms) {
		n = len(byFilms)
	}
	p.busyDirectors = byFilms[:n]
	return p
}

// cycler hands out the items of a pool in shuffled order, every item once
// before any item twice. Drawing this way instead of independently keeps a
// workload's mean cost the same from seed to seed: a list of n draws holds
// every item n/len times, and only the order and the remainder vary.
type cycler struct {
	r     *rand.Rand
	items []string
	perm  []int
	pos   int
	laps  int
}

func newCycler(r *rand.Rand, items []string) *cycler { return &cycler{r: r, items: items} }

func (c *cycler) next() string {
	if c.pos == len(c.perm) {
		if c.perm != nil {
			c.laps++
		}
		c.perm, c.pos = c.r.Perm(len(c.items)), 0
	}
	c.pos++
	return c.items[c.perm[c.pos-1]]
}

// termSource draws browse-shaped term lists: titles, actor names and
// director names.
type termSource struct{ pools [3]*cycler }

func newTermSource(r *rand.Rand, p termPools) *termSource {
	return &termSource{pools: [3]*cycler{newCycler(r, p.titles), newCycler(r, p.actors), newCycler(r, p.directors)}}
}

// terms returns the terms of the i-th browse-shaped request: one term, its
// relation rotating with i, or (every fourth request) two terms from two
// different relations.
func (t *termSource) terms(i int) []string {
	a := i % 3
	terms := []string{t.pools[a].next()}
	if i%4 == 3 {
		b := (a + 1 + (i/12)%2) % 3
		terms = append(terms, t.pools[b].next())
	}
	return terms
}

func searchRequest(terms []string, params string, opts precis.Options) *request {
	q := ""
	for i, t := range terms {
		if i > 0 {
			q += " "
		}
		q += `"` + t + `"`
	}
	return &request{path: "/api/search?q=" + url.QueryEscape(q) + params, query: q, opts: opts}
}

// deepRequest asks for one busy director under loose constraints; the
// strategy alternates, and alternates the other way on every lap through
// the names so each name is asked under both.
func deepRequest(names *cycler, i int) *request {
	name := names.next()
	opts := precis.Options{Degree: precis.MinPathWeight(0.05), Cardinality: precis.MaxTuplesPerRelation(150)}
	if (i+names.laps)%2 == 0 {
		opts.Strategy = precis.StrategyNaive
		return searchRequest([]string{name}, "&w=0.05&card=150&strategy=naiveq", opts)
	}
	opts.Strategy = precis.StrategyRoundRobin
	return searchRequest([]string{name}, "&w=0.05&card=150&strategy=roundrobin", opts)
}

// churnTerms draws like termSource.terms, but each term comes from the hot
// set with probability 0.8 (quadratic skew towards its head) and from the
// whole pools otherwise.
func churnTerms(r *rand.Rand, src *termSource, hot []string, i int) []string {
	pick := func(j int) string {
		if r.Float64() < 0.8 {
			u := r.Float64()
			return hot[int(u*u*float64(len(hot)))]
		}
		return src.pools[j%3].next()
	}
	terms := []string{pick(i)}
	if i%4 == 3 {
		for {
			if t := pick(i + 1); t != terms[0] {
				return append(terms, t)
			}
		}
	}
	return terms
}

func writeOp(r *rand.Rand, p termPools, n int) op {
	if n%3 == 2 {
		return op{kind: opDelete}
	}
	return op{kind: opInsert, mid: 1 + int64(r.Intn(p.films)), genre: fmt.Sprintf("Bench %d", n%benchGenres)}
}

// generateOps builds a workload's op lists from the seed: the main list the
// measured phase runs, and the trailing write block (empty for churn, whose
// writes are interleaved in main). sharded draws exactly the requests deep
// draws, so its answers can be compared to deep's.
func generateOps(sp workloadSpec, p termPools, seed int64, sc scale) (main, tail []op) {
	stream := map[string]int64{wlBrowse: 1, wlDeep: 2, wlSharded: 2, wlChurn: 3}[sp.name]
	r := rand.New(rand.NewSource(seed*1000 + stream))
	reads := sc.reads(sp)
	src := newTermSource(r, p)
	busy := newCycler(r, p.busyDirectors)
	// churn's hot set is redrawn after every write: the write purges the
	// cache anyway, and many hot sets per run keep one seed's luck in the
	// draw of a dozen terms from deciding the run's mean cost.
	var hot []string
	redrawHot := func() {
		hot = hot[:0]
		for j := 0; j < churnHotSet; j++ {
			hot = append(hot, src.pools[j%3].next())
		}
	}
	redrawHot()
	writes := 0
	for i := 0; i < reads; i++ {
		switch sp.name {
		case wlBrowse:
			main = append(main, op{req: searchRequest(src.terms(i), "", precis.Options{})})
		case wlDeep, wlSharded:
			main = append(main, op{req: deepRequest(busy, i)})
		case wlChurn:
			main = append(main, op{req: searchRequest(churnTerms(r, src, hot, i), "", precis.Options{})})
		}
		if sp.writeEvery > 0 && (i+1)%(sp.writeEvery-1) == 0 {
			main = append(main, writeOp(r, p, writes))
			writes++
			redrawHot()
		}
	}
	for n := 0; n < sc.tailWrites(sp); n++ {
		tail = append(tail, writeOp(r, p, n))
	}
	return main, tail
}

// readRequests returns the requests of the list's reads, in order.
func readRequests(ops []op) []*request {
	var reads []*request
	for _, o := range ops {
		if o.kind == opRead {
			reads = append(reads, o.req)
		}
	}
	return reads
}

func countOps(ops []op) (reads, writes int) {
	for _, o := range ops {
		if o.kind == opRead {
			reads++
		} else {
			writes++
		}
	}
	return reads, writes
}

// opsDigest fingerprints op lists: same seed, same digest.
func opsDigest(lists ...[]op) string {
	h := sha256.New()
	for _, ops := range lists {
		for _, o := range ops {
			path := ""
			if o.req != nil {
				path = o.req.path
			}
			fmt.Fprintf(h, "%d|%s|%d|%s\n", o.kind, path, o.mid, o.genre)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
