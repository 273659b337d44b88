package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"precis"
	"precis/internal/core"
	"precis/internal/dataset"
	"precis/internal/invidx"
	"precis/internal/nlg"
	"precis/internal/obs"
	"precis/internal/schemagraph"
	"precis/internal/shard"
	"precis/internal/sqlx"
	"precis/internal/storage"
)

// Span names. A request's spans share its request id; Parent is the id of
// the span that caused this one (-1 for a root).
const (
	spanHTTP       = "web.roundtrip"       // client send to body read
	spanHTTPTraced = "web.roundtrip.trace" // the same with &trace=1
	spanQuery      = "precis.query"        // Engine.QueryStringContext
	spanReplay     = "replay"              // the four stages below
	spanLookup     = "stage.index_lookup"
	spanSchemaGen  = "stage.schema_gen"
	spanDBGen      = "stage.db_gen"
	spanTranslate  = "stage.translate"
	spanIdxProbe   = "invidx.lookup" // child of stage.index_lookup, one per term (and shard)
	spanExec       = "sqlx.exec"     // child of stage.db_gen on the single path, one per ExecStmt
	spanFetch      = "shard.fetch"   // child of stage.db_gen on the sharded path, one per ExecStmt
	spanNaive      = "core.db_gen.naiveq"
	spanRR         = "core.db_gen.roundrobin"
)

// span is one timed interval; times are nanoseconds since the recorder's
// epoch and uncalibrated (divide by the pass's F).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Pass   string `json:"pass"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// spanChunk is how many spans the recorder allocates at a time. A traced
// deep run records half a million spans; growing one slice would copy tens
// of megabytes inside somebody's timed interval.
const spanChunk = 8192

// recorder keeps spans in memory; index-probe spans arrive from worker
// goroutines, hence the lock.
type recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	pass   string
	chunks [][]span
	n      int
}

// append stores s under the next id and the current pass; callers hold mu.
func (r *recorder) append(s span) int {
	s.ID, s.Pass = r.n, r.pass
	if s.ID%spanChunk == 0 {
		r.chunks = append(r.chunks, make([]span, 0, spanChunk))
	}
	last := &r.chunks[len(r.chunks)-1]
	*last = append(*last, s)
	r.n++
	return s.ID
}

func (r *recorder) start(name string, parent, req int) int {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.append(span{Parent: parent, Req: req, Name: name, Start: now})
}

func (r *recorder) end(id int) {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.chunks[id/spanChunk][id%spanChunk].End = now
	r.mu.Unlock()
}

// all returns the recorded spans in id order.
func (r *recorder) all() []span {
	out := make([]span, 0, r.n)
	for _, c := range r.chunks {
		out = append(out, c...)
	}
	return out
}

// timedFetcher is the timing decorator around a core.Fetcher: every
// ExecStmt becomes a child span of the db_gen stage. ExecStmt is called from
// the generator's worker goroutines several hundred times per deep request,
// so the hot path takes no lock: it claims a slot in a buffer sized before
// the stage began and the spans are handed to the recorder afterwards.
// (Through the recorder's lock the decorator alone made the replayed db_gen
// 4–6 % slower than the engine's.)
type timedFetcher struct {
	core.Fetcher
	epoch time.Time
	slots [][2]int64 // start, end
	used  atomic.Int64
}

// stmtSlots is the buffer size: several times the statements of the largest
// request any workload makes. Statements beyond it go untimed and the
// replay reports them as a failure.
const stmtSlots = 8192

func (f *timedFetcher) ExecStmt(st sqlx.Stmt) (*sqlx.Result, error) {
	start := int64(time.Since(f.epoch))
	res, err := f.Fetcher.ExecStmt(st)
	if i := f.used.Add(1) - 1; i < int64(len(f.slots)) {
		f.slots[i] = [2]int64{start, int64(time.Since(f.epoch))}
	}
	return res, err
}

// flush records the buffered statements as children of parent.
func (f *timedFetcher) flush(rec *recorder, name string, parent, req int) error {
	n := f.used.Load()
	if n > int64(len(f.slots)) {
		return fmt.Errorf("replay: %d statements in one request, more than the %d the decorator buffers", n, len(f.slots))
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, iv := range f.slots[:n] {
		rec.append(span{Parent: parent, Req: req, Name: name, Start: iv[0], End: iv[1]})
	}
	return nil
}

// backend is the set of layer objects one replay path calls directly.
type backend struct {
	graph    *schemagraph.Graph
	renderer *nlg.Renderer
	// single path
	db    *storage.Database
	index *invidx.Index
	// sharded path
	part    shard.Partitioner
	dbs     []*storage.Database
	indexes []*invidx.Index
}

func (b *backend) sharded() bool { return b.part != nil }

func newRenderer() (*nlg.Renderer, error) {
	r := nlg.NewRenderer()
	for _, def := range dataset.StandardMacros() {
		if err := r.DefineMacro(def); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// stageCounts are the exact counts one replayed request produced.
type stageCounts struct {
	occurrences, relations, narrativeBytes int
	stats                                  core.GenStats
}

// appendUniqueIDs mirrors the engine's seed merge.
func appendUniqueIDs(dst, ids []storage.TupleID) []storage.TupleID {
	present := make(map[storage.TupleID]bool, len(dst))
	for _, id := range dst {
		present[id] = true
	}
	for _, id := range ids {
		if !present[id] {
			dst = append(dst, id)
			present[id] = true
		}
	}
	sort.Slice(dst, func(i, j int) bool { return dst[i] < dst[j] })
	return dst
}

// replayStages runs one request the way Engine.queryLocked does, but by
// calling the layers' public functions from outside, with a span around
// each. bothStrategies additionally times db_gen under NaïveQ and under
// Round-Robin (outside the four stages).
func replayStages(b *backend, rec *recorder, reqID int, rq *request, bothStrategies bool) (stageCounts, error) {
	var c stageCounts
	root := rec.start(spanReplay, -1, reqID)
	rootOpen := true
	endRoot := func() {
		if rootOpen {
			rec.end(root)
			rootOpen = false
		}
	}
	defer endRoot()
	ctx := context.Background()
	tr := obs.NewTrace() // an instrumented engine allocates one per uncached query
	terms := precis.ParseQuery(rq.query)
	degree, card := rq.opts.Degree, rq.opts.Cardinality
	if degree == nil {
		degree = core.MinPathWeight(0.8)
	}
	if card == nil {
		card = core.MaxTuplesPerRelation(10)
	}
	workers := core.NormalizeWorkers(0)

	id := rec.start(spanLookup, root, reqID)
	sp := tr.StartSpan(obs.StageIndexLookup)
	perTerm := make([][]invidx.Occurrence, len(terms))
	core.ParallelFor(len(terms), workers, func(i int) {
		if !b.sharded() {
			p := rec.start(spanIdxProbe, id, reqID)
			perTerm[i] = b.index.LookupExpanded(terms[i])
			rec.end(p)
			return
		}
		parts := make([][]invidx.Occurrence, len(b.indexes))
		for s, ix := range b.indexes {
			p := rec.start(spanIdxProbe, id, reqID)
			parts[s] = ix.LookupExpanded(terms[i])
			rec.end(p)
		}
		perTerm[i] = shard.MergeOccurrences(parts)
	})
	seeds := make(map[string][]storage.TupleID)
	var seedRels []string
	seen := make(map[string]bool)
	var allOccs []invidx.Occurrence
	occurrences := make(map[string][]invidx.Occurrence)
	for i, term := range terms {
		occs := perTerm[i]
		if len(occs) == 0 {
			continue
		}
		occurrences[term] = occs
		allOccs = append(allOccs, occs...)
		for _, o := range occs {
			c.occurrences += len(o.TupleIDs)
			seeds[o.Relation] = appendUniqueIDs(seeds[o.Relation], o.TupleIDs)
			if !seen[o.Relation] {
				seen[o.Relation] = true
				seedRels = append(seedRels, o.Relation)
			}
		}
	}
	sort.Strings(seedRels)
	sp.End()
	rec.end(id)
	if len(seedRels) == 0 {
		return c, fmt.Errorf("replay of %q: no term matched", rq.query)
	}

	id = rec.start(spanSchemaGen, root, reqID)
	sp = tr.StartSpan(obs.StageSchemaGen)
	rs, err := core.GenerateSchema(b.graph, seedRels, degree)
	if err != nil {
		return c, err
	}
	rs.CopyAnnotations(b.graph)
	sp.End()
	rec.end(id)
	c.relations = len(rs.Relations())

	// dbGen is stage 3. timeStmts wraps the fetcher in the timing decorator
	// so that every ExecStmt becomes a child span.
	dbGen := func(spanName string, parent int, strat precis.Strategy, tr *obs.Trace, timeStmts bool) (*core.ResultDatabase, error) {
		var tf *timedFetcher
		if timeStmts {
			tf = &timedFetcher{epoch: rec.epoch, slots: make([][2]int64, stmtSlots)}
		}
		id := rec.start(spanName, parent, reqID)
		sp := tr.StartSpan(obs.StageDBGen)
		var fetcher core.Fetcher
		var sf *shard.Fetcher
		name := spanExec
		if b.sharded() {
			sf = shard.NewFetcher(b.part, b.dbs, nil)
			fetcher, name = sf, spanFetch
		} else {
			fetcher = sqlx.NewEngine(b.db)
		}
		if tf != nil {
			tf.Fetcher, fetcher = fetcher, tf
		}
		rd, err := core.GenerateDatabaseOpts(fetcher, rs, seeds, card, strat,
			core.DBGenOptions{Workers: workers, Context: ctx, Trace: tr})
		if err == nil && sf != nil {
			sf.RecordTrace(tr)
		}
		sp.End()
		rec.end(id)
		if err == nil && tf != nil {
			err = tf.flush(rec, name, id, reqID)
		}
		return rd, err
	}
	rd, err := dbGen(spanDBGen, root, rq.opts.Strategy, tr, true)
	if err != nil {
		return c, err
	}
	c.stats = rd.Stats

	id = rec.start(spanTranslate, root, reqID)
	sp = tr.StartSpan(obs.StageTranslate)
	narrative, err := b.renderer.Narrative(rd, allOccs)
	if err != nil {
		return c, err
	}
	sp.End()
	tr.Finish()
	rec.end(id)
	c.narrativeBytes = len(narrative)
	endRoot()

	if bothStrategies {
		if _, err := dbGen(spanNaive, -1, precis.StrategyNaive, nil, false); err != nil {
			return c, err
		}
		if _, err := dbGen(spanRR, -1, precis.StrategyRoundRobin, nil, false); err != nil {
			return c, err
		}
	}
	return c, nil
}

// The replay makes two passes over the sampled requests, each with its own
// interleaved kernel calls (one per two executions) and so its own F.
const (
	// passPaired runs four steps — the HTTP round trip, the same with
	// &trace=1, Engine.QueryStringContext, and the stage replay of the
	// engine's own path — block by block: one step over a block of
	// replayBlock requests, then the next step over the same block, the
	// order of the steps rotating from block to block. What the metrics
	// compare (round trip against engine call, engine call against stage
	// sum) is thus measured within a few tens of milliseconds of each other
	// under one F: the steps alternate faster than the machine drifts or a
	// GC cycle lasts, so both hit all four alike. (In separate passes one GC
	// cycle over the traced run's large heap slowed a tenth of one pass and
	// none of the next.) The rotation shares out being first on a block,
	// and so finding its data cold, evenly.
	passPaired = "paired"
	// passOther replays the stages on the path the engine does not use.
	passOther = "other"

	replayBlock = 5
)

// replayResult is the traced run: spans, per-pass calibration, and the exact
// counts per sampled request.
type replayResult struct {
	spans   []span
	factor  map[string]float64 // pass name → F
	engine  []stageCounts      // from Answer, per request
	single  []stageCounts      // from the single-path stage replay
	sharded []stageCounts      // from the sharded-path stage replay
	failed  int
	failure string
}

// sampleReads picks want reads at even spacing (all of them when there are
// fewer).
func sampleReads(ops []op, want int) []*request {
	reads := readRequests(ops)
	if len(reads) <= want {
		return reads
	}
	out := make([]*request, want)
	for i := range out {
		out[i] = reads[i*len(reads)/want]
	}
	return out
}

// passOf names the pass in which the given stage-replay path ran.
func passOf(sp workloadSpec, shardedPath bool) string {
	if shardedPath == (sp.shards > 1) {
		return passPaired
	}
	return passOther
}

// replayer runs the passes over the sample. The answer cache is emptied
// before every execution, so on churn the replay times misses only
// (probeHits times hits).
type replayer struct {
	sys    *system
	cl     *client
	sample []*request
	rec    *recorder
	res    *replayResult
}

func newReplayer(sys *system, cl *client, sample []*request) *replayer {
	return &replayer{sys: sys, cl: cl, sample: sample, rec: &recorder{epoch: time.Now()},
		res: &replayResult{factor: map[string]float64{}}}
}

func (r *replayer) fail(format string, args ...any) {
	r.res.failed++
	if r.res.failure == "" {
		r.res.failure = fmt.Sprintf(format, args...)
	}
}

// sweep runs the steps block by block under one calibrator. prime, when not
// nil, runs untimed over each block first.
func (r *replayer) sweep(pass string, prime func(rq *request), steps ...func(reqID int, rq *request)) {
	r.rec.pass = pass
	var cal calibrator
	executions := 0
	for lo, block := 0, 0; lo < len(r.sample); lo, block = lo+replayBlock, block+1 {
		hi := lo + replayBlock
		if hi > len(r.sample) {
			hi = len(r.sample)
		}
		for i := lo; prime != nil && i < hi; i++ {
			prime(r.sample[i])
		}
		for j := range steps {
			step := steps[(block+j)%len(steps)]
			for i := lo; i < hi; i++ {
				r.sys.eng.InvalidateCache()
				step(i, r.sample[i])
				if executions++; executions%2 == 0 {
					cal.call()
				}
			}
		}
	}
	r.res.factor[pass] = cal.factor()
}

func (r *replayer) roundTrip(spanName, suffix string) func(int, *request) {
	return func(reqID int, rq *request) {
		id := r.rec.start(spanName, -1, reqID)
		status, _, err := r.cl.get(rq.path + suffix)
		r.rec.end(id)
		if err != nil || status != http.StatusOK {
			r.fail("replay GET %s%s: status %d, %v", rq.path, suffix, status, err)
		}
	}
}

func (r *replayer) query(reqID int, rq *request) {
	id := r.rec.start(spanQuery, -1, reqID)
	ans, err := r.sys.eng.QueryStringContext(context.Background(), rq.query, rq.opts)
	r.rec.end(id)
	if err != nil {
		r.fail("replay query %q: %v", rq.query, err)
		r.res.engine = append(r.res.engine, stageCounts{})
		return
	}
	c := stageCounts{relations: len(ans.Schema.Relations()), narrativeBytes: len(ans.Narrative), stats: ans.Stats}
	for _, occs := range ans.Occurrences {
		for _, o := range occs {
			c.occurrences += len(o.TupleIDs)
		}
	}
	r.res.engine = append(r.res.engine, c)
}

func (r *replayer) stages(b *backend) func(int, *request) {
	return func(reqID int, rq *request) {
		c, err := replayStages(b, r.rec, reqID, rq, !b.sharded())
		if err != nil {
			r.fail("%v", err)
		}
		if b.sharded() {
			r.res.sharded = append(r.res.sharded, c)
		} else {
			r.res.single = append(r.res.single, c)
		}
	}
}

// paired runs passPaired; own is the backend that mirrors the engine. When
// own is a copy of the engine's data rather than the data itself (the
// sharded engine keeps its shards private), each block is first run once
// untimed through the engine and through the copy: otherwise the replay,
// alone on its data, would find it cold every time while the three steps that
// share the engine's data warm it for each other, and the stage sum would
// read some 5 % above the engine's time for that reason alone.
func (r *replayer) paired(own *backend, ownIsCopy bool) {
	var prime func(rq *request)
	if ownIsCopy {
		scratch := &recorder{epoch: r.rec.epoch}
		prime = func(rq *request) {
			_, _ = r.sys.eng.QueryStringContext(context.Background(), rq.query, rq.opts)
			_, _ = replayStages(own, scratch, 0, rq, false)
			scratch.chunks, scratch.n = nil, 0
		}
	}
	r.sweep(passPaired, prime, r.roundTrip(spanHTTP, ""), r.roundTrip(spanHTTPTraced, "&trace=1"), r.query, r.stages(own))
}

// other runs passOther on the backend the engine's path does not use.
func (r *replayer) other(b *backend) { r.sweep(passOther, nil, r.stages(b)) }

// result closes the replay.
func (r *replayer) result() *replayResult {
	r.res.spans = r.rec.all()
	return r.res
}

// spanIndex answers the questions the per-layer metrics ask of the spans.
type spanIndex struct {
	spans    []span
	children map[int][]int
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, children: make(map[int][]int)}
	for _, s := range spans {
		if s.Parent >= 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s.ID)
		}
	}
	return ix
}

// self is the span's duration minus the part its children cover.
func (ix *spanIndex) self(s span) float64 {
	var iv [][2]int64
	for _, c := range ix.children[s.ID] {
		iv = append(iv, [2]int64{ix.spans[c].Start, ix.spans[c].End})
	}
	return s.dur() - float64(coveredNS(iv))
}

// perRequest sums value(span) over the spans of the given pass and name, by
// request id, returning one total per request that has such a span.
func (ix *spanIndex) perRequest(pass, name string, n int, value func(span) float64) []float64 {
	totals := make([]float64, n)
	has := make([]bool, n)
	for _, s := range ix.spans {
		if s.Pass == pass && s.Name == name {
			totals[s.Req] += value(s)
			has[s.Req] = true
		}
	}
	var out []float64
	for i := range totals {
		if has[i] {
			out = append(out, totals[i])
		}
	}
	return out
}

func (ix *spanIndex) count(pass, name string) int {
	n := 0
	for _, s := range ix.spans {
		if s.Pass == pass && s.Name == name {
			n++
		}
	}
	return n
}

// writeSpans stores the spans, with the per-pass F needed to calibrate
// them, as one JSON document.
func writeSpans(path string, workload string, seed int64, res *replayResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Unit     string             `json:"unit"`
		Factor   map[string]float64 `json:"factor_by_pass"`
		Spans    []span             `json:"spans"`
	}{workload, seed, "raw ns since the replay began; divide durations by factor_by_pass[pass] for calibrated ns", res.factor, res.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
