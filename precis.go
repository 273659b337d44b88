// Package precis implements précis queries over relational databases, a
// faithful reproduction of "Précis: The Essence of a Query Answer"
// (Koutrika, Simitsis, Ioannidis — ICDE 2006).
//
// A précis query is a free-form set of tokens. Its answer is not a flat
// relation but a whole new database — a sub-database of the original with
// its own schema, constraints and contents — containing the tuples matching
// the tokens plus information implicitly related to them, selected by
// weights on the database schema graph and bounded by degree (schema size)
// and cardinality (data size) constraints. The answer can additionally be
// rendered as a natural-language narrative.
//
// Basic use:
//
//	db, graph, _ := dataset.ExampleMovies()   // or build your own
//	eng, _ := precis.New(db, graph)
//	ans, _ := eng.Query([]string{"Woody Allen"}, precis.Options{
//		Degree:      precis.MinPathWeight(0.9),
//		Cardinality: precis.MaxTuplesPerRelation(3),
//	})
//	fmt.Println(ans.Narrative)
package precis

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"precis/internal/anscache"
	"precis/internal/core"
	"precis/internal/costmodel"
	"precis/internal/invidx"
	"precis/internal/nlg"
	"precis/internal/obs"
	"precis/internal/profile"
	"precis/internal/schemagraph"
	"precis/internal/storage"
	"precis/internal/wal"
)

// ErrNoMatches is returned when no query token occurs in the database.
var ErrNoMatches = errors.New("precis: no token matched the database")

// ErrInternal wraps a panic recovered at the engine boundary: the query
// failed, but the process — and every other in-flight query — survives. The
// wrapped message carries the panic value and the stack of the panicking
// goroutine — the one that asked the query — so one poisoned tuple can be
// diagnosed without taking the server down.
var ErrInternal = errors.New("precis: internal error")

// Re-exported constraint and strategy types. The concrete constructors
// below build the constraints of the paper's Tables 1 and 2.
type (
	// DegreeConstraint bounds the result schema (paper Table 1).
	DegreeConstraint = core.DegreeConstraint
	// CardinalityConstraint bounds the result data (paper Table 2).
	CardinalityConstraint = core.CardinalityConstraint
	// Strategy selects NaïveQ vs Round-Robin tuple retrieval.
	Strategy = core.Strategy
	// Profile is a stored personalization (weights + default constraints).
	Profile = profile.Profile
	// TupleWeights assigns per-tuple importance (the paper's §7 extension):
	// when the cardinality budget forces a choice, heavier tuples survive.
	TupleWeights = core.TupleWeights
	// Budget bounds the physical resources of one query (wall deadline,
	// materialized tuples, join steps, approximate result bytes). An
	// exhausted budget does not fail the query: the answer built so far is
	// returned with Answer.Partial set and the budget dimension that ran
	// out in Answer.Truncation.
	Budget = core.Budget
	// TruncationReason names the budget dimension that truncated a partial
	// answer.
	TruncationReason = core.TruncationReason
)

// Truncation reasons reported in Answer.Truncation.
const (
	TruncateNone        = core.TruncateNone
	TruncateDeadline    = core.TruncateDeadline
	TruncateTupleBudget = core.TruncateTupleBudget
	TruncateStepBudget  = core.TruncateStepBudget
	TruncateByteBudget  = core.TruncateByteBudget
)

// Retrieval strategies (paper §5.2).
const (
	StrategyAuto       = core.StrategyAuto
	StrategyNaive      = core.StrategyNaive
	StrategyRoundRobin = core.StrategyRoundRobin
)

// TopProjections keeps the r top-weighted projection paths.
func TopProjections(r int) DegreeConstraint { return core.TopProjections(r) }

// MaxAttributes bounds the number of distinct projected attributes.
func MaxAttributes(n int) DegreeConstraint { return core.MaxAttributes(n) }

// MinPathWeight keeps projections whose transitive path weight is >= w.
func MinPathWeight(w float64) DegreeConstraint { return core.MinPathWeight(w) }

// MaxPathLength keeps projection paths of length at most l.
func MaxPathLength(l int) DegreeConstraint { return core.MaxPathLength(l) }

// AllDegree combines degree constraints conjunctively.
func AllDegree(cs ...DegreeConstraint) DegreeConstraint { return core.AllDegree(cs...) }

// MaxTuplesPerRelation caps every result relation at c tuples.
func MaxTuplesPerRelation(c int) CardinalityConstraint { return core.MaxTuplesPerRelation(c) }

// MaxTotalTuples caps the whole result database at c tuples.
func MaxTotalTuples(c int) CardinalityConstraint { return core.MaxTotalTuples(c) }

// Unlimited imposes no cardinality bound.
func Unlimited() CardinalityConstraint { return core.Unlimited() }

// AllCardinality combines cardinality constraints conjunctively.
func AllCardinality(cs ...CardinalityConstraint) CardinalityConstraint {
	return core.AllCardinality(cs...)
}

// TimeBudget converts a response-time budget into a per-relation
// cardinality constraint via the paper's Formula 3, using calibrated engine
// parameters and the expected number of relations in the result.
func TimeBudget(params costmodel.Params, budget time.Duration, relations int) CardinalityConstraint {
	return core.MaxTuplesPerRelation(costmodel.SolveCR(params, budget, relations))
}

// Engine answers précis queries over one database + annotated schema graph.
// Queries may run concurrently; mutations (Insert, Delete, DefineMacro,
// AddProfile, SetTupleWeights) are serialized against them internally, and
// every accepted mutation invalidates the answer cache so concurrent readers
// never observe a stale précis.
//
// An Engine is the paper's pipeline (Fig. 2: inverted index → result-schema
// generator → result-database generator → translator) over two seams: the
// backend says where the tuples live, the role says who may write them.
// Nothing else in the package tests for a topology or a replication role.
type Engine struct {
	// mu is the only data lock: queries hold it shared; mutations and the
	// capture phase of a checkpoint, exclusively. The backend's nodes lock
	// with it too, so a sharded coordinator has a single engine's lock order.
	mu    sync.RWMutex
	graph *schemagraph.Graph
	// backend is set by assemble and never reassigned (a follower's
	// re-bootstrap swaps its node's contents, not the node).
	backend backend
	// role is the mutation gate's state (role.go); transition is its only
	// writer. The zero value is a writable engine.
	role     role
	renderer *nlg.Renderer
	profiles *profile.Registry
	// weights are the engine-level default tuple weights (§7 extension),
	// applied when Options.TupleWeights is nil. The engine owns a private
	// deep copy, replaced wholesale under mu, so queries read it without
	// further locking.
	weights TupleWeights
	// cache holds computed answers; nil until EnableCache.
	cache *anscache.Cache
	// registry and metrics are set by Instrument; nil means the engine is
	// un-instrumented and the query path skips all accounting.
	registry *obs.Registry
	metrics  *engineMetrics
	// lifeMu serializes role changes (Promote) against Close. It is taken
	// before mu and never while holding it.
	lifeMu sync.Mutex
}

// backend is where an engine's tuples live: *node (one partition) or
// *shardSet (a coordinator's). Callers hold e.mu — shared to read,
// exclusively for commit.
type backend interface {
	// each visits every partition in shard order and returns the first
	// error (all are visited regardless). Checkpoint, Sync and Close run
	// through it, unlocked: those node methods take e.mu themselves.
	each(fn func(*node) error) error
	// single is the partition when it is the only one — what Database, Index
	// and WAL replication need — and nil on a coordinator.
	single() *node
	// lookup resolves one query term; a coordinator scatters the probe and
	// merges to the exact single-index occurrence list.
	lookup(term string) ([]invidx.Occurrence, error)
	// newFetcher builds the per-query tuple fetcher.
	newFetcher() core.Fetcher
	// nextID is the id the next Insert gets, the same on every topology.
	nextID() storage.TupleID
	// check is storage.CheckWrite of a tuple record over every partition:
	// a key, a referenced tuple or a referencing one can live on any shard.
	// It gives a record it accepts the values as the relation stores them.
	check(rec *wal.Record) error
	// commit logs one checked record and applies it (applyLocked) on every
	// partition it belongs to. applied reports that state changed.
	commit(rec wal.Record) (applied bool, err error)
	persistStats() PersistStats
	shardStats() ShardStats
	instrument(reg *obs.Registry)
}

// assemble builds the engine over a loaded backend: the nodes get their
// owner (and lock with its mutex from here on), the recovered macro
// definitions — every partition holds them all, so the first one's list — are
// replayed into the renderer, and durable nodes start their checkpointers.
// The graph is frozen: queries read it without a lock and memoise on it what
// depends on it alone (core.GenerateSchema), so from here on nobody may
// modify it.
func assemble(g *schemagraph.Graph, b backend) (*Engine, error) {
	g.Freeze()
	e := &Engine{graph: g, backend: b, profiles: profile.NewRegistry()}
	var macros []string
	_ = b.each(func(n *node) error {
		if macros == nil {
			macros = n.macroDefs
		}
		n.owner = e
		return nil
	})
	var err error
	if e.renderer, err = newRenderer(macros); err != nil {
		return nil, err
	}
	_ = b.each(func(n *node) error { n.startCheckpointer(); return nil })
	return e, nil
}

// newRenderer builds a renderer with the given macro definitions replayed.
func newRenderer(macros []string) (*nlg.Renderer, error) {
	r := nlg.NewRenderer()
	for _, def := range macros {
		if err := r.DefineMacro(def); err != nil {
			return nil, fmt.Errorf("precis: replaying persisted macro: %w", err)
		}
	}
	return r, nil
}

// CacheConfig sizes the engine's answer cache.
type CacheConfig struct {
	// MaxEntries bounds the number of resident answers (<= 0: 128).
	MaxEntries int
	// TTL expires answers by age; 0 disables time-based expiry (entries
	// still fall out by LRU order and on invalidation).
	TTL time.Duration
}

// CacheStats reports the answer cache's hit/miss counters.
type CacheStats = anscache.Stats

// EnableCache turns on (or resizes) the engine's LRU answer cache. Repeated
// queries with the same normalized tokens, constraints, profile, and weight
// overlay are then answered from memory until a mutation invalidates them.
// Resizing drops existing entries.
func (e *Engine) EnableCache(cfg CacheConfig) {
	e.mu.Lock()
	defer e.mu.Unlock()
	// On an instrumented engine the cache counters are registry-backed:
	// the registry get-or-creates by name, so hit/miss totals continue
	// monotonically across resizes and /metrics equals /api/stats.
	var ctr *anscache.Counters
	if e.registry != nil {
		ctr = cacheCountersFrom(e.registry)
	}
	e.cache = anscache.NewWithCounters(cfg.MaxEntries, cfg.TTL, ctr)
}

// DisableCache removes the answer cache.
func (e *Engine) DisableCache() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cache = nil
}

// InvalidateCache explicitly drops every cached answer. The engine already
// invalidates on its own mutations (Insert, Update, Delete, AddSynonym,
// DefineMacro, AddProfile, SetTupleWeights); call this after mutating the
// underlying database or schema graph through a side channel.
func (e *Engine) InvalidateCache() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.purgeCacheLocked()
}

// CacheStats snapshots the answer cache counters (zero value when the
// cache is disabled).
func (e *Engine) CacheStats() CacheStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.cache == nil {
		return CacheStats{}
	}
	return e.cache.Stats()
}

// CacheEnabled reports whether the answer cache is on.
func (e *Engine) CacheEnabled() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.cache != nil
}

// purgeCacheLocked drops all cached answers; callers hold e.mu.
func (e *Engine) purgeCacheLocked() {
	if e.cache != nil {
		e.cache.Purge()
	}
}

// SetTupleWeights stores engine-level default tuple weights (the §7
// extension), used whenever Options.TupleWeights is nil. The weights are
// deep-copied, so later changes to w by the caller do not affect the
// engine; pass nil to clear. Changing weights invalidates the cache.
func (e *Engine) SetTupleWeights(w TupleWeights) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.weights = copyTupleWeights(w)
	e.purgeCacheLocked()
}

// copyTupleWeights deep-copies a tuple-weight map (nil stays nil).
func copyTupleWeights(w TupleWeights) TupleWeights {
	if w == nil {
		return nil
	}
	out := make(TupleWeights, len(w))
	for rel, m := range w {
		cm := make(map[storage.TupleID]float64, len(m))
		for id, wt := range m {
			cm[id] = wt
		}
		out[rel] = cm
	}
	return out
}

// New builds an engine: it validates the graph against the database and
// constructs the inverted index over all string attributes.
func New(db *storage.Database, g *schemagraph.Graph) (*Engine, error) {
	n, err := newNode(db, g, nil)
	if err != nil {
		return nil, err
	}
	return assemble(g, n)
}

// Database returns the underlying database. It holds the engine read
// lock: a follower re-bootstrap swaps the database wholesale, so an
// unlocked read would race the swap. On a sharded coordinator there is no
// single underlying database and this returns nil — use DatabaseName,
// TotalTuples, NumRelations, or ShardStats instead.
func (e *Engine) Database() *storage.Database {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if n := e.backend.single(); n != nil {
		return n.db
	}
	return nil
}

// Graph returns the annotated schema graph.
func (e *Engine) Graph() *schemagraph.Graph {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.graph
}

// Index returns the inverted index (see Database about the lock). Nil on a
// sharded coordinator — each partition owns an index over its own tuples.
func (e *Engine) Index() *invidx.Index {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if n := e.backend.single(); n != nil {
		return n.index
	}
	return nil
}

// commitLocked is the one path of every logged mutation: the role's gate,
// the check, then the backend logs the record and applies it. A refused
// write touches nothing — not the log, the id watermark, a slot or the
// cache. Callers hold e.mu.
func (e *Engine) commitLocked(rec wal.Record) (applied bool, err error) {
	if err := e.role.gate(); err != nil {
		return false, err
	}
	if err := e.checkLocked(&rec); err != nil {
		return false, err
	}
	return e.backend.commit(rec)
}

// checkLocked refuses a record that would not apply, or would leave a state
// Open refuses, before it is logged: a macro the renderer cannot parse (it
// would poison every recovery), a tuple write the backend's check refuses.
// A synonym is always accepted.
func (e *Engine) checkLocked(rec *wal.Record) error {
	switch rec.Op {
	case wal.OpSynonym:
		return nil
	case wal.OpMacro:
		_, _, err := nlg.ParseDefine(rec.Def)
		return err
	}
	return e.backend.check(rec)
}

// applyLocked makes one logged record live on partition n: the renderer
// learns a macro, the node changes, and the cache is purged before the
// caller releases e.mu, so no reader can see a stale hit. A commit and a
// follower's stream both apply through it. Callers hold e.mu.
func (e *Engine) applyLocked(n *node, rec wal.Record) error {
	defer e.purgeCacheLocked()
	if rec.Op == wal.OpMacro {
		if err := e.renderer.DefineMacro(rec.Def); err != nil {
			return err
		}
	}
	return n.apply(rec)
}

// AddSynonym declares that queries for alias also match canonical — the
// §5.1 synonym case ("W. Allen" for "Woody Allen"); deployments plug a
// reference-reconciliation tool's output in through this.
//
// Like every mutation, the synonym is logged before it is applied: if the
// log write fails nothing changes and the error is returned, so the caller
// can observe the lost write and retry. On an in-memory engine the error is
// always nil.
func (e *Engine) AddSynonym(alias, canonical string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, err := e.commitLocked(wal.Record{Op: wal.OpSynonym, Alias: alias, Canonical: canonical})
	return err
}

// DefineMacro registers a narrative macro ("DEFINE NAME as ..."). A
// definition that does not parse is refused before it is logged; one whose
// log write fails is not defined.
func (e *Engine) DefineMacro(def string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, err := e.commitLocked(wal.Record{Op: wal.OpMacro, Def: def})
	return err
}

// AddProfile stores a personalization profile.
func (e *Engine) AddProfile(p *Profile) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.profiles.Add(p); err != nil {
		return err
	}
	e.purgeCacheLocked()
	return nil
}

// Profiles returns the registered profile names, sorted. It holds the
// engine read lock: before this fix the registry map was read without any
// lock while AddProfile wrote it, a data race `go test -race` flags (see
// TestProfilesConcurrentWithAddProfile).
func (e *Engine) Profiles() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.profiles.Names()
}

// Insert adds a tuple and keeps the inverted index current. The tuple is
// checked against the whole database first (storage.CheckWrite): a duplicate
// primary key, or a foreign-key value with no match (storage.ErrDangling),
// is refused and changes nothing. On a persistent engine the insert is then
// logged to the WAL (with its concrete tuple ID, so replay reconstructs
// identical IDs) before it is applied, so a failed log write returns the
// error with nothing applied. When the error is ErrQuorumLost the record is
// durable on the local WAL, so it is applied and the real ID is returned
// with the error. vals is only read: storage copies the values into a record
// of its own, so the caller may reuse its slice at once.
func (e *Engine) Insert(relation string, vals ...storage.Value) (storage.TupleID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	id := e.backend.nextID()
	applied, err := e.commitLocked(wal.Record{Op: wal.OpInsert, Rel: relation, ID: id, Values: vals})
	if !applied {
		return 0, err
	}
	return id, err
}

// Update replaces a tuple's values and keeps the inverted index current.
// It is checked, logged and applied as Insert is; besides Insert's refusals
// it refuses a tuple that is not there (storage.ErrNoTuple) and a change of
// a value a foreign key references from another tuple that no other tuple
// holds (storage.ErrReferenced). Like Insert it only reads vals.
func (e *Engine) Update(relation string, id storage.TupleID, vals []storage.Value) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, err := e.commitLocked(wal.Record{Op: wal.OpUpdate, Rel: relation, ID: id, Values: vals})
	return err
}

// Delete removes a tuple and keeps the inverted index current. It reports
// false, with no error, when the relation holds no such tuple, and refuses a
// tuple a foreign key still needs with storage.ErrReferenced (see
// storage.CheckWrite).
func (e *Engine) Delete(relation string, id storage.TupleID) (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	applied, err := e.commitLocked(wal.Record{Op: wal.OpDelete, Rel: relation, ID: id})
	if errors.Is(err, storage.ErrNoTuple) {
		return false, nil
	}
	return applied, err
}

// Options tune one query. Zero-value fields fall back to the selected
// profile's defaults, then to the engine defaults (MinPathWeight 0.8, 10
// tuples per relation, auto strategy).
type Options struct {
	Degree        DegreeConstraint
	Cardinality   CardinalityConstraint
	Strategy      Strategy
	Profile       string             // name of a registered profile
	WeightOverlay map[string]float64 // ad-hoc per-query weight changes (§3.1 interactive exploration)
	// TupleWeights biases which tuples survive the cardinality budget
	// (§7 extension); nil falls back to the engine-level weights set with
	// SetTupleWeights. The map is deep-copied at query start, so the
	// generator never observes concurrent caller mutations mid-query.
	// Queries with per-call TupleWeights bypass the answer cache.
	TupleWeights TupleWeights
	// SkipNarrative suppresses narrative rendering (benchmarks).
	SkipNarrative bool
	// Budget bounds the physical resources of this query. The zero value
	// imposes no bounds. When a dimension runs out mid-generation, the
	// query degrades gracefully: it returns the deterministic prefix
	// answer built so far (Answer.Partial, Answer.Truncation) instead of
	// an error. Seed tuples are always materialized, so a budgeted answer
	// is non-empty whenever the query matched anything. Queries with a
	// Deadline bypass the answer cache (absolute instants never recur);
	// partial answers are never cached.
	Budget Budget
	// Trace records per-stage timing for this query and attaches it to
	// Answer.Trace: one span per pipeline stage (tokenize, cache_lookup,
	// index_lookup, schema_gen, db_gen, translate) plus fine-grained
	// db_gen steps (seed placement and every join edge) with tuple and
	// query counts. When false — the default — the query path performs no
	// trace allocations and pays one nil check per stage.
	Trace bool
}

// Answer is the result of a précis query.
type Answer struct {
	Terms []string
	// Occurrences maps each matched term to its index occurrences.
	Occurrences map[string][]invidx.Occurrence
	// Unmatched lists terms with no occurrence.
	Unmatched []string
	// Schema is the result schema G'. Every answer to the same seed
	// relations under the same degree constraint (and profile) holds the same
	// one: it is read-only, like everything a cached answer shares.
	Schema *core.ResultSchema
	// Result is the generated result database (the précis itself).
	Result *core.ResultDatabase
	// Database is Result.DB, the result database D': the tuples the query
	// selected from the engine's database.
	Database *storage.Result
	// Narrative is the natural-language synthesis (empty if skipped).
	Narrative string
	// Stats records the physical work of data generation.
	Stats core.GenStats
	// Partial reports that a resource budget truncated generation: the
	// answer is a deterministic prefix of the unbudgeted answer, not the
	// complete constrained précis.
	Partial bool
	// Truncation names the budget dimension that ran out (empty when the
	// answer is complete).
	Truncation TruncationReason
	// FromCache reports that this answer was served from the answer cache
	// rather than computed by the pipeline.
	FromCache bool
	// Trace is the per-stage timing of this query, present only when
	// Options.Trace was set. For cache hits it covers the tokenize and
	// cache_lookup stages only (the pipeline never ran); cached answers
	// themselves are stored without traces.
	Trace *obs.Trace
}

// ParseQuery splits a free-form query string into terms, honouring double
// quotes for phrases: `"Woody Allen" comedy` → ["Woody Allen", "comedy"].
func ParseQuery(q string) []string {
	var terms []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if s := strings.TrimSpace(cur.String()); s != "" {
			terms = append(terms, s)
		}
		cur.Reset()
	}
	for _, r := range q {
		switch {
		case r == '"':
			if inQuote {
				flush()
			}
			inQuote = !inQuote
		case !inQuote && (r == ' ' || r == '\t' || r == '\n'):
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return terms
}

// QueryString parses a free-form query string and runs Query.
func (e *Engine) QueryString(q string, opts Options) (*Answer, error) {
	return e.Query(ParseQuery(q), opts)
}

// QueryStringContext parses a free-form query string and runs QueryContext.
func (e *Engine) QueryStringContext(ctx context.Context, q string, opts Options) (*Answer, error) {
	return e.QueryContext(ctx, ParseQuery(q), opts)
}

// Query answers a précis query Q = {k1, ..., km}: it resolves the tokens
// through the inverted index, generates the result schema under the degree
// constraint, populates the result database under the cardinality
// constraint, and renders the narrative.
func (e *Engine) Query(terms []string, opts Options) (*Answer, error) {
	return e.QueryContext(context.Background(), terms, opts)
}

// cacheKey fingerprints the inputs a cached answer depends on: the
// normalized (tokenized, case-folded) terms in order, the requested
// constraints and strategy, the profile name, the ad-hoc weight overlay,
// and whether the narrative was rendered. Database contents and engine
// weights are not part of the key — any change to them purges the whole
// cache instead. The second return is false when the query is not
// cacheable (per-call tuple weights carry arbitrary maps that are not
// worth fingerprinting, and budget deadlines are absolute instants that
// never recur — a deadline answer cached now would be wrong forever).
// Deterministic budget dimensions (tuples, steps, bytes) are part of the
// key, since different budgets legitimately produce different answers.
func cacheKey(terms []string, opts Options) (string, bool) {
	if opts.TupleWeights != nil {
		return "", false
	}
	if !opts.Budget.Deadline.IsZero() || opts.Budget.Now != nil {
		return "", false
	}
	var sb strings.Builder
	for _, t := range terms {
		sb.WriteString(strings.Join(invidx.Tokenize(t), " "))
		sb.WriteByte('\x1f')
	}
	sb.WriteByte('\x1e')
	if opts.Degree != nil {
		sb.WriteString(opts.Degree.String())
	}
	sb.WriteByte('\x1e')
	if opts.Cardinality != nil {
		sb.WriteString(opts.Cardinality.String())
	}
	sb.WriteByte('\x1e')
	sb.WriteString(opts.Strategy.String())
	sb.WriteByte('\x1e')
	sb.WriteString(opts.Profile)
	sb.WriteByte('\x1e')
	if len(opts.WeightOverlay) > 0 {
		keys := make([]string, 0, len(opts.WeightOverlay))
		for k := range opts.WeightOverlay {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			sb.WriteString(k)
			sb.WriteByte('=')
			sb.WriteString(strconv.FormatFloat(opts.WeightOverlay[k], 'g', -1, 64))
			sb.WriteByte('\x1f')
		}
	}
	sb.WriteByte('\x1e')
	if opts.SkipNarrative {
		sb.WriteByte('1')
	}
	sb.WriteByte('\x1e')
	if b := opts.Budget; b.MaxTuples > 0 || b.MaxJoinSteps > 0 || b.MaxResultBytes > 0 {
		fmt.Fprintf(&sb, "%d,%d,%d", b.MaxTuples, b.MaxJoinSteps, b.MaxResultBytes)
	}
	return sb.String(), true
}

// shallowCopy returns a copy of the answer struct so cache hits hand each
// caller its own Answer header. The result database, schema, and occurrence
// slices stay shared and must be treated as read-only — which they are for
// every engine code path, since each query builds a fresh result database.
func (a *Answer) shallowCopy() *Answer {
	cp := *a
	return &cp
}

// QueryContext is Query with cancellation: ctx deadlines and cancellations
// are honoured between pipeline stages and inside the per-join tuple loops
// of result-database generation, and the returned error wraps ctx.Err().
// The web layer uses this for per-request timeouts.
//
// QueryContext is also the engine's fault boundary: the whole pipeline runs
// on the calling goroutine, so a panic anywhere in it is recovered here and
// returned as an error wrapping ErrInternal with the stack attached, and a
// poisoned tuple or an injected fault can never crash the process or leave
// the engine lock held.
func (e *Engine) QueryContext(ctx context.Context, terms []string, opts Options) (ans *Answer, err error) {
	if len(terms) == 0 {
		return nil, fmt.Errorf("precis: empty query")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	// tr is the query's trace. Caller-requested traces exist from the
	// start (they cover tokenize and cache_lookup too); when only metrics
	// want stage timings, a private trace is allocated later, on the
	// uncached path — cache hits must stay allocation-free.
	var tr *obs.Trace
	if opts.Trace {
		tr = obs.NewTrace()
	}
	e.mu.RLock()
	m := e.metrics
	defer func() {
		e.mu.RUnlock()
		if r := recover(); r != nil {
			ans = nil
			err = wrapPanic(r)
			if m != nil {
				m.panics.Inc()
			}
		}
		if m != nil {
			m.record(start, ans, err, tr)
		}
	}()

	// Answer cache: the lookup happens under the engine read lock, so a
	// mutation that completed before this query began has already purged
	// the cache — a hit can never serve a stale answer.
	key, cacheable := "", false
	if e.cache != nil {
		sp := tr.StartSpan(obs.StageTokenize)
		key, cacheable = cacheKey(terms, opts)
		sp.End()
		if cacheable {
			sp = tr.StartSpan(obs.StageCacheLookup)
			v, ok := e.cache.Get(key)
			sp.End()
			if ok {
				cp := v.(*Answer).shallowCopy()
				cp.FromCache = true
				tr.Finish()
				cp.Trace = tr // nil unless opts.Trace
				return cp, nil
			}
		}
	}

	// Fresh pipeline run: when the engine is instrumented but the caller
	// did not ask for a trace, allocate a private one so the per-stage
	// histograms still observe this query. The cost lands only on the
	// expensive path; the cached fast path above never reaches here.
	if tr == nil && m != nil {
		tr = obs.NewTrace()
	}

	ans, err = e.queryLocked(ctx, terms, opts, tr)
	if err != nil {
		// ErrNoMatches answers are cheap to recompute and carry partial
		// state; don't cache errors.
		tr.Finish()
		if ans != nil && opts.Trace {
			ans.Trace = tr
		}
		return ans, err
	}
	if cacheable && e.cache != nil && !ans.Partial {
		// Partial answers are never cached: they reflect a transient
		// resource shortage, not the query's true answer, and a later
		// identical query with a healthier budget must not inherit the
		// truncation. Cached answers are stored without traces — the
		// trace describes this execution, not the answer.
		e.cache.Put(key, ans)
		// Hand out a copy so the caller's Answer header stays private.
		ans = ans.shallowCopy()
	}
	tr.Finish()
	if opts.Trace {
		ans.Trace = tr
	}
	return ans, nil
}

// wrapPanic converts a recovered panic value into an ErrInternal error with
// the stack of the goroutine that panicked and recovered it attached.
func wrapPanic(r any) error {
	return fmt.Errorf("%w: panic: %v\n%s", ErrInternal, r, debug.Stack())
}

// queryLocked runs the four-stage pipeline; callers hold e.mu.RLock. tr
// (nil allowed) receives one span per stage plus fine-grained db_gen steps.
func (e *Engine) queryLocked(ctx context.Context, terms []string, opts Options, tr *obs.Trace) (*Answer, error) {
	// Resolve the effective configuration: options > profile > defaults.
	g := e.graph
	degree := opts.Degree
	card := opts.Cardinality
	strat := opts.Strategy
	if opts.Profile != "" {
		p := e.profiles.Get(opts.Profile)
		if p == nil {
			return nil, fmt.Errorf("precis: no profile %q", opts.Profile)
		}
		pg, err := e.profiles.Graph(p, g)
		if err != nil {
			return nil, err
		}
		g = pg
		if degree == nil {
			degree = p.Degree
		}
		if card == nil {
			card = p.Cardinality
		}
		if strat == StrategyAuto {
			strat = p.Strategy
		}
	}
	if len(opts.WeightOverlay) > 0 {
		og := g.Clone()
		if err := og.ApplyWeights(opts.WeightOverlay); err != nil {
			return nil, err
		}
		g = og
	}
	if degree == nil {
		degree = core.MinPathWeight(0.8)
	}
	if card == nil {
		card = core.MaxTuplesPerRelation(10)
	}

	// Resolve the effective tuple weights: per-call weights win (deep-copied
	// so the generator never observes caller mutations mid-query), otherwise
	// the engine-level weights set with SetTupleWeights apply. e.weights is
	// already a private copy and only replaced wholesale under e.mu.Lock, so
	// sharing it with the generator is race-free under our RLock.
	weights := e.weights
	if opts.TupleWeights != nil {
		weights = copyTupleWeights(opts.TupleWeights)
	}

	ans := &Answer{Terms: append([]string(nil), terms...), Occurrences: make(map[string][]invidx.Occurrence)}

	// Step 1: inverted index, term by term.
	sp := tr.StartSpan(obs.StageIndexLookup)
	seeds := make(map[string][]storage.TupleID)
	var seedRels []string
	var allOccs []invidx.Occurrence
	for _, term := range terms {
		// Only a coordinator's scatter/gather can fail a probe; it fails the
		// query typed instead of panicking.
		occs, err := e.backend.lookup(term)
		if err != nil {
			return nil, err
		}
		if len(occs) == 0 {
			ans.Unmatched = append(ans.Unmatched, term)
			continue
		}
		ans.Occurrences[term] = occs
		allOccs = append(allOccs, occs...)
		for _, o := range occs {
			have, seen := seeds[o.Relation]
			if !seen {
				seedRels = append(seedRels, o.Relation)
			}
			seeds[o.Relation] = storage.UnionIDs(have, o.TupleIDs)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("precis: query canceled: %w", err)
	}
	if len(seedRels) == 0 {
		sp.End()
		return ans, ErrNoMatches
	}
	sort.Strings(seedRels)
	sp.End()

	// Step 2: result schema generation — on a frozen graph (every one but a
	// per-call weight overlay's) the traversal of the first query with these
	// seeds and this constraint, found again by every later one.
	sp = tr.StartSpan(obs.StageSchemaGen)
	hits0, _, _ := g.MemoStats()
	rs, err := core.GenerateSchema(g, seedRels, degree)
	if err != nil {
		return nil, err
	}
	rs.CopyAnnotations(g)
	ans.Schema = rs
	// The note is read off the graph's counters: exact unless another
	// query's hit on the same graph lands between the two reads.
	memo := "memo=miss"
	if hits, _, _ := g.MemoStats(); hits != hits0 {
		memo = "memo=hit"
	}
	sp.EndNote(memo)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("precis: query canceled: %w", err)
	}

	// Step 3: result database generation. Each query gets its own fetcher
	// over the shared data, so concurrent queries do not race on statistics
	// accumulation. The generator honours ctx between steps.
	sp = tr.StartSpan(obs.StageDBGen)
	fetcher := e.backend.newFetcher()
	rd, err := core.GenerateDatabaseOpts(fetcher, rs, seeds, card, strat,
		core.DBGenOptions{Weights: weights, Context: ctx, Budget: opts.Budget, Trace: tr})
	if err != nil {
		return nil, err
	}
	ans.Result = rd
	ans.Database = rd.DB
	ans.Stats = rd.Stats
	ans.Partial = rd.Partial()
	ans.Truncation = rd.Truncation
	if sf, ok := fetcher.(interface{ RecordTrace(*obs.Trace) }); ok {
		sf.RecordTrace(tr) // a scatter/gather fetcher has spans of its own to add
	}
	sp.End()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("precis: query canceled: %w", err)
	}

	// Step 4: translation. Partial answers render too — the translator
	// trims clauses whose joined tuples were cut and appends a truncation
	// note, so a degraded answer still reads as a well-formed narrative.
	if !opts.SkipNarrative {
		sp = tr.StartSpan(obs.StageTranslate)
		narrative, err := e.renderer.Narrative(rd, allOccs)
		if err != nil {
			return nil, err
		}
		ans.Narrative = narrative
		sp.End()
	}
	return ans, nil
}
