package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"precis/internal/faultinject"
	"precis/internal/obs"
	"precis/internal/schemagraph"
	"precis/internal/sqlx"
	"precis/internal/storage"
)

// Strategy selects how tuples joining a populated relation are retrieved
// from the original database (paper §5.2).
type Strategy uint8

const (
	// StrategyAuto applies Round-Robin only to 1-n joins, "wherever
	// required", and NaïveQ everywhere else — the practical configuration
	// the paper recommends.
	StrategyAuto Strategy = iota
	// StrategyNaive always issues a single top-k query per join (Oracle
	// RowNum style). On 1-n joins it risks starving some driving tuples.
	StrategyNaive
	// StrategyRoundRobin always opens one scan per driving tuple and takes
	// one joining tuple from each scan per round.
	StrategyRoundRobin
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyNaive:
		return "naiveq"
	case StrategyRoundRobin:
		return "roundrobin"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(s))
	}
}

// GenStats reports the physical work of one result-database generation; its
// units match the paper's cost model (queries issued, index probes, tuple
// reads). Queries counts the statements actually executed: one per seed
// relation, one per NaïveQ join (two under tuple weights) and two per
// Round-Robin join (its cursor probe and the fetch of the chosen tuples),
// whatever the number of driving values or tuples — the per-value work shows
// in SQL.IndexLookups, the per-posting and per-tuple work in SQL.TupleReads.
type GenStats struct {
	Queries           int
	SQL               sqlx.Stats
	JoinsExecuted     int
	TuplesPerRelation map[string]int
	TotalTuples       int
}

// ResultDatabase is the précis: the result database D', tuples selected from
// the original, together with the result schema it instantiates and the
// generation statistics.
type ResultDatabase struct {
	DB     *storage.Result
	Schema *ResultSchema
	Stats  GenStats
	// Truncation is non-empty when a resource Budget stopped generation
	// early; the database then holds the deterministic prefix built before
	// the budget ran out (see DBGenOptions.Budget).
	Truncation TruncationReason
}

// Partial reports whether the result is a budget-truncated prefix rather
// than the complete constrained answer.
func (rd *ResultDatabase) Partial() bool { return rd.Truncation != TruncateNone }

// DisplayColumns returns the columns of rel meant for presentation: the
// projected attributes of the result schema, excluding join plumbing that
// was fetched only to execute joins (§5.2: "attributes required for joins
// ... will not show in the final answer"). The slice is read-only
// (ResultSchema.Projections).
func (rd *ResultDatabase) DisplayColumns(rel string) []string {
	return rd.Schema.Projections(rel)
}

// DBGenOptions expose the design choices of the Result Database Generator
// for ablation studies; the zero value is the paper's algorithm.
type DBGenOptions struct {
	// FIFOJoins executes join edges in result-schema declaration order
	// instead of decreasing weight order (ablates "relations most related
	// to the query are populated first").
	FIFOJoins bool
	// DisablePostponement executes a join as soon as its source is
	// populated even if arrivals at the source are still pending (ablates
	// the in-degree bookkeeping; under tight budgets, tuples reached only
	// through late-arriving paths lose their downstream joins).
	DisablePostponement bool
	// Weights enables the paper's §7 extension: per-tuple importance.
	// When the cardinality budget forces a choice, heavier tuples are
	// retrieved first (seeds, NaïveQ results, and Round-Robin scans all
	// honour the ordering).
	Weights TupleWeights
	// Workers bounds the fetch worker pool. Values <= 1 run the serial
	// algorithm (the seed behavior). Values > 1 fetch independent frontier
	// joins and the per-relation seed queries concurrently, while inserts
	// and budget accounting stay serialized in the serial algorithm's
	// order, so the produced result database is byte-identical to the
	// serial path for any worker count. The pool works across join edges
	// only: one join is one or two set-at-a-time statements, so there is no
	// intra-join pool. GenStats may count slightly more physical work in
	// the parallel path (a fetch issued under an optimistic budget can be
	// discarded when a concurrent frontier edge consumed the remaining
	// total-tuple budget first).
	Workers int
	// Context, when non-nil, cancels generation cooperatively: the ctx is
	// observed between scheduling steps, before each join's fetch, and
	// inside the per-join tuple loops (round-robin rounds and the per-row
	// apply loop), so a cancellation is seen within one statement or tuple
	// pick rather than one stage. The error returned wraps ctx.Err() so
	// callers can detect timeouts. Cancellation discards the answer; to
	// keep the prefix instead, set a Budget deadline.
	Context context.Context
	// Budget bounds the physical resources of this generation. When a
	// dimension runs out, the run stops at the next deterministic
	// checkpoint and returns the prefix built so far with the
	// ResultDatabase's Truncation set — not an error. The zero value
	// imposes no bounds and costs nothing.
	Budget Budget
	// Trace, when non-nil, records fine-grained generation steps (seed
	// placement, every join edge) with the tuples they materialized and
	// the queries they issued. Steps are recorded on the coordination
	// goroutine only, so recording needs no locks and never perturbs the
	// parallel fetch pool. nil (the default) is a strict no-op.
	Trace *obs.Trace
}

// Fetcher is the generator's view of the original database: a read-only
// SELECT executor, the grouped probe that opens Round-Robin's scans, and the
// schema catalog. *sqlx.Engine satisfies it directly (the single-engine
// path); internal/shard provides a scatter/gather implementation that fans
// each statement and probe out across shard engines and merges the results
// deterministically. ExecStmt and Probe must be safe for concurrent use;
// AccumulateStats is only called from the serial apply phase.
type Fetcher interface {
	ExecStmt(st sqlx.Stmt) (*sqlx.Result, error)
	// Probe returns, per value (sorted by Value.Compare), the ascending ids of
	// rel's live tuples whose col Equals it (contract: sqlx.Engine.Probe).
	Probe(rel, col string, values []storage.Value) (*sqlx.Groups, error)
	Database() *storage.Database
	AccumulateStats(s sqlx.Stats)
}

// generator carries the state of one Figure 5 run.
type generator struct {
	eng     Fetcher
	rs      *ResultSchema
	card    CardinalityConstraint
	strat   Strategy
	opts    DBGenOptions
	workers int
	ctx     context.Context
	bt      *budgetTracker // nil when no budget was set
	trace   *obs.Trace     // nil when the query is untraced
	out     *storage.Result
	perRel  map[string]int
	total   int
	stats   GenStats
	lay     *layout // of D'; shared, read only
	// values holds, per position in a batch, its edge's driving values:
	// buffers every batch reuses.
	values [][]storage.Value
}

// fetched is the outcome of one fetch task: candidate rows and their tuple
// ids in the deterministic order the serial algorithm would insert them, plus
// the physical work the fetch performed. The apply phase inserts a prefix of
// rows bounded by the live cardinality budget.
type fetched struct {
	rows    []storage.Row
	ids     []storage.TupleID // parallel to rows
	queries int
	sql     sqlx.Stats
}

// GenerateDatabase runs the Result Database Algorithm (paper Figure 5).
// eng wraps the original database; rs is the result schema G'; seedTuples
// maps each seed relation to the tuple ids the inverted index matched; c is
// the cardinality constraint and strat the retrieval strategy.
func GenerateDatabase(eng Fetcher, rs *ResultSchema, seedTuples map[string][]storage.TupleID, c CardinalityConstraint, strat Strategy) (*ResultDatabase, error) {
	return GenerateDatabaseOpts(eng, rs, seedTuples, c, strat, DBGenOptions{})
}

// GenerateDatabaseOpts is GenerateDatabase with explicit ablation options.
func GenerateDatabaseOpts(eng Fetcher, rs *ResultSchema, seedTuples map[string][]storage.TupleID, c CardinalityConstraint, strat Strategy, opts DBGenOptions) (*ResultDatabase, error) {
	g, err := newGenerator(eng, rs, seedTuples, c, strat, opts)
	if err != nil {
		return nil, err
	}
	if err := g.placeSeeds(seedTuples); err != nil {
		return nil, err
	}
	if err := g.executeJoins(); err != nil {
		return nil, err
	}
	return g.result(), nil
}

// newGenerator validates the inputs of one Figure 5 run and creates the
// empty output database from its layout: the relations of G' and the foreign
// keys that carry over.
func newGenerator(eng Fetcher, rs *ResultSchema, seedTuples map[string][]storage.TupleID, c CardinalityConstraint, strat Strategy, opts DBGenOptions) (*generator, error) {
	if c == nil {
		return nil, fmt.Errorf("core: nil cardinality constraint")
	}
	for rel := range seedTuples {
		if rs.Graph.Relation(rel) == nil {
			return nil, fmt.Errorf("core: seed tuples for %s, which is not in the result schema", rel)
		}
	}
	lay, err := rs.layout(eng.Database())
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	g := &generator{
		eng:     eng,
		rs:      rs,
		card:    c,
		strat:   strat,
		opts:    opts,
		workers: workers,
		ctx:     ctx,
		bt:      newBudgetTracker(opts.Budget),
		trace:   opts.Trace,
		out:     storage.NewResult("precis", lay.schemas, lay.fks),
		perRel:  make(map[string]int),
		lay:     lay,
	}
	g.stats.TuplesPerRelation = g.perRel
	return g, nil
}

// result wraps the generated database: it indexes every column a G' edge
// arrives at — the translator's clause walk and the integrity check of a
// truncated answer look partners up there — and trims what a budget cut left
// dangling.
func (g *generator) result() *ResultDatabase {
	g.stats.TotalTuples = g.total
	for i, cols := range g.lay.indexed {
		for _, col := range cols {
			g.out.Relation(g.lay.schemas[i].Name).Index(col)
		}
	}
	rd := &ResultDatabase{DB: g.out, Schema: g.rs, Stats: g.stats, Truncation: g.bt.Reason()}
	if rd.Partial() {
		g.trimDanglingForeignKeys()
	}
	return rd
}

// trimDanglingForeignKeys drops, from a truncated result database, foreign
// keys whose referencing tuples dangle: a budget cut can stop generation
// after a child relation was populated but before its parent side filled
// in, and a partial précis must still be a valid database on its own (the
// paper's §1 promise). Complete answers never need this — the generator
// only materializes children of parents already present.
func (g *generator) trimDanglingForeignKeys() {
	violations := storage.CheckIntegrity(g.out)
	if len(violations) == 0 {
		return
	}
	bad := make(map[storage.ForeignKey]bool, len(violations))
	for _, v := range violations {
		bad[v.ForeignKey] = true
	}
	var keep []storage.ForeignKey
	for _, fk := range g.out.ForeignKeys() {
		if !bad[fk] {
			keep = append(keep, fk)
		}
	}
	g.out.SetForeignKeys(keep)
}

// ctxErr reports a cancellation of the surrounding context, if any.
func (g *generator) ctxErr() error {
	select {
	case <-g.ctx.Done():
		return fmt.Errorf("core: result database generation canceled: %w", g.ctx.Err())
	default:
		return nil
	}
}

// execFetch runs one generated SELECT against the original database and
// charges it to f. ExecStmt does not touch the engine's shared stats
// accumulator, so concurrent fetch tasks can share g.eng for its read-only
// SELECT path. Each task keeps its stats in f; the apply phase folds them back
// into the caller's engine serially.
func (g *generator) execFetch(f *fetched, st *sqlx.SelectStmt) (*sqlx.Result, error) {
	res, err := g.eng.ExecStmt(st)
	if err != nil {
		return nil, fmt.Errorf("core: generated query on %s: %w", st.Table, err)
	}
	f.queries++
	f.sql.Add(res.Stats)
	return res, nil
}

// layout is D' before its tuples, as it follows from G' and the catalog of
// the original database. The queries of one G' share it: read only.
type layout struct {
	// schemas are the relations of D' in G' order: the projected attributes plus
	// the join columns of incident G' edges, in the original column order.
	schemas []*storage.Schema
	indexed [][]string           // per relation, the columns a G' edge arrives at
	cols    map[string][]string  // each relation's column names
	fks     []storage.ForeignKey // the original's whose endpoints survive
}

// layoutKey names the catalog a layout was derived from. A catalog id is never
// reused, so a stale layout is never found; the memo's next emptying drops it.
type layoutKey struct{ catalog uint64 }

// layout derives the layout of D' over orig's catalog, once per catalog when
// G' is frozen.
func (rs *ResultSchema) layout(orig *storage.Database) (*layout, error) {
	key := layoutKey{orig.CatalogID()}
	if v, ok := rs.Graph.Memo(key); ok {
		return v.(*layout), nil
	}
	edges := rs.Graph.JoinEdges()
	names := rs.Relations()
	lay := &layout{schemas: make([]*storage.Schema, len(names)), indexed: make([][]string, len(names)), cols: make(map[string][]string, len(names))}
	for i, name := range names {
		rel := orig.Relation(name)
		if rel == nil {
			return nil, fmt.Errorf("core: result schema names %s, which is missing from the database", name)
		}
		var cols, indexed []string
		for _, c := range rel.Schema().Columns {
			joins := func(e *schemagraph.JoinEdge) bool {
				return e.From == name && e.FromCol == c.Name || e.To == name && e.ToCol == c.Name
			}
			if slices.Contains(rs.Projections(name), c.Name) || slices.ContainsFunc(edges, joins) {
				cols = append(cols, c.Name)
			}
		}
		for _, e := range edges {
			if e.To == name && !slices.Contains(indexed, e.ToCol) {
				indexed = append(indexed, e.ToCol)
			}
		}
		if len(cols) == 0 {
			// A relation can enter G' purely as a junction on a path (CAST
			// in the running example): fall back to its key or first column
			// so it remains representable.
			if k := rel.Schema().Key; k != "" {
				cols = []string{k}
			} else {
				cols = []string{rel.Schema().Columns[0].Name}
			}
		}
		sub, err := rel.Schema().Project(cols)
		if err != nil {
			return nil, err
		}
		lay.schemas[i], lay.indexed[i], lay.cols[name] = sub, indexed, cols
	}
	// Foreign keys of the original whose endpoints survive carry over, so
	// the précis is a database with its own constraints (paper §1).
	for _, fk := range orig.ForeignKeys() {
		from, to := lay.cols[fk.FromRelation], lay.cols[fk.ToRelation]
		if slices.Contains(from, fk.FromColumn) && slices.Contains(to, fk.ToColumn) {
			lay.fks = append(lay.fks, fk)
		}
	}
	return rs.Graph.Memoise(key, lay).(*layout), nil
}

// cardBudget returns the cardinality constraint's remaining allowance for
// rel (the paper's c(.) predicate, unaware of resource budgets).
func (g *generator) cardBudget(rel string) int {
	return g.card.Budget(rel, g.perRel, g.total)
}

// budget returns the fetch allowance for rel: the cardinality budget
// tightened by the resource budget's remaining tuple allowance plus one.
// The +1 sentinel matters: both fetch paths exclude tuples already in D',
// so fetching one row past the allowance guarantees the apply loop sees a
// genuinely new tuple it must refuse — which is what records the
// truncation. Tightening to the exact remainder would silently drop the
// tail without ever marking the answer partial. (Both values are read at
// serialized coordination points, which keeps parallel runs deterministic.)
func (g *generator) budget(rel string) int {
	b := g.cardBudget(rel)
	if g.bt != nil {
		if r := g.bt.remainingTuples(); r < b-1 {
			b = r + 1
		}
	}
	return b
}

// stmtSelect builds the AST of SELECT <cols> FROM rel WHERE <where> [LIMIT n]
// (limit < 0: unlimited, nil where: all); ids come back in Result.RowIDs.
func (g *generator) stmtSelect(rel string, where sqlx.Expr, limit int) *sqlx.SelectStmt {
	return &sqlx.SelectStmt{Columns: g.lay.cols[rel], Table: rel, Where: where, Limit: limit}
}

// fetchStmt executes the one row-returning query of a fetch: its rows become
// f's candidates.
func (g *generator) fetchStmt(f *fetched, st *sqlx.SelectStmt) error {
	res, err := g.execFetch(f, st)
	if err != nil {
		return err
	}
	f.rows, f.ids = res.Rows, res.RowIDs
	return nil
}

// fetchIDs fetches the first limit of the named tuples of rel, in ids order.
func (g *generator) fetchIDs(f *fetched, rel string, ids []storage.TupleID, limit int) error {
	return g.fetchStmt(f, g.stmtSelect(rel, &sqlx.RowIDIn{IDs: ids}, limit))
}

// apply inserts the fetched rows into the output relation in order,
// skipping duplicates (paper §5.2) and stopping once budget tuples were
// admitted. It also folds the fetch's physical work into the generation
// stats and the caller-visible engine totals.
//
// Which rows go in is decided row by row, and that loop is a cooperative
// checkpoint: the surrounding context is observed on every row (a
// cancellation is seen within one tuple pick), and the resource budget
// admits each tuple — once any budget dimension trips, no further tuple is
// ever admitted, so the produced database is an exact prefix of the
// canonical insertion sequence. Seed rows (seed=true) are always admitted
// but still charged, guaranteeing a non-empty answer under any budget. The
// admitted rows then enter D' in one Append, here, on the coordination
// goroutine, which is also where the join indexes of D' are built: a driving
// column's before the batch whose fetches read it (runBatch), the
// arrival columns' when generation ends (result).
func (g *generator) apply(rel string, f *fetched, budget int, seed bool) error {
	if f == nil {
		return nil
	}
	g.stats.Queries += f.queries
	g.stats.SQL.Add(f.sql)
	g.eng.AccumulateStats(f.sql)
	outRel := g.out.Relation(rel)
	// The fetch built its rows and ids for this generation alone: the admitted
	// ones are compacted to the front in place, and D' keeps the slices.
	admitted := 0
	for i, row := range f.rows {
		if admitted >= budget {
			break
		}
		if err := g.ctxErr(); err != nil {
			return err
		}
		id := f.ids[i]
		if outRel.Has(id) {
			continue // duplicates are removed (paper §5.2)
		}
		if !g.bt.admitTuple(id, row, seed) {
			break
		}
		f.ids[admitted], f.rows[admitted] = id, row
		admitted++
	}
	inserted := outRel.Append(f.ids[:admitted], f.rows[:admitted])
	g.perRel[rel] += inserted
	g.total += inserted
	return nil
}

// placeSeeds performs step 1 of Figure 5: D' starts with the tuples that
// contain the query tokens, fetched by rowid, capped by the cardinality
// constraint (NaïveQ takes the first ids; the index returns them in id
// order, the paper's "random subset"). Per-relation seed queries are
// independent reads of the original database, so with Workers > 1 they are
// fetched concurrently; inserts are applied serially in sorted relation
// order, preserving the serial result exactly.
func (g *generator) placeSeeds(seedTuples map[string][]storage.TupleID) error {
	st := g.trace.StartStep("seeds")
	tuples0, queries0 := g.total, g.stats.Queries
	rels := make([]string, 0, len(seedTuples))
	for rel := range seedTuples {
		if len(seedTuples[rel]) > 0 {
			rels = append(rels, rel)
		}
	}
	sort.Strings(rels)
	if err := g.ctxErr(); err != nil {
		return err
	}

	// Seeds use the raw cardinality budget, not the resource-budget-
	// tightened one: the tuples containing the query tokens are the
	// guaranteed core of any answer, so a budgeted query still returns
	// them (they are charged against the budget afterwards).
	if g.workers <= 1 || len(rels) < 2 {
		for _, rel := range rels {
			b := g.cardBudget(rel)
			if b <= 0 {
				continue
			}
			f, err := g.fetchSeed(rel, seedTuples[rel], b)
			if err != nil {
				return err
			}
			if err := g.apply(rel, f, b, true); err != nil {
				return err
			}
		}
		st.End(g.total-tuples0, g.stats.Queries-queries0)
		return nil
	}

	// Parallel path: snapshot optimistic budgets before any fetch (the live
	// budget can only shrink as earlier relations are applied, so each
	// fetch over-retrieves and the apply phase truncates).
	budgets := make([]int, len(rels))
	for i, rel := range rels {
		budgets[i] = g.cardBudget(rel)
	}
	results := make([]*fetched, len(rels))
	errs := make([]error, len(rels))
	ParallelFor(len(rels), g.workers, func(i int) {
		if budgets[i] <= 0 {
			return
		}
		results[i], errs[i] = g.fetchSeed(rels[i], seedTuples[rels[i]], budgets[i])
	})
	for i, rel := range rels {
		if errs[i] != nil {
			return errs[i]
		}
		if err := g.apply(rel, results[i], g.cardBudget(rel), true); err != nil {
			return err
		}
	}
	st.End(g.total-tuples0, g.stats.Queries-queries0)
	return nil
}

// fetchSeed retrieves the seed tuples of one relation by rowid, capped at
// limit, in tuple-weight order when the §7 extension is active.
func (g *generator) fetchSeed(rel string, ids []storage.TupleID, limit int) (*fetched, error) {
	ids = append([]storage.TupleID(nil), ids...)
	g.opts.Weights.order(rel, ids)
	f := &fetched{}
	if err := g.fetchIDs(f, rel, ids, limit); err != nil {
		return nil, err
	}
	return f, nil
}

// executeJoins performs step 2 of Figure 5: join edges of G' execute in
// decreasing weight order; a join departing from a relation with arriving
// edges still unexecuted is postponed, so every tuple that can reach a
// relation through any path is present before the walk moves past it.
//
// With Workers > 1 the walk is batched: a batch collects, in the exact
// order the serial algorithm would pick them, frontier edges that neither
// read a relation written earlier in the batch nor write a relation another
// batch edge writes. The batch's fetch queries then run concurrently while
// the inserts are applied serially in pick order — parallelism never
// changes the produced result database.
func (g *generator) executeJoins() error {
	plan := g.rs.joinPlan()
	pending := slices.Clone(plan.byWeight) // nextBatch cuts its picks out of it
	if g.opts.FIFOJoins {
		pending = g.rs.Graph.JoinEdges()
	}
	arriving := plan.arriving
	executed := make(map[string]int)

	for len(pending) > 0 {
		if err := g.ctxErr(); err != nil {
			return err
		}
		if g.bt.exhausted() {
			// A budget dimension tripped: stop the best-first expansion
			// here and keep the prefix built so far.
			return nil
		}
		batch := g.nextBatch(&pending, arriving, executed)
		if len(batch) == 0 {
			// The step budget refused the next pick.
			return nil
		}
		if err := g.runBatch(batch); err != nil {
			return err
		}
	}
	return nil
}

// nextBatch removes from pending the next group of at most g.workers
// conflict-free edges, replaying the serial algorithm's pick order: the
// highest-weight edge whose source has no unexecuted arrivals wins (or, on
// a cycle, the highest-weight remaining edge). An edge that reads or writes
// a relation an earlier pick of the same batch writes closes the batch, so
// fetches within a batch observe exactly the state the serial walk would
// show them.
func (g *generator) nextBatch(pending *[]*schemagraph.JoinEdge, arriving, executed map[string]int) []*schemagraph.JoinEdge {
	max := g.workers
	if max < 1 {
		max = 1
	}
	var batch []*schemagraph.JoinEdge
	written := make(map[string]bool)
	for len(batch) < max && len(*pending) > 0 {
		pick := -1
		for i, e := range *pending {
			if g.opts.DisablePostponement || executed[e.From] >= arriving[e.From] {
				pick = i
				break
			}
		}
		if pick < 0 {
			// A cycle in G' (mutual dependence): break it at the
			// highest-weight remaining edge.
			pick = 0
		}
		e := (*pending)[pick]
		if len(batch) > 0 && (written[e.From] || written[e.To]) {
			break
		}
		// Resource-budget admission: each join edge is one step; when the
		// step budget (or the deadline) refuses it, the edge stays pending
		// and the walk ends with the prefix built so far. Admission happens
		// only after the conflict check, so a closed batch never charges a
		// step it did not execute.
		if !g.bt.admitStep() {
			break
		}
		*pending = append((*pending)[:pick], (*pending)[pick+1:]...)
		batch = append(batch, e)
		written[e.To] = true
		executed[e.To]++
	}
	return batch
}

// runBatch fetches every edge of the batch (concurrently when the pool
// allows) and applies the results serially in pick order. First, here on
// the coordination goroutine, it reads each edge's driving values off the
// driving column's join index, which it builds unless it is there: the
// fetches only read D'.
func (g *generator) runBatch(batch []*schemagraph.JoinEdge) error {
	if len(batch) == 0 {
		return nil
	}
	for len(g.values) < len(batch) {
		g.values = append(g.values, nil)
	}
	for i, e := range batch {
		from := g.out.Relation(e.From)
		from.Index(e.FromCol)
		var err error
		if g.values[i], err = from.AppendDistinctValues(g.values[i][:0], e.FromCol); err != nil {
			return err
		}
	}
	if len(batch) == 1 {
		return g.runJoin(batch[0], g.values[0])
	}
	budgets := make([]int, len(batch))
	for i, e := range batch {
		budgets[i] = g.budget(e.To)
	}
	results := make([]*fetched, len(batch))
	errs := make([]error, len(batch))
	ParallelFor(len(batch), g.workers, func(i int) {
		if budgets[i] <= 0 {
			return
		}
		results[i], errs[i] = g.fetchJoin(batch[i], g.values[i], budgets[i])
	})
	for i, e := range batch {
		if errs[i] != nil {
			return errs[i]
		}
		// The batch's fetches ran concurrently, so a per-edge step here
		// times only the serial apply; the tuple and query counts are the
		// meaningful per-join signal. (The single-edge path below times the
		// whole fetch+apply.) The name is only rendered when a trace is
		// live, so untraced queries never pay the string concatenation.
		var st obs.StepToken
		if g.trace != nil {
			st = g.trace.StartStep(joinStepName(e))
		}
		tuples0, queries0 := g.total, g.stats.Queries
		if results[i] != nil {
			if err := g.apply(e.To, results[i], g.budget(e.To), false); err != nil {
				return err
			}
		}
		st.End(g.total-tuples0, g.stats.Queries-queries0)
		g.stats.JoinsExecuted++
	}
	return nil
}

// joinStepName renders the trace step name of one join edge.
func joinStepName(e *schemagraph.JoinEdge) string {
	return "join:" + e.From + "->" + e.To
}

// runJoin executes one join edge end-to-end: fetch under the live budget,
// then apply.
func (g *generator) runJoin(e *schemagraph.JoinEdge, values []storage.Value) error {
	var st obs.StepToken
	if g.trace != nil {
		st = g.trace.StartStep(joinStepName(e))
	}
	tuples0, queries0 := g.total, g.stats.Queries
	b := g.budget(e.To)
	if b > 0 {
		f, err := g.fetchJoin(e, values, b)
		if err != nil {
			return err
		}
		if f != nil {
			if err := g.apply(e.To, f, b, false); err != nil {
				return err
			}
		}
	}
	st.End(g.total-tuples0, g.stats.Queries-queries0)
	g.stats.JoinsExecuted++
	return nil
}

// fetchJoin retrieves, for the directed join Ri -> Rj, candidate tuples of
// Rj joining to the tuples of Ri already in D' (paper: the issued query
// "does not contain the actual join between the two relations" — it is a
// selection on the join-attribute values present in R'i, the driving
// values). It returns nil when the join has nothing to do.
func (g *generator) fetchJoin(e *schemagraph.JoinEdge, values []storage.Value, limit int) (*fetched, error) {
	if err := faultinject.Fire(faultinject.SiteJoin); err != nil {
		return nil, fmt.Errorf("core: join %s->%s: %w", e.From, e.To, err)
	}
	if err := g.ctxErr(); err != nil {
		return nil, err
	}
	if len(values) == 0 {
		return nil, nil
	}

	toN := g.isToN(e)
	useRoundRobin := g.strat == StrategyRoundRobin || (g.strat == StrategyAuto && toN)
	if useRoundRobin {
		return g.fetchRoundRobin(e, values, limit)
	}
	return g.fetchNaiveQ(e, values, limit)
}

// isToN reports whether the join Ri->Rj is 1-n: the referenced column of Rj
// is not Rj's primary key, so one driving value may match many tuples.
func (g *generator) isToN(e *schemagraph.JoinEdge) bool {
	to := g.eng.Database().Relation(e.To)
	if to == nil {
		return true
	}
	return to.Schema().Key != e.ToCol
}

// fetchNaiveQ is the paper's NaïveQ: one query with an IN list over the
// driving values and a top-k cut-off (RowNum / LIMIT). Tuples already in D'
// are excluded in the query itself so the budget buys only new tuples.
func (g *generator) fetchNaiveQ(e *schemagraph.JoinEdge, values []storage.Value, limit int) (*fetched, error) {
	if len(g.opts.Weights[e.To]) > 0 {
		return g.fetchNaiveQWeighted(e, values, limit)
	}
	where := g.naiveWhere(e, values)
	f := &fetched{}
	if err := g.fetchStmt(f, g.stmtSelect(e.To, where, limit)); err != nil {
		return nil, err
	}
	return f, nil
}

// naiveWhere builds NaïveQ's predicate: toCol IN (driving values), with the
// tuples already in D' excluded so the budget buys only new tuples. The
// exclusion consults the output relation itself as an id set — nothing is
// copied per join, and the same statement object serves every shard.
func (g *generator) naiveWhere(e *schemagraph.JoinEdge, values []storage.Value) sqlx.Expr {
	return &sqlx.Logical{
		And:   true,
		Left:  &sqlx.InList{Left: &sqlx.ColumnRef{Name: e.ToCol}, Values: values},
		Right: &sqlx.RowIDInSet{Set: g.out.Relation(e.To), Not: true},
	}
}

// fetchNaiveQWeighted is NaïveQ under the §7 tuple-weights extension: a
// first query retrieves the candidate ids, which are ordered by tuple
// weight before the budget cut, and a second query fetches the winners.
// This costs one extra id-only query per join but lets importance, not
// storage order, decide which tuples survive the cardinality constraint.
func (g *generator) fetchNaiveQWeighted(e *schemagraph.JoinEdge, values []storage.Value, limit int) (*fetched, error) {
	f := &fetched{}
	res, err := g.execFetch(f, &sqlx.SelectStmt{
		Columns: []string{sqlx.RowIDColumn},
		Table:   e.To,
		Where:   g.naiveWhere(e, values),
		Limit:   -1,
	})
	if err != nil {
		return nil, err
	}
	ids := res.RowIDs
	g.opts.Weights.order(e.To, ids)
	if len(ids) > limit {
		ids = ids[:limit]
	}
	if len(ids) == 0 {
		return f, nil
	}
	if err := g.fetchIDs(f, e.To, ids, len(ids)); err != nil {
		return nil, err
	}
	return f, nil
}

// fetchRoundRobin is the paper's Round-Robin: one scan per driving value;
// each round retrieves at most one joining tuple per scan while the budget
// holds, so joining tuples distribute fairly across driving tuples whatever
// the true fan-out distribution. Exhausted scans close.
//
// The scans are cursors over the posting lists a single grouped probe
// returned, the rounds are a deterministic simulation over those cursors, and
// the chosen tuples come back from a single rowid fetch in consumption order:
// two statements per join, however many driving values and tuples it has. A
// deadline that has already passed issues neither.
func (g *generator) fetchRoundRobin(e *schemagraph.JoinEdge, values []storage.Value, limit int) (*fetched, error) {
	f := &fetched{}
	if g.bt.checkDeadline() {
		return f, nil
	}
	ids, cursors, err := g.openCursors(f, e, values)
	if err != nil {
		return nil, err
	}

	// Deterministic round-robin simulation: choose up to limit ids, one per
	// cursor per round. A tuple holds one value of the join column, so the
	// cursors are disjoint and no pick can repeat an earlier one.
	chosen := make([]storage.TupleID, 0, min(len(ids), limit)) // limit may be math.MaxInt (Unlimited)
	for len(chosen) < limit && len(cursors) > 0 {
		if err := g.ctxErr(); err != nil {
			return nil, err
		}
		if g.bt.checkDeadline() {
			// Nothing is inserted once the deadline tripped, so the tuples
			// chosen so far are not worth fetching.
			return f, nil
		}
		next := cursors[:0]
		for _, c := range cursors {
			if len(chosen) >= limit {
				break
			}
			lo, hi := c>>32, c&(1<<32-1)
			chosen = append(chosen, ids[lo])
			if lo+1 < hi {
				next = append(next, c+1<<32)
			}
		}
		cursors = next
	}
	if len(chosen) == 0 {
		return f, nil
	}
	// A rowid IN fetch returns rows in list order: the consumption order.
	if err := g.fetchIDs(f, e.To, chosen, len(chosen)); err != nil {
		return nil, err
	}
	return f, nil
}

// openCursors opens Round-Robin's per-driving-value scans with one grouped
// probe of Rj's join column (values is sorted: DistinctValues) and turns its
// groups, in place, into one id cursor per driving value: ids already in R'j
// are dropped, a cursor is put in tuple-weight order when Rj has weights, and
// empty cursors are closed. It returns the ids left open and the cursors, each
// its range [lo, hi) of them as lo<<32 | hi.
func (g *generator) openCursors(f *fetched, e *schemagraph.JoinEdge, values []storage.Value) ([]storage.TupleID, []int, error) {
	groups, err := g.eng.Probe(e.To, e.ToCol, values)
	if err != nil {
		return nil, nil, fmt.Errorf("core: cursor probe on %s: %w", e.To, err)
	}
	f.queries++
	f.sql.Add(groups.Stats)
	outRel, ids, cursors := g.out.Relation(e.To), groups.IDs, make([]int, 0, len(groups.Ends))
	kept, start := 0, 0
	for _, end := range groups.Ends {
		lo := kept
		for _, id := range ids[start:end] {
			if !outRel.Has(id) {
				ids[kept] = id
				kept++
			}
		}
		start = end
		if kept > lo {
			g.opts.Weights.order(e.To, ids[lo:kept]) // a no-op unless Rj has weights
			cursors = append(cursors, lo<<32|kept)
		}
	}
	return ids[:kept], cursors, nil
}
