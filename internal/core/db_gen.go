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
	// Workers is read by nothing: generation runs on the caller's goroutine.
	// The field stays only because benchmark/replay.go still sets it; the
	// next change to the benchmark deletes both.
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
	// the queries they issued. nil (the default) is a strict no-op.
	Trace *obs.Trace
}

// Fetcher is the generator's view of the original database: a read-only
// SELECT executor, the grouped probe that opens Round-Robin's scans, and the
// schema catalog. *sqlx.Engine satisfies it directly (the single-engine
// path); internal/shard provides a scatter/gather implementation that fans
// each statement and probe out across shard engines and merges the results
// deterministically. One generation calls it from one goroutine.
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
	eng    Fetcher
	rs     *ResultSchema
	card   CardinalityConstraint
	strat  Strategy
	opts   DBGenOptions
	ctx    context.Context
	done   <-chan struct{} // ctx.Done(), read once
	bt     *budgetTracker  // nil when no budget was set
	trace  *obs.Trace      // nil when the query is untraced
	out    *storage.Result
	perRel map[string]int
	total  int
	stats  GenStats
	lay    *layout         // of D'; shared, read only
	values []storage.Value // the driving values of the join being run; every join reuses it
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
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	g := &generator{
		eng:    eng,
		rs:     rs,
		card:   c,
		strat:  strat,
		opts:   opts,
		ctx:    ctx,
		done:   ctx.Done(),
		bt:     newBudgetTracker(opts.Budget),
		trace:  opts.Trace,
		out:    storage.NewResult("precis", lay.schemas, lay.fks),
		perRel: make(map[string]int),
		lay:    lay,
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
	case <-g.done:
		return fmt.Errorf("core: result database generation canceled: %w", g.ctx.Err())
	default:
		return nil
	}
}

// exec runs one generated SELECT against the original database and charges
// it to the generation's stats.
func (g *generator) exec(st *sqlx.SelectStmt) (*sqlx.Result, error) {
	res, err := g.eng.ExecStmt(st)
	if err != nil {
		return nil, fmt.Errorf("core: generated query on %s: %w", st.Table, err)
	}
	g.charge(res.Stats)
	return res, nil
}

// charge counts one executed statement or probe in the generation stats and
// the caller-visible engine totals.
func (g *generator) charge(s sqlx.Stats) {
	g.stats.Queries++
	g.stats.SQL.Add(s)
	g.eng.AccumulateStats(s)
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
// tail without ever marking the answer partial.
func (g *generator) budget(rel string) int {
	b := g.cardBudget(rel)
	if g.bt != nil {
		if r := g.bt.remainingTuples(); r < b-1 {
			b = r + 1
		}
	}
	return b
}

// fetchIDs fetches the first limit of the named tuples of rel, in ids order;
// their ids come back in Result.RowIDs beside the rows. No ids issue no
// statement and fetch an empty result: a nil IDs would read as no id list, a
// scan.
func (g *generator) fetchIDs(rel string, ids []storage.TupleID, limit int) (*sqlx.Result, error) {
	if len(ids) == 0 {
		return &sqlx.Result{}, nil
	}
	return g.exec(&sqlx.SelectStmt{Columns: g.lay.cols[rel], Table: rel, IDs: ids, Limit: limit})
}

// apply inserts the fetched rows (res may be nil: nothing fetched) into the
// output relation in order, stopping once budget tuples were admitted. No
// fetch returns a tuple D' holds — seeds go into empty relations, NaïveQ
// excludes R'j in its statement and Round-Robin's cursors drop it — so the
// duplicates of paper §5.2 are removed before apply sees a row; Append's id
// set keeps any other repeat out.
//
// Which rows go in is decided row by row, and that loop is a cooperative
// checkpoint: the surrounding context is observed on every row (a
// cancellation is seen within one tuple pick), and the resource budget
// admits each tuple — once any budget dimension trips, no further tuple is
// ever admitted, so the produced database is an exact prefix of the
// canonical insertion sequence. Seed rows (seed=true) are always admitted
// but still charged, guaranteeing a non-empty answer under any budget. The
// admitted rows then enter D' in one Append.
func (g *generator) apply(rel string, res *sqlx.Result, budget int, seed bool) error {
	if res == nil {
		return nil
	}
	// The admitted rows are a prefix of the fetch's, which it built for this
	// generation alone: D' keeps the slices.
	admitted := 0
	for admitted < len(res.Rows) && admitted < budget {
		if err := g.ctxErr(); err != nil {
			return err
		}
		if !g.bt.admitTuple(res.RowIDs[admitted], res.Rows[admitted], seed) {
			break
		}
		admitted++
	}
	inserted := g.out.Relation(rel).Append(res.RowIDs[:admitted], res.Rows[:admitted])
	g.perRel[rel] += inserted
	g.total += inserted
	return nil
}

// placeSeeds performs step 1 of Figure 5: D' starts with the tuples that
// contain the query tokens, fetched by rowid relation by relation in sorted
// order, capped by the cardinality constraint (NaïveQ takes the first ids;
// the index returns them in id order, the paper's "random subset").
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
	for _, rel := range rels {
		b := g.cardBudget(rel)
		if b <= 0 {
			continue
		}
		// In tuple-weight order when the §7 extension is active.
		ids := append([]storage.TupleID(nil), seedTuples[rel]...)
		g.opts.Weights.order(rel, ids)
		res, err := g.fetchIDs(rel, ids, b)
		if err != nil {
			return err
		}
		if err := g.apply(rel, res, b, true); err != nil {
			return err
		}
	}
	st.End(g.total-tuples0, g.stats.Queries-queries0)
	return nil
}

// executeJoins performs step 2 of Figure 5: join edges of G' execute in
// decreasing weight order; a join departing from a relation with arriving
// edges still unexecuted is postponed, so every tuple that can reach a
// relation through any path is present before the walk moves past it.
func (g *generator) executeJoins() error {
	plan := g.rs.joinPlan()
	pending := slices.Clone(plan.byWeight) // nextEdge cuts its picks out of it
	if g.opts.FIFOJoins {
		pending = g.rs.Graph.JoinEdges()
	}
	executed := make(map[string]int)
	for len(pending) > 0 {
		if err := g.ctxErr(); err != nil {
			return err
		}
		e := g.nextEdge(&pending, plan.arriving, executed)
		if e == nil {
			// A budget dimension tripped: stop the best-first expansion
			// here and keep the prefix built so far.
			return nil
		}
		if err := g.runJoin(e); err != nil {
			return err
		}
	}
	return nil
}

// nextEdge removes from pending the edge the walk picks next: the
// highest-weight edge whose source has no unexecuted arrivals, or, on a cycle
// in G' (mutual dependence), the highest-weight remaining edge. Each join edge
// is one step of the resource budget: when the budget refuses it, the edge
// stays pending and nextEdge returns nil.
func (g *generator) nextEdge(pending *[]*schemagraph.JoinEdge, arriving, executed map[string]int) *schemagraph.JoinEdge {
	if !g.bt.admitStep() {
		return nil
	}
	pick := 0
	for i, e := range *pending {
		if g.opts.DisablePostponement || executed[e.From] >= arriving[e.From] {
			pick = i
			break
		}
	}
	e := (*pending)[pick]
	*pending = slices.Delete(*pending, pick, pick+1)
	executed[e.To]++
	return e
}

// joinStepName renders the trace step name of one join edge.
func joinStepName(e *schemagraph.JoinEdge) string {
	return "join:" + e.From + "->" + e.To
}

// runJoin executes one join edge end to end: it reads the driving values off
// the driving column's join index of D', which it builds unless it is there,
// then fetches under the live budget and applies.
func (g *generator) runJoin(e *schemagraph.JoinEdge) error {
	from := g.out.Relation(e.From)
	from.Index(e.FromCol)
	var err error
	if g.values, err = from.AppendDistinctValues(g.values[:0], e.FromCol); err != nil {
		return err
	}
	// The step's name is only rendered when a trace is live, so untraced
	// queries never pay the string concatenation.
	var st obs.StepToken
	if g.trace != nil {
		st = g.trace.StartStep(joinStepName(e))
	}
	tuples0, queries0 := g.total, g.stats.Queries
	if b := g.budget(e.To); b > 0 {
		res, err := g.fetchJoin(e, g.values, b)
		if err != nil {
			return err
		}
		if err := g.apply(e.To, res, b, false); err != nil {
			return err
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
func (g *generator) fetchJoin(e *schemagraph.JoinEdge, values []storage.Value, limit int) (*sqlx.Result, error) {
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
func (g *generator) fetchNaiveQ(e *schemagraph.JoinEdge, values []storage.Value, limit int) (*sqlx.Result, error) {
	if len(g.opts.Weights[e.To]) > 0 {
		return g.fetchNaiveQWeighted(e, values, limit)
	}
	return g.exec(g.naiveQ(e, values, g.lay.cols[e.To], limit))
}

// naiveQ builds NaïveQ's statement: the first limit tuples of e.To whose toCol
// is one of the driving values, with the tuples already in D' excluded so the
// budget buys only new tuples. The exclusion consults the output relation
// itself as an id set — nothing is copied per join, and the same statement
// serves every shard.
func (g *generator) naiveQ(e *schemagraph.JoinEdge, values []storage.Value, cols []string, limit int) *sqlx.SelectStmt {
	return &sqlx.SelectStmt{Columns: cols, Table: e.To, Col: e.ToCol, Values: values, Exclude: g.out.Relation(e.To), Limit: limit}
}

// fetchNaiveQWeighted is NaïveQ under the §7 tuple-weights extension: a
// first query retrieves the candidate ids, which are ordered by tuple
// weight before the budget cut, and a second query fetches the winners.
// This costs one extra id-only query per join but lets importance, not
// storage order, decide which tuples survive the cardinality constraint.
func (g *generator) fetchNaiveQWeighted(e *schemagraph.JoinEdge, values []storage.Value, limit int) (*sqlx.Result, error) {
	res, err := g.exec(g.naiveQ(e, values, []string{}, -1)) // the ids alone
	if err != nil {
		return nil, err
	}
	ids := res.RowIDs
	g.opts.Weights.order(e.To, ids)
	if len(ids) > limit {
		ids = ids[:limit]
	}
	return g.fetchIDs(e.To, ids, len(ids))
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
func (g *generator) fetchRoundRobin(e *schemagraph.JoinEdge, values []storage.Value, limit int) (*sqlx.Result, error) {
	if g.bt.checkDeadline() {
		return &sqlx.Result{}, nil
	}
	ids, cursors, err := g.openCursors(e, values)
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
			return &sqlx.Result{}, nil
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
	// A rowid IN fetch returns rows in list order: the consumption order.
	return g.fetchIDs(e.To, chosen, len(chosen))
}

// openCursors opens Round-Robin's per-driving-value scans with one grouped
// probe of Rj's join column (values is sorted: DistinctValues) and turns its
// groups, in place, into one id cursor per driving value: ids already in R'j
// are dropped, a cursor is put in tuple-weight order when Rj has weights, and
// empty cursors are closed. It returns the ids left open and the cursors, each
// its range [lo, hi) of them as lo<<32 | hi.
func (g *generator) openCursors(e *schemagraph.JoinEdge, values []storage.Value) ([]storage.TupleID, []int, error) {
	groups, err := g.eng.Probe(e.To, e.ToCol, values)
	if err != nil {
		return nil, nil, fmt.Errorf("core: cursor probe on %s: %w", e.To, err)
	}
	g.charge(groups.Stats)
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
