package shard

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"precis/internal/faultinject"
	"precis/internal/obs"
	"precis/internal/parallel"
	"precis/internal/sqlx"
	"precis/internal/storage"
)

// Metrics are the registry-backed shard counters one sharded engine shares
// across all of its queries' fetchers. All fields are nil-safe (obs
// counters no-op when nil), so an uninstrumented engine passes nil.
type Metrics struct {
	// Scatters counts statements fanned out (one per ExecStmt or Probe,
	// whatever the number of target shards).
	Scatters *obs.Counter
	// Queries[i] counts statements executed on shard i.
	Queries []*obs.Counter
	// Rows[i] counts rows shard i returned.
	Rows []*obs.Counter
}

// tally accumulates one shard's physical work during a single query. The
// fields are atomics because fetch tasks run on the generator's worker
// pool; the totals are read on the coordination goroutine after the
// generator returned.
type tally struct {
	queries atomic.Int64
	rows    atomic.Int64
	busy    atomic.Int64 // nanoseconds spent executing on this shard
}

// Fetcher executes the generator's SELECTs and probes across shard engines —
// core.Fetcher's scatter/gather implementation. One Fetcher serves one
// query: it snapshots the shard databases at construction (the coordinator
// serializes queries against mutations, so the snapshot is stable) and
// tallies per-shard work for the query's trace.
//
// ExecStmt and Probe are safe for concurrent use. AccumulateStats and TotalStats are
// only called from the query's coordination goroutine.
type Fetcher struct {
	part    Partitioner
	engs    []*sqlx.Engine
	metrics *Metrics
	tallies []tally
	total   sqlx.Stats
}

// NewFetcher builds a per-query scatter/gather fetcher over the shard
// databases. m may be nil (uninstrumented engine).
func NewFetcher(part Partitioner, dbs []*storage.Database, m *Metrics) *Fetcher {
	engs := make([]*sqlx.Engine, len(dbs))
	for i, db := range dbs {
		engs[i] = sqlx.NewEngine(db)
	}
	if m == nil {
		m = &Metrics{}
	}
	return &Fetcher{part: part, engs: engs, metrics: m, tallies: make([]tally, len(dbs))}
}

// Database returns shard 0's database as the schema catalog. The generator
// only reads schemas and foreign keys from it — both replicated to every
// shard — never tuples.
func (f *Fetcher) Database() *storage.Database { return f.engs[0].Database() }

// AccumulateStats implements core.Fetcher; called serially from the apply
// phase.
func (f *Fetcher) AccumulateStats(s sqlx.Stats) { f.total.Add(s) }

// TotalStats returns the physical work accumulated via AccumulateStats.
func (f *Fetcher) TotalStats() sqlx.Stats { return f.total }

// ExecStmt scatters one generated SELECT and gathers a deterministic
// merge. Statements with a top-level rowid predicate route only to the
// shards owning the named ids; everything else fans out to all shards.
func (f *Fetcher) ExecStmt(st sqlx.Stmt) (*sqlx.Result, error) {
	sel, ok := st.(*sqlx.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("shard: scatter execution only supports SELECT, got %T", st)
	}
	if sel.Distinct || len(sel.OrderBy) > 0 || sel.Offset != 0 {
		return nil, fmt.Errorf("shard: scatter execution does not support DISTINCT/ORDER BY/OFFSET")
	}
	rowIDs, routed := sqlx.RowIDOrder(sel.Where)
	targets := f.targets(rowIDs, routed)
	results := make([]*sqlx.Result, len(targets))
	err := f.scatter(sel.Table, targets, func(ti int, eng *sqlx.Engine) (rows int, err error) {
		if results[ti], err = eng.ExecStmt(sel); err != nil {
			return 0, err
		}
		return len(results[ti].Rows), nil
	})
	if err != nil {
		return nil, err
	}
	if len(targets) == 1 {
		// Single owner: the shard's result is already in final order.
		return results[0], nil
	}
	return f.merge(sel, rowIDs, routed, results), nil
}

// Probe scatters one grouped probe to every shard and gathers, per value,
// the shards' ascending runs merged into one (a tuple lives on one shard, so
// the runs are disjoint). It is one scatter, tallied like a statement.
func (f *Fetcher) Probe(rel, col string, values []storage.Value) (*sqlx.Groups, error) {
	results := make([]*sqlx.Groups, len(f.engs))
	err := f.scatter(rel, f.targets(nil, false), func(ti int, eng *sqlx.Engine) (rows int, err error) {
		if results[ti], err = eng.Probe(rel, col, values); err != nil {
			return 0, err
		}
		return len(results[ti].IDs), nil
	})
	if err != nil {
		return nil, err
	}
	if len(results) == 1 {
		return results[0], nil
	}
	out := &sqlx.Groups{Ends: make([]int, len(values))}
	for _, r := range results {
		out.Stats.Add(r.Stats)
	}
	out.IDs = make([]storage.TupleID, 0, out.Stats.TupleReads) // a probe reads a tuple per posting
	for i := range values {
		start, runs := len(out.IDs), 0
		for _, r := range results {
			if run := r.Group(i); len(run) > 0 {
				out.IDs = append(out.IDs, run...)
				runs++
			}
		}
		if runs > 1 {
			slices.Sort(out.IDs[start:])
		}
		out.Ends[i] = len(out.IDs)
	}
	return out, nil
}

// scatter runs fn on every target shard — inline for a single target, on one
// goroutine per shard otherwise — between the scatter and gather fault sites,
// counting one scatter and tallying each shard's work (fn returns its rows).
// The pool is parallel.For: a panic in one shard's work is re-raised on the
// calling goroutine as a *parallel.PanicError, and becomes ErrInternal.
func (f *Fetcher) scatter(rel string, targets []int, fn func(ti int, eng *sqlx.Engine) (rows int, err error)) error {
	if err := faultinject.Fire(faultinject.SiteShardScatter); err != nil {
		return fmt.Errorf("shard: scatter %s: %w", rel, err)
	}
	f.metrics.Scatters.Inc()
	errs := make([]error, len(targets))
	parallel.For(len(targets), len(targets), func(ti int) {
		shard := targets[ti]
		start := time.Now()
		rows, err := fn(ti, f.engs[shard])
		t := &f.tallies[shard]
		t.busy.Add(time.Since(start).Nanoseconds())
		t.queries.Add(1)
		t.rows.Add(int64(rows))
		counter(f.metrics.Rows, shard).Add(uint64(rows))
		counter(f.metrics.Queries, shard).Inc()
		errs[ti] = err
	})
	for ti, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", targets[ti], err)
		}
	}
	if err := faultinject.Fire(faultinject.SiteShardGather); err != nil {
		return fmt.Errorf("shard: gather %s: %w", rel, err)
	}
	return nil
}

// counter returns per-shard counter i, or nil — a counter that counts
// nothing — on an uninstrumented engine.
func counter(cs []*obs.Counter, i int) *obs.Counter {
	if i < len(cs) {
		return cs[i]
	}
	return nil
}

// targets resolves the shard set a statement must visit: the owners of the
// rowid predicate's ids (in ascending shard order) when one exists, all
// shards otherwise.
func (f *Fetcher) targets(rowIDs []storage.TupleID, routed bool) []int {
	n := len(f.engs)
	if !routed {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	seen := make([]bool, n)
	var targets []int
	for _, id := range rowIDs {
		if o := f.part.Owner(id); o >= 0 && o < n && !seen[o] {
			seen[o] = true
			targets = append(targets, o)
		}
	}
	sort.Ints(targets)
	return targets
}

// merge combines per-shard results into the row order a single engine
// would emit. Statements served from a rowid predicate are merged by
// predicate-list position (each id exists on at most one shard); all other
// plans emit ascending tuple ids per shard, so a global ascending sort
// reproduces the single-engine order. The statement's LIMIT then bounds
// the merged prefix — exact, because each shard over-fetched up to the
// full limit locally.
func (f *Fetcher) merge(sel *sqlx.SelectStmt, rowIDs []storage.TupleID, routed bool, results []*sqlx.Result) *sqlx.Result {
	out := &sqlx.Result{Columns: sel.Columns}
	for _, r := range results {
		out.Stats.Add(r.Stats)
		out.Columns = r.Columns
	}
	if routed {
		rows := make(map[storage.TupleID][]storage.Value)
		for _, r := range results {
			for i, id := range r.RowIDs {
				rows[id] = r.Rows[i]
			}
		}
		for _, id := range rowIDs {
			row, ok := rows[id]
			if !ok {
				continue
			}
			out.Rows = append(out.Rows, row)
			out.RowIDs = append(out.RowIDs, id)
			if sel.Limit >= 0 && len(out.Rows) >= sel.Limit {
				break
			}
		}
		return out
	}
	for _, r := range results {
		out.Rows = append(out.Rows, r.Rows...)
		out.RowIDs = append(out.RowIDs, r.RowIDs...)
	}
	sort.Sort(&rowSorter{rows: out.Rows, ids: out.RowIDs})
	if sel.Limit >= 0 && len(out.Rows) > sel.Limit {
		out.Rows = out.Rows[:sel.Limit]
		out.RowIDs = out.RowIDs[:sel.Limit]
	}
	return out
}

// rowSorter sorts rows and their ids together by ascending tuple id.
type rowSorter struct {
	rows [][]storage.Value
	ids  []storage.TupleID
}

func (s *rowSorter) Len() int           { return len(s.ids) }
func (s *rowSorter) Less(i, j int) bool { return s.ids[i] < s.ids[j] }
func (s *rowSorter) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
}

// RecordTrace appends one back-dated step per shard that did work during
// this query ("shard:i" with the rows it returned, the statements it ran,
// and its busy time) to the trace — called on the coordination goroutine
// inside the db_gen span, after the generator returned.
func (f *Fetcher) RecordTrace(tr *obs.Trace) {
	for i := range f.tallies {
		t := &f.tallies[i]
		q := t.queries.Load()
		if q == 0 {
			continue
		}
		tr.RecordStep(fmt.Sprintf("shard:%d", i), time.Duration(t.busy.Load()), int(t.rows.Load()), int(q))
	}
}
