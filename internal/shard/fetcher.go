package shard

import (
	"errors"
	"fmt"
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
	all     []int // every shard: the targets of a statement that is not routed
	workers int   // goroutines a scatter keeps busy, the caller's included
	metrics *Metrics
	tallies []tally
	total   sqlx.Stats
}

// NewFetcher builds a per-query scatter/gather fetcher over the shard
// databases. m may be nil (uninstrumented engine).
func NewFetcher(part Partitioner, dbs []*storage.Database, m *Metrics) *Fetcher {
	engs, all := make([]*sqlx.Engine, len(dbs)), make([]int, len(dbs))
	for i, db := range dbs {
		engs[i], all[i] = sqlx.NewEngine(db), i
	}
	if m == nil {
		m = &Metrics{}
	}
	return &Fetcher{part: part, engs: engs, all: all, workers: parallel.NormalizeWorkers(0), metrics: m, tallies: make([]tally, len(dbs))}
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

// ExecStmt scatters one generated SELECT and gathers the rows in the order a
// single engine would emit them. A statement that lists ids is routed: its ids
// are bucketed by owner, every owner is asked — by a copy of the statement
// listing its bucket — for the tuples it holds and no others, and the answers
// are merged by walking the statement's list. Any other statement goes to
// every shard as it is, and the shards' answers, each ascending by tuple id,
// are merged by id. A nil statement is an error, as on a single engine.
func (f *Fetcher) ExecStmt(sel sqlx.Stmt) (*sqlx.Result, error) {
	if sel == nil {
		return nil, errors.New("shard: nil statement")
	}
	var r *routing
	targets := f.all
	if sel.IDs != nil {
		var err error
		if r, err = f.route(sel.IDs); err != nil {
			return nil, err
		}
		targets = r.targets
	}
	results := make([]*sqlx.Result, len(f.engs))
	err := f.scatter(sel.Table, targets, func(shard int, eng *sqlx.Engine) (rows int, err error) {
		stmt := sel
		if r != nil {
			narrowed := *sel
			narrowed.IDs = r.buckets[shard]
			stmt = &narrowed
		}
		if results[shard], err = eng.ExecStmt(stmt); err != nil {
			return 0, err
		}
		return len(results[shard].Rows), nil
	})
	if err != nil {
		return nil, err
	}
	if len(targets) == 1 {
		// Single owner: the shard's result is already in final order.
		return results[targets[0]], nil
	}
	return merge(sel, results, r), nil
}

// Probe scatters one grouped probe to every shard and gathers, per value,
// the shards' ascending runs merged by id into one (a tuple lives on one
// shard, so the runs are disjoint). It is one scatter, tallied like a
// statement.
func (f *Fetcher) Probe(rel, col string, values []storage.Value) (*sqlx.Groups, error) {
	results := make([]*sqlx.Groups, len(f.engs))
	err := f.scatter(rel, f.all, func(shard int, eng *sqlx.Engine) (rows int, err error) {
		if results[shard], err = eng.Probe(rel, col, values); err != nil {
			return 0, err
		}
		return len(results[shard].IDs), nil
	})
	if err != nil {
		return nil, err
	}
	if len(results) == 1 {
		return results[0], nil
	}
	out := &sqlx.Groups{Ends: make([]int, len(values))}
	total := 0
	for _, r := range results {
		out.Stats.Add(r.Stats)
		total += len(r.IDs)
	}
	out.IDs = make([]storage.TupleID, 0, total)
	heads := make([]head, len(results))
	for i := range values {
		for s, r := range results {
			heads[s].ids = r.Group(i)
		}
		for h := minHead(heads); h != nil; h = minHead(heads) {
			out.IDs, h.ids = append(out.IDs, h.ids[0]), h.ids[1:]
		}
		out.Ends[i] = len(out.IDs)
	}
	return out, nil
}

// scatter runs fn for every target shard between the scatter and gather fault
// sites, counting one scatter and tallying each shard's work (fn returns its
// rows). parallel.For shares the targets out among the calling goroutine and
// at most one more per other CPU: a shard's work is all CPU, so more would
// only queue. A panic in one shard's work, the caller's share included, is
// re-raised here once every share has ended, and becomes ErrInternal.
func (f *Fetcher) scatter(rel string, targets []int, fn func(shard int, eng *sqlx.Engine) (rows int, err error)) error {
	if err := faultinject.Fire(faultinject.SiteShardScatter); err != nil {
		return fmt.Errorf("shard: scatter %s: %w", rel, err)
	}
	f.metrics.Scatters.Inc()
	errs := make([]error, len(targets))
	parallel.For(len(targets), f.workers, func(ti int) {
		shard := targets[ti]
		start := time.Now()
		rows, err := fn(shard, f.engs[shard])
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

// routing is the id list of one statement bucketed by owner.
type routing struct {
	ids     []storage.TupleID   // the list, as the statement spells it
	owners  []int32             // owners[i] is the shard holding ids[i], if any does
	targets []int               // the shards owning a listed id, ascending
	buckets [][]storage.TupleID // buckets[s]: the ids shard s owns, in list order, duplicates kept
}

// route buckets ids by owner in one counting pass over one array. An owner
// outside [0, N) is the partitioner's bug and fails the statement, as it
// fails Partition: leaving the id out would shorten the answer silently.
func (f *Fetcher) route(ids []storage.TupleID) (*routing, error) {
	n := len(f.engs)
	r := &routing{ids: ids, owners: make([]int32, len(ids)), targets: make([]int, 0, n), buckets: make([][]storage.TupleID, n)}
	counts := make([]int, n)
	for i, id := range ids {
		o, err := OwnerOf(f.part, id)
		if err != nil {
			return nil, err
		}
		r.owners[i] = int32(o)
		counts[o]++
	}
	array := make([]storage.TupleID, len(ids))
	for s, c := range counts {
		if c > 0 {
			r.targets = append(r.targets, s)
		}
		r.buckets[s], array = array[:0:c], array[c:]
	}
	for i, id := range ids {
		r.buckets[r.owners[i]] = append(r.buckets[r.owners[i]], id)
	}
	return r, nil
}

// head is the rest of one shard's answer in a merge; Probe's have no rows.
type head struct {
	ids  []storage.TupleID
	rows []storage.Row
}

// minHead returns the head whose next id is smallest, nil when all are spent.
func minHead(heads []head) *head {
	var m *head
	for i := range heads {
		if h := &heads[i]; len(h.ids) > 0 && (m == nil || h.ids[0] < m.ids[0]) {
			m = h
		}
	}
	return m
}

// merge gathers per-shard results (nil for a shard not asked) into the rows
// a single engine would emit, up to the statement's LIMIT, in slices sized
// once. A routed statement's list is walked once, taking the owner's next row
// when it is this id's: the owner answered its bucket in list order, and an
// id that names no tuple, or whose tuple Col or Exclude refused, has no row
// (invariant 2). A shard that stopped at its own LIMIT runs out only when the
// merge has reached it too (invariant 3). Unrouted results, ascending on every
// shard, are merged by id, smallest head first.
func merge(sel *sqlx.SelectStmt, results []*sqlx.Result, r *routing) *sqlx.Result {
	out := &sqlx.Result{Columns: sel.Columns}
	heads := make([]head, len(results))
	total := 0
	for s, res := range results {
		if res == nil {
			continue
		}
		out.Stats.Add(res.Stats)
		out.Columns = res.Columns
		heads[s] = head{ids: res.RowIDs, rows: res.Rows}
		total += len(res.RowIDs)
	}
	if sel.Limit >= 0 {
		total = min(total, sel.Limit)
	}
	if total == 0 {
		return out
	}
	out.Rows, out.RowIDs = make([]storage.Row, 0, total), make([]storage.TupleID, 0, total)
	take := func(h *head) {
		out.Rows, out.RowIDs = append(out.Rows, h.rows[0]), append(out.RowIDs, h.ids[0])
		h.rows, h.ids = h.rows[1:], h.ids[1:]
	}
	if r == nil {
		for len(out.RowIDs) < total {
			take(minHead(heads))
		}
		return out
	}
	for i, id := range r.ids {
		if len(out.RowIDs) == total {
			break
		}
		if h := &heads[r.owners[i]]; len(h.ids) > 0 && h.ids[0] == id {
			take(h)
		}
	}
	return out
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
