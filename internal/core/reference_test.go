package core

import (
	"fmt"

	"precis/internal/faultinject"
	"precis/internal/schemagraph"
	"precis/internal/sqlx"
	"precis/internal/storage"
)

// This file is the test-only reference generator: the fetch paths as they
// were before the set-at-a-time rewrite — Round-Robin issuing one id-scan
// statement per driving value and one single-id SELECT per chosen tuple,
// NaïveQ excluding R′ⱼ with a copy of every id it holds. It
// shares the production scheduling (seed placement, batching, apply, budget
// accounting) so that only the fetches differ; differential_test.go holds
// the production generator identical to it in tuples, insertion order,
// physical work and truncation.

// refGenerator is a generator whose joins fetch the old way.
type refGenerator struct{ *generator }

// refGenerateDatabaseOpts is GenerateDatabaseOpts over the reference fetches.
func refGenerateDatabaseOpts(eng Fetcher, rs *ResultSchema, seedTuples map[string][]storage.TupleID, c CardinalityConstraint, strat Strategy, opts DBGenOptions) (*ResultDatabase, error) {
	g, err := newGenerator(eng, rs, seedTuples, c, strat, opts)
	if err != nil {
		return nil, err
	}
	if err := g.placeSeeds(seedTuples); err != nil {
		return nil, err
	}
	if err := (refGenerator{g}).executeJoins(); err != nil {
		return nil, err
	}
	return g.result(), nil
}

// executeJoins is generator.executeJoins with the reference runBatch.
func (g refGenerator) executeJoins() error {
	pending := g.rs.JoinEdgesByWeight()
	if g.opts.FIFOJoins {
		pending = g.rs.Graph.JoinEdges()
	}
	arriving := make(map[string]int)
	for _, e := range pending {
		arriving[e.To]++
	}
	executed := make(map[string]int)
	for len(pending) > 0 {
		if err := g.ctxErr(); err != nil {
			return err
		}
		if g.bt.exhausted() {
			return nil
		}
		batch := g.nextBatch(&pending, arriving, executed)
		if len(batch) == 0 {
			return nil
		}
		if err := g.runBatch(batch); err != nil {
			return err
		}
	}
	return nil
}

// runBatch is the old generator.runBatch: a single frontier edge hands the
// whole pool to the join's own per-value / per-tuple fetches.
func (g refGenerator) runBatch(batch []*schemagraph.JoinEdge) error {
	if len(batch) == 1 {
		e := batch[0]
		if b := g.budget(e.To); b > 0 {
			f, err := g.fetchJoin(e, b, g.workers)
			if err != nil {
				return err
			}
			if f != nil {
				if err := g.apply(e.To, f, b, false); err != nil {
					return err
				}
			}
		}
		g.stats.JoinsExecuted++
		return nil
	}
	inner := g.workers / len(batch)
	if inner < 1 {
		inner = 1
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
		results[i], errs[i] = g.fetchJoin(batch[i], budgets[i], inner)
	})
	for i, e := range batch {
		if errs[i] != nil {
			return errs[i]
		}
		if results[i] != nil {
			if err := g.apply(e.To, results[i], g.budget(e.To), false); err != nil {
				return err
			}
		}
		g.stats.JoinsExecuted++
	}
	return nil
}

func (g refGenerator) fetchJoin(e *schemagraph.JoinEdge, limit, workers int) (*fetched, error) {
	if err := faultinject.Fire(faultinject.SiteJoin); err != nil {
		return nil, fmt.Errorf("core: join %s->%s: %w", e.From, e.To, err)
	}
	if err := g.ctxErr(); err != nil {
		return nil, err
	}
	from := g.out.Relation(e.From)
	if from == nil || from.Len() == 0 {
		return nil, nil
	}
	values, err := from.DistinctValues(e.FromCol)
	if err != nil {
		return nil, err
	}
	if len(values) == 0 {
		return nil, nil
	}
	if g.strat == StrategyRoundRobin || (g.strat == StrategyAuto && g.isToN(e)) {
		return g.fetchRoundRobin(e, values, limit, workers)
	}
	return g.fetchNaiveQ(e, values, limit)
}

func (g refGenerator) fetchNaiveQ(e *schemagraph.JoinEdge, values []storage.Value, limit int) (*fetched, error) {
	if len(g.opts.Weights[e.To]) > 0 {
		return g.fetchNaiveQWeighted(e, values, limit)
	}
	f := &fetched{}
	if err := g.fetchStmt(f, g.naiveQ(e, values, g.lay.cols[e.To], limit)); err != nil {
		return nil, err
	}
	return f, nil
}

// naiveQ is toCol IN (driving values) AND rowid NOT IN (ids of R′ⱼ).
func (g refGenerator) naiveQ(e *schemagraph.JoinEdge, values []storage.Value, cols []string, limit int) *sqlx.SelectStmt {
	st := &sqlx.SelectStmt{Columns: cols, Table: e.To, Col: e.ToCol, Values: values, Limit: limit}
	if excl := g.existingIDs(e.To); len(excl) > 0 {
		st.Exclude = excl
	}
	return st
}

func (g refGenerator) fetchNaiveQWeighted(e *schemagraph.JoinEdge, values []storage.Value, limit int) (*fetched, error) {
	f := &fetched{}
	if err := g.ctxErr(); err != nil {
		return nil, err
	}
	res, err := g.eng.ExecStmt(g.naiveQ(e, values, []string{}, -1))
	if err != nil {
		return nil, fmt.Errorf("core: weighted id query: %w", err)
	}
	f.queries++
	f.sql.Add(res.Stats)
	ids := append([]storage.TupleID(nil), res.RowIDs...)
	g.opts.Weights.order(e.To, ids)
	if len(ids) > limit {
		ids = ids[:limit]
	}
	if len(ids) == 0 {
		return f, nil
	}
	if err := g.fetchStmt(f, &sqlx.SelectStmt{Columns: g.lay.cols[e.To], Table: e.To, IDs: ids, Limit: len(ids)}); err != nil {
		return nil, err
	}
	return f, nil
}

// fetchRoundRobin opens one id scan per driving value, simulates the rounds,
// and fetches every chosen tuple with its own statement.
func (g refGenerator) fetchRoundRobin(e *schemagraph.JoinEdge, values []storage.Value, limit, workers int) (*fetched, error) {
	outRel := g.out.Relation(e.To)

	type scanRes struct {
		ids []storage.TupleID
		sql sqlx.Stats
		err error
	}
	scans := make([]scanRes, len(values))
	ParallelFor(len(values), workers, func(i int) {
		if err := g.ctxErr(); err != nil {
			scans[i].err = err
			return
		}
		if g.bt.checkDeadline() {
			return
		}
		res, err := g.eng.ExecStmt(&sqlx.SelectStmt{Columns: []string{}, Table: e.To, Col: e.ToCol, Values: values[i : i+1], Limit: -1})
		if err != nil {
			scans[i].err = fmt.Errorf("core: round-robin scan: %w", err)
			return
		}
		ids := make([]storage.TupleID, 0, len(res.RowIDs))
		for _, id := range res.RowIDs {
			if _, exists := getTuple(outRel, id); !exists {
				ids = append(ids, id)
			}
		}
		g.opts.Weights.order(e.To, ids)
		scans[i].ids = ids
		scans[i].sql = res.Stats
	})
	f := &fetched{}
	cursors := make([][]storage.TupleID, 0, len(values))
	for i := range scans {
		if scans[i].err != nil {
			return nil, scans[i].err
		}
		f.queries++
		f.sql.Add(scans[i].sql)
		if len(scans[i].ids) > 0 {
			cursors = append(cursors, scans[i].ids)
		}
	}

	var chosen []storage.TupleID
	chosenSet := make(map[storage.TupleID]bool)
	for len(chosen) < limit && len(cursors) > 0 {
		if err := g.ctxErr(); err != nil {
			return nil, err
		}
		if g.bt.checkDeadline() {
			break
		}
		next := cursors[:0]
		for _, cur := range cursors {
			if len(chosen) >= limit {
				break
			}
			id := cur[0]
			cur = cur[1:]
			if !chosenSet[id] {
				chosen = append(chosen, id)
				chosenSet[id] = true
			}
			if len(cur) > 0 {
				next = append(next, cur)
			}
		}
		cursors = next
	}

	type rowRes struct {
		rows []storage.Row
		ids  []storage.TupleID
		sql  sqlx.Stats
		err  error
	}
	fetchedRows := make([]rowRes, len(chosen))
	ParallelFor(len(chosen), workers, func(i int) {
		if err := g.ctxErr(); err != nil {
			fetchedRows[i].err = err
			return
		}
		res, err := g.eng.ExecStmt(&sqlx.SelectStmt{Columns: g.lay.cols[e.To], Table: e.To, IDs: chosen[i : i+1], Limit: 1})
		if err != nil {
			fetchedRows[i].err = err
			return
		}
		fetchedRows[i].rows, fetchedRows[i].ids = res.Rows, res.RowIDs
		fetchedRows[i].sql = res.Stats
	})
	for i := range fetchedRows {
		if fetchedRows[i].err != nil {
			return nil, fetchedRows[i].err
		}
		f.queries++
		f.sql.Add(fetchedRows[i].sql)
		f.rows = append(f.rows, fetchedRows[i].rows...)
		f.ids = append(f.ids, fetchedRows[i].ids...)
	}
	return f, nil
}

// existingIDs copies every id of the output relation into a set of the
// statement's own.
func (g refGenerator) existingIDs(rel string) idCopy {
	r := g.out.Relation(rel)
	if r == nil || r.Len() == 0 {
		return nil
	}
	ids := make(idCopy, r.Len())
	scanTuples(r, func(t storage.Tuple) bool {
		ids[t.ID] = true
		return true
	})
	return ids
}

// idCopy is a copied id set.
type idCopy map[storage.TupleID]bool

func (s idCopy) Has(id storage.TupleID) bool { return s[id] }
