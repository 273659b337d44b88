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
// shares the production scheduling (seed placement, join order, apply, budget
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

// executeJoins is generator.executeJoins with the reference runJoin.
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
		e := g.nextEdge(&pending, arriving, executed)
		if e == nil {
			return nil
		}
		if err := g.runJoin(e); err != nil {
			return err
		}
	}
	return nil
}

// runJoin is generator.runJoin over the reference fetches.
func (g refGenerator) runJoin(e *schemagraph.JoinEdge) error {
	if b := g.budget(e.To); b > 0 {
		res, err := g.fetchJoin(e, b)
		if err != nil {
			return err
		}
		if err := g.apply(e.To, res, b, false); err != nil {
			return err
		}
	}
	g.stats.JoinsExecuted++
	return nil
}

func (g refGenerator) fetchJoin(e *schemagraph.JoinEdge, limit int) (*sqlx.Result, error) {
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
		return g.fetchRoundRobin(e, values, limit)
	}
	return g.fetchNaiveQ(e, values, limit)
}

func (g refGenerator) fetchNaiveQ(e *schemagraph.JoinEdge, values []storage.Value, limit int) (*sqlx.Result, error) {
	if len(g.opts.Weights[e.To]) > 0 {
		return g.fetchNaiveQWeighted(e, values, limit)
	}
	return g.exec(g.naiveQ(e, values, g.lay.cols[e.To], limit))
}

// naiveQ is toCol IN (driving values) AND rowid NOT IN (ids of R′ⱼ).
func (g refGenerator) naiveQ(e *schemagraph.JoinEdge, values []storage.Value, cols []string, limit int) *sqlx.SelectStmt {
	st := &sqlx.SelectStmt{Columns: cols, Table: e.To, Col: e.ToCol, Values: values, Limit: limit}
	if excl := g.existingIDs(e.To); len(excl) > 0 {
		st.Exclude = excl
	}
	return st
}

func (g refGenerator) fetchNaiveQWeighted(e *schemagraph.JoinEdge, values []storage.Value, limit int) (*sqlx.Result, error) {
	if err := g.ctxErr(); err != nil {
		return nil, err
	}
	res, err := g.eng.ExecStmt(g.naiveQ(e, values, []string{}, -1))
	if err != nil {
		return nil, fmt.Errorf("core: weighted id query: %w", err)
	}
	g.charge(res.Stats)
	ids := append([]storage.TupleID(nil), res.RowIDs...)
	g.opts.Weights.order(e.To, ids)
	if len(ids) > limit {
		ids = ids[:limit]
	}
	if len(ids) == 0 {
		return &sqlx.Result{}, nil
	}
	return g.exec(&sqlx.SelectStmt{Columns: g.lay.cols[e.To], Table: e.To, IDs: ids, Limit: len(ids)})
}

// fetchRoundRobin opens one id scan per driving value, simulates the rounds,
// and fetches every chosen tuple with its own statement.
func (g refGenerator) fetchRoundRobin(e *schemagraph.JoinEdge, values []storage.Value, limit int) (*sqlx.Result, error) {
	outRel := g.out.Relation(e.To)
	cursors := make([][]storage.TupleID, 0, len(values))
	for _, v := range values {
		if err := g.ctxErr(); err != nil {
			return nil, err
		}
		if g.bt.checkDeadline() {
			continue
		}
		res, err := g.eng.ExecStmt(&sqlx.SelectStmt{Columns: []string{}, Table: e.To, Col: e.ToCol, Values: []storage.Value{v}, Limit: -1})
		if err != nil {
			return nil, fmt.Errorf("core: round-robin scan: %w", err)
		}
		g.charge(res.Stats)
		ids := make([]storage.TupleID, 0, len(res.RowIDs))
		for _, id := range res.RowIDs {
			if _, exists := getTuple(outRel, id); !exists {
				ids = append(ids, id)
			}
		}
		g.opts.Weights.order(e.To, ids)
		if len(ids) > 0 {
			cursors = append(cursors, ids)
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

	out := &sqlx.Result{}
	for _, id := range chosen {
		if err := g.ctxErr(); err != nil {
			return nil, err
		}
		res, err := g.exec(&sqlx.SelectStmt{Columns: g.lay.cols[e.To], Table: e.To, IDs: []storage.TupleID{id}, Limit: 1})
		if err != nil {
			return nil, err
		}
		out.Rows, out.RowIDs = append(out.Rows, res.Rows...), append(out.RowIDs, res.RowIDs...)
	}
	return out, nil
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
