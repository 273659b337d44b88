// Package costmodel implements the paper's cost model for the Result
// Database Generator (§6):
//
//	Cost(D') = Σ_i card(R'_i) · (IndexTime + TupleTime)      (Formula 1)
//	Cost(D') = c_R · n_R · (IndexTime + TupleTime)           (Formula 2)
//	c_R      = cost_M / (n_R · (IndexTime + TupleTime))      (Formula 3)
//
// where IndexTime is the time to find a tuple id for a given value in an
// index and TupleTime the time to read a tuple given its id. Formula 3
// turns a desired response time cost_M into a cardinality constraint.
//
// The formulas charge index probes and tuple reads — the generator's
// sqlx.Stats.IndexLookups and TupleReads — not statements. The generator
// fetches set-at-a-time (one statement per NaïveQ join, two per Round-Robin
// join: a grouped probe over all driving values and one fetch of the chosen
// tuples), so core.GenStats.Queries no longer tracks the number of driving
// values or tuples, while the probe and read counts the model is fitted to
// are exactly what a statement-per-value, statement-per-tuple execution
// performs (internal/core's differential test holds them equal). Calibrate,
// on the other hand, times whole one-probe statements — trees, as the
// generator builds them, so no parse — and the IndexTime it reports also
// absorbs the per-statement work (plan, compiled predicate, result) that the
// generator pays once per join, not once per probe: Formula 1 over measured
// counts over-estimates by that margin (EXPERIMENTS.md, "Cost model").
package costmodel

import (
	"fmt"
	"time"

	"precis/internal/sqlx"
	"precis/internal/storage"
)

// Params are the calibrated per-operation costs of the underlying engine.
type Params struct {
	IndexTime time.Duration
	TupleTime time.Duration
}

// PerTuple returns IndexTime + TupleTime, the cost of landing one tuple.
func (p Params) PerTuple() time.Duration { return p.IndexTime + p.TupleTime }

// String renders the parameters.
func (p Params) String() string {
	return fmt.Sprintf("IndexTime=%v TupleTime=%v", p.IndexTime, p.TupleTime)
}

// Cost implements Formula (1) over measured per-relation cardinalities.
func Cost(p Params, cards map[string]int) time.Duration {
	var total time.Duration
	for _, n := range cards {
		total += time.Duration(n) * p.PerTuple()
	}
	return total
}

// CostUniform implements Formula (2): all n_R relations receive c_R tuples.
func CostUniform(p Params, cR, nR int) time.Duration {
	return time.Duration(cR*nR) * p.PerTuple()
}

// SolveCR implements Formula (3): the largest per-relation cardinality
// whose predicted cost stays within budget. Returns 0 when even one tuple
// per relation exceeds the budget.
func SolveCR(p Params, budget time.Duration, nR int) int {
	if nR <= 0 || p.PerTuple() <= 0 {
		return 0
	}
	cr := int(budget / (time.Duration(nR) * p.PerTuple()))
	if cr < 0 {
		return 0
	}
	return cr
}

// FromStats predicts the cost of the physical work recorded in s: index
// probes at IndexTime each plus tuple reads at TupleTime each. This is the
// generalization of Formula 1 when per-relation cardinalities are not
// uniform.
func FromStats(p Params, s sqlx.Stats) time.Duration {
	return time.Duration(s.IndexLookups)*p.IndexTime + time.Duration(s.TupleReads)*p.TupleTime
}

// CalibrationConfig tunes Calibrate. The zero value uses sensible defaults.
type CalibrationConfig struct {
	Rows   int // rows in the scratch relation (default 5000)
	Group  int // tuples per indexed value for the multi-tuple probe (default 20)
	Rounds int // timing repetitions (default 200)
}

func (c *CalibrationConfig) defaults() {
	if c.Rows <= 0 {
		c.Rows = 5000
	}
	if c.Group <= 1 {
		c.Group = 20
	}
	if c.Rounds <= 0 {
		c.Rounds = 200
	}
}

// Calibrate measures IndexTime and TupleTime on a scratch database built
// with the same storage engine the précis system runs on. It times two
// populations of the statement the generator issues, col IN (v): on a unique
// column (IndexTime + G₁·TupleTime) and on a grouped one (IndexTime +
// G·TupleTime), G₁ and G the tuples per probe their Stats report, and solves
// the two equations.
func Calibrate(cfg CalibrationConfig) (Params, error) {
	single, multi, err := measure(cfg)
	if err != nil {
		return Params{}, err
	}
	var tuple time.Duration
	if dg := multi.tuples - single.tuples; dg > 0 {
		tuple = max(0, time.Duration(float64(multi.perProbe-single.perProbe)/dg))
	}
	index := max(0, single.perProbe-time.Duration(single.tuples*float64(tuple)))
	return Params{IndexTime: index, TupleTime: tuple}, nil
}

// population is one timed population of probes: the time per probe and the
// tuples a probe read, on average.
type population struct {
	perProbe time.Duration
	tuples   float64
}

// measure times Calibrate's two populations.
func measure(cfg CalibrationConfig) (single, multi population, err error) {
	cfg.defaults()
	db := storage.NewDatabase("calibration")
	rel := db.MustCreateRelation(storage.MustSchema("CALIB", "uniq", storage.Column{Name: "uniq", Type: storage.TypeInt},
		storage.Column{Name: "grp", Type: storage.TypeInt}, storage.Column{Name: "payload", Type: storage.TypeString}))
	groups := max(1, cfg.Rows/cfg.Group)
	for i := 0; i < cfg.Rows; i++ {
		if _, err := db.Insert("CALIB", storage.Int(int64(i)), storage.Int(int64(i%groups)), storage.String(fmt.Sprintf("payload-%d", i))); err != nil {
			return single, multi, err
		}
	}
	if err := rel.CreateIndex("grp"); err != nil {
		return single, multi, err
	}
	eng := sqlx.NewEngine(db)
	// probe times rounds statements col IN (v), v striding through [0, n).
	probe := func(col string, n, stride int) (population, error) {
		stmts := make([]sqlx.SelectStmt, cfg.Rounds)
		for i := range stmts {
			v := []storage.Value{storage.Int(int64(i * stride % n))}
			stmts[i] = sqlx.SelectStmt{Columns: []string{"payload"}, Table: "CALIB", Col: col, Values: v, Limit: -1}
		}
		reads, start := 0, time.Now()
		for i := range stmts {
			res, err := eng.ExecStmt(&stmts[i])
			if err != nil {
				return population{}, err
			}
			reads += res.Stats.TupleReads
		}
		return population{time.Since(start) / time.Duration(len(stmts)), float64(reads) / float64(len(stmts))}, nil
	}
	// The first pass warms both paths up; the second is the one measured.
	for pass := 0; pass < 2 && err == nil; pass++ {
		if single, err = probe("uniq", cfg.Rows, 37); err == nil {
			multi, err = probe("grp", groups, 13)
		}
	}
	return single, multi, err
}
