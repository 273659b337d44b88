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
// on the other hand, times whole one-probe statements, so the IndexTime it
// reports also absorbs per-statement overhead (parse, plan) that the
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
// query populations — single-match index probes (IndexTime + TupleTime) and
// G-match probes (IndexTime + G·TupleTime) — and solves the two equations.
func Calibrate(cfg CalibrationConfig) (Params, error) {
	cfg.defaults()
	db := storage.NewDatabase("calibration")
	eng := sqlx.NewEngine(db)
	if _, err := eng.Exec("CREATE TABLE CALIB (uniq INT, grp INT, payload TEXT, PRIMARY KEY (uniq))"); err != nil {
		return Params{}, err
	}
	groups := cfg.Rows / cfg.Group
	if groups < 1 {
		groups = 1
	}
	for i := 0; i < cfg.Rows; i++ {
		q := fmt.Sprintf("INSERT INTO CALIB VALUES (%d, %d, 'payload-%d')", i, i%groups, i)
		if _, err := eng.Exec(q); err != nil {
			return Params{}, err
		}
	}
	rel := db.Relation("CALIB")
	if err := rel.CreateIndex("grp"); err != nil {
		return Params{}, err
	}

	// Warm up both paths.
	for i := 0; i < 32; i++ {
		eng.MustExec(fmt.Sprintf("SELECT payload FROM CALIB WHERE uniq = %d", i%cfg.Rows))
		eng.MustExec(fmt.Sprintf("SELECT payload FROM CALIB WHERE grp = %d", i%groups))
	}

	single := time.Duration(0)
	start := time.Now()
	for i := 0; i < cfg.Rounds; i++ {
		eng.MustExec(fmt.Sprintf("SELECT payload FROM CALIB WHERE uniq = %d", (i*37)%cfg.Rows))
	}
	single = time.Since(start) / time.Duration(cfg.Rounds)

	start = time.Now()
	for i := 0; i < cfg.Rounds; i++ {
		eng.MustExec(fmt.Sprintf("SELECT payload FROM CALIB WHERE grp = %d", (i*13)%groups))
	}
	multi := time.Since(start) / time.Duration(cfg.Rounds)

	// single = Index + 1·Tuple ; multi = Index + G·Tuple.
	g := time.Duration(cfg.Group)
	tuple := (multi - single) / (g - 1)
	if tuple < 0 {
		tuple = 0
	}
	index := single - tuple
	if index < 0 {
		index = 0
	}
	return Params{IndexTime: index, TupleTime: tuple}, nil
}
