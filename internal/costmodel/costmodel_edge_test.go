package costmodel

import (
	"strings"
	"testing"
	"time"

	"precis/internal/sqlx"
)

// TestCostEdgeCases pins the formulas' behavior on degenerate inputs: the
// web layer feeds them straight from user-controlled parameters, so they
// must stay total functions.
func TestCostEdgeCases(t *testing.T) {
	p := Params{IndexTime: 2 * time.Microsecond, TupleTime: time.Microsecond}
	if got := Cost(p, nil); got != 0 {
		t.Errorf("Cost(nil) = %v", got)
	}
	if got := Cost(p, map[string]int{}); got != 0 {
		t.Errorf("Cost(empty) = %v", got)
	}
	// A zero-cardinality relation contributes nothing.
	if got := Cost(p, map[string]int{"A": 0, "B": 2}); got != 6*time.Microsecond {
		t.Errorf("Cost with zero card = %v", got)
	}
	if got := CostUniform(p, 0, 10); got != 0 {
		t.Errorf("CostUniform(cR=0) = %v", got)
	}
	if got := CostUniform(p, 10, 0); got != 0 {
		t.Errorf("CostUniform(nR=0) = %v", got)
	}
	// Zero-cost params predict zero regardless of cardinality.
	if got := CostUniform(Params{}, 100, 100); got != 0 {
		t.Errorf("CostUniform(zero params) = %v", got)
	}
}

func TestSolveCREdgeCases(t *testing.T) {
	p := Params{IndexTime: 2 * time.Microsecond, TupleTime: time.Microsecond}
	// Negative inputs are clamped to zero, never panic or go negative.
	if got := SolveCR(p, -time.Second, 4); got != 0 {
		t.Errorf("negative budget: cR = %d", got)
	}
	if got := SolveCR(p, time.Second, -3); got != 0 {
		t.Errorf("negative nR: cR = %d", got)
	}
	// Negative calibration (clock skew during Calibrate) must not produce
	// a bogus huge cardinality.
	neg := Params{IndexTime: -time.Microsecond, TupleTime: 500 * time.Nanosecond}
	if got := SolveCR(neg, time.Second, 4); got != 0 {
		t.Errorf("negative per-tuple cost: cR = %d", got)
	}
	// Budget below one tuple's cost solves to 0 — the engine then returns
	// seeds only rather than overshooting the budget.
	if got := SolveCR(p, time.Microsecond, 4); got != 0 {
		t.Errorf("sub-tuple budget: cR = %d", got)
	}
	// Exact fit is inclusive: 4 relations x 5 tuples x 3us = 60us.
	if got := SolveCR(p, 60*time.Microsecond, 4); got != 5 {
		t.Errorf("exact budget: cR = %d", got)
	}
	// One nanosecond less drops one tuple.
	if got := SolveCR(p, 60*time.Microsecond-time.Nanosecond, 4); got != 4 {
		t.Errorf("just-under budget: cR = %d", got)
	}
	// A very large budget stays positive (no wrap-around).
	if got := SolveCR(p, 24*time.Hour, 1); got <= 0 {
		t.Errorf("large budget: cR = %d", got)
	}
}

func TestFromStatsEdgeCases(t *testing.T) {
	p := Params{IndexTime: 10 * time.Nanosecond, TupleTime: 3 * time.Nanosecond}
	if got := FromStats(p, sqlx.Stats{}); got != 0 {
		t.Errorf("FromStats(zero) = %v", got)
	}
	// Index-only and tuple-only workloads isolate each parameter.
	if got := FromStats(p, sqlx.Stats{IndexLookups: 7}); got != 70*time.Nanosecond {
		t.Errorf("index-only = %v", got)
	}
	if got := FromStats(p, sqlx.Stats{TupleReads: 7}); got != 21*time.Nanosecond {
		t.Errorf("tuple-only = %v", got)
	}
}

func TestParamsString(t *testing.T) {
	p := Params{IndexTime: 2 * time.Microsecond, TupleTime: time.Microsecond}
	s := p.String()
	if !strings.Contains(s, "IndexTime=2µs") || !strings.Contains(s, "TupleTime=1µs") {
		t.Errorf("String = %q", s)
	}
}

// TestCalibrationDefaultsPartial checks each field defaults independently.
func TestCalibrationDefaultsPartial(t *testing.T) {
	cfg := CalibrationConfig{Rows: 100}
	cfg.defaults()
	if cfg.Rows != 100 || cfg.Group != 20 || cfg.Rounds != 200 {
		t.Errorf("partial defaults = %+v", cfg)
	}
	// Group 1 would make both populations read one tuple per probe, leaving
	// nothing to solve for; it defaults too.
	cfg = CalibrationConfig{Group: 1}
	cfg.defaults()
	if cfg.Group != 20 {
		t.Errorf("Group=1 not defaulted: %+v", cfg)
	}
}

// TestCalibrateTiny drives the groups<1 guard: fewer rows than one group
// still calibrates (a single group) instead of dividing by zero, and the solve
// divides by the tuples the probes read, 10 − 1, not by the configured group.
func TestCalibrateTiny(t *testing.T) {
	single, multi, err := measure(CalibrationConfig{Rows: 10, Group: 20, Rounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if single.tuples != 1 || multi.tuples != 10 {
		t.Errorf("tuples per probe: single %v, multi %v; want 1 and 10", single.tuples, multi.tuples)
	}
	p, err := Calibrate(CalibrationConfig{Rows: 10, Group: 20, Rounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if p.IndexTime < 0 || p.TupleTime < 0 {
		t.Errorf("negative params: %v", p)
	}
}
