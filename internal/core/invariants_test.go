package core

import (
	"math"
	"math/rand"
	"testing"

	"precis/internal/dataset"
	"precis/internal/invidx"
	"precis/internal/schemagraph"
	"precis/internal/sqlx"
	"precis/internal/storage"
)

// These tests check the DESIGN.md invariants over randomly generated
// graphs and databases rather than hand-picked fixtures.

// randomGraphAndSeeds draws a random weighted graph and a random non-empty
// seed set.
func randomGraphAndSeeds(t *testing.T, r *rand.Rand) (*schemagraph.Graph, []string) {
	t.Helper()
	cfg := dataset.GraphConfig{
		Relations:   2 + r.Intn(8),
		AttrsPerRel: 1 + r.Intn(6),
		ExtraJoins:  r.Intn(6),
		Seed:        r.Int63(),
	}
	g, err := dataset.RandomGraph(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rels := g.Relations()
	n := 1 + r.Intn(2)
	seen := map[string]bool{}
	var seeds []string
	for len(seeds) < n {
		s := rels[r.Intn(len(rels))]
		if !seen[s] {
			seen[s] = true
			seeds = append(seeds, s)
		}
	}
	return g, seeds
}

// TestInvariantResultSchemaIsSubgraph: every node and edge of G' exists in
// G with the same weight, and every projection path respects the weight
// bound.
func TestInvariantResultSchemaIsSubgraph(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 150; trial++ {
		g, seeds := randomGraphAndSeeds(t, r)
		w0 := 0.1 + r.Float64()*0.8
		rs, err := GenerateSchema(g, seeds, MinPathWeight(w0))
		if err != nil {
			t.Fatal(err)
		}
		for _, rel := range rs.Relations() {
			orig := g.Relation(rel)
			if orig == nil {
				t.Fatalf("trial %d: G' relation %s not in G", trial, rel)
			}
			sub := rs.Graph.Relation(rel)
			for _, p := range sub.Projections() {
				op := orig.Projection(p.Attribute)
				if op == nil {
					t.Fatalf("trial %d: projection %s not in G", trial, p.Key())
				}
				if op.Weight != p.Weight {
					t.Fatalf("trial %d: projection %s weight %v != %v", trial, p.Key(), p.Weight, op.Weight)
				}
			}
			for _, e := range sub.Out() {
				found := false
				for _, oe := range orig.Out() {
					if oe.To == e.To && oe.FromCol == e.FromCol && oe.ToCol == e.ToCol && oe.Weight == e.Weight {
						found = true
					}
				}
				if !found {
					t.Fatalf("trial %d: edge %s not in G", trial, e.Key())
				}
			}
		}
		// Every accepted path respects the bound and is ordered.
		prev := math.Inf(1)
		for _, p := range rs.Paths {
			if p.Weight() < w0-1e-12 {
				t.Fatalf("trial %d: path %s weight %v below bound %v", trial, p, p.Weight(), w0)
			}
			if p.Weight() > prev+1e-12 {
				t.Fatalf("trial %d: paths out of order", trial)
			}
			prev = p.Weight()
		}
	}
}

// TestInvariantMonotoneRelaxation: lowering the weight bound never removes
// relations or projections from the result schema.
func TestInvariantMonotoneRelaxation(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 100; trial++ {
		g, seeds := randomGraphAndSeeds(t, r)
		hi := 0.3 + r.Float64()*0.6
		lo := hi * (0.3 + r.Float64()*0.7)
		strict, err := GenerateSchema(g, seeds, MinPathWeight(hi))
		if err != nil {
			t.Fatal(err)
		}
		loose, err := GenerateSchema(g, seeds, MinPathWeight(lo))
		if err != nil {
			t.Fatal(err)
		}
		for _, rel := range strict.Relations() {
			if loose.Graph.Relation(rel) == nil {
				t.Fatalf("trial %d: relation %s lost relaxing %v -> %v", trial, rel, hi, lo)
			}
			for _, a := range strict.Projections(rel) {
				found := false
				for _, b := range loose.Projections(rel) {
					if a == b {
						found = true
					}
				}
				if !found {
					t.Fatalf("trial %d: projection %s.%s lost relaxing %v -> %v", trial, rel, a, hi, lo)
				}
			}
		}
	}
}

// TestInvariantSubDatabase: for random chain databases, random seeds and
// random cardinality budgets, the generated result is always a valid
// sub-database and respects the budget exactly.
func TestInvariantSubDatabase(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < 60; trial++ {
		cfg := dataset.ChainConfig{
			Relations:   1 + r.Intn(5),
			RowsPerRel:  5 + r.Intn(40),
			Fanout:      1 + r.Intn(4),
			Seed:        r.Int63(),
			UniformRows: r.Intn(2) == 0,
		}
		db, g, err := dataset.Chain(cfg)
		if err != nil {
			t.Fatal(err)
		}
		seedRel := db.RelationNames()[r.Intn(db.NumRelations())]
		var all []storage.TupleID
		db.Relation(seedRel).Scan(func(tu storage.Tuple) bool {
			all = append(all, tu.ID)
			return true
		})
		nSeeds := 1 + r.Intn(5)
		if nSeeds > len(all) {
			nSeeds = len(all)
		}
		seedIDs := all[:nSeeds]

		rs, err := GenerateSchema(g, []string{seedRel}, MinPathWeight(0.0001))
		if err != nil {
			t.Fatal(err)
		}
		perRel := 1 + r.Intn(20)
		var card CardinalityConstraint = MaxTuplesPerRelation(perRel)
		total := -1
		if r.Intn(2) == 0 {
			total = 5 + r.Intn(50)
			card = AllCardinality(card, MaxTotalTuples(total))
		}
		strat := []Strategy{StrategyAuto, StrategyNaive, StrategyRoundRobin}[r.Intn(3)]

		rd, err := GenerateDatabase(sqlx.NewEngine(db), rs, map[string][]storage.TupleID{seedRel: seedIDs}, card, strat)
		if err != nil {
			t.Fatal(err)
		}
		if err := storage.VerifySubDatabase(db, rd.DB); err != nil {
			t.Fatalf("trial %d (%+v): %v", trial, cfg, err)
		}
		for _, rel := range rd.DB.RelationNames() {
			if n := rd.DB.Relation(rel).Len(); n > perRel {
				t.Fatalf("trial %d: %s has %d > %d tuples", trial, rel, n, perRel)
			}
		}
		if total >= 0 && rd.DB.TotalTuples() > total {
			t.Fatalf("trial %d: total %d > %d", trial, rd.DB.TotalTuples(), total)
		}
		// Seeds are present up to the budget.
		wantSeeds := nSeeds
		if wantSeeds > perRel {
			wantSeeds = perRel
		}
		if total >= 0 && wantSeeds > total {
			wantSeeds = total
		}
		if got := rd.DB.Relation(seedRel).Len(); got < wantSeeds {
			t.Fatalf("trial %d: seed relation has %d tuples, want >= %d", trial, got, wantSeeds)
		}
	}
}

// TestInvariantStrategiesSameTuplesUnlimited: with no cardinality bound,
// NaïveQ and Round-Robin retrieve exactly the same tuples (the strategies
// differ only in which tuples win a constrained budget).
func TestInvariantStrategiesSameTuplesUnlimited(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		cfg := dataset.ChainConfig{
			Relations:   2 + r.Intn(3),
			RowsPerRel:  5 + r.Intn(20),
			Fanout:      1 + r.Intn(3),
			Seed:        r.Int63(),
			UniformRows: false,
		}
		db, g, err := dataset.Chain(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := GenerateSchema(g, []string{"R0"}, MinPathWeight(0.0001))
		if err != nil {
			t.Fatal(err)
		}
		ix := invidx.New(db)
		occ := ix.Lookup("tokR0")
		seeds := map[string][]storage.TupleID{"R0": occ[0].TupleIDs[:3]}
		a, err := GenerateDatabase(sqlx.NewEngine(db), rs, seeds, Unlimited(), StrategyNaive)
		if err != nil {
			t.Fatal(err)
		}
		b, err := GenerateDatabase(sqlx.NewEngine(db), rs, seeds, Unlimited(), StrategyRoundRobin)
		if err != nil {
			t.Fatal(err)
		}
		for _, rel := range a.DB.RelationNames() {
			ra, rb := a.DB.Relation(rel), b.DB.Relation(rel)
			if ra.Len() != rb.Len() {
				t.Fatalf("trial %d: %s naive %d != roundrobin %d tuples", trial, rel, ra.Len(), rb.Len())
			}
			scanTuples(ra, func(tu storage.Tuple) bool {
				if _, ok := getTuple(rb, tu.ID); !ok {
					t.Fatalf("trial %d: %s tuple %d only in naive result", trial, rel, tu.ID)
				}
				return true
			})
		}
	}
}

// TestInvariantGenerationDeterministic: the same inputs produce identical
// result databases (tuple sets and insertion order).
func TestInvariantGenerationDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		cfg := dataset.ChainConfig{
			Relations: 3, RowsPerRel: 20, Fanout: 3, Seed: r.Int63(), UniformRows: false,
		}
		db, g, err := dataset.Chain(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := GenerateSchema(g, []string{"R0"}, MinPathWeight(0.0001))
		if err != nil {
			t.Fatal(err)
		}
		ix := invidx.New(db)
		seeds := map[string][]storage.TupleID{"R0": ix.Lookup("tokR0")[0].TupleIDs[:4]}
		run := func() []storage.TupleID {
			rd, err := GenerateDatabase(sqlx.NewEngine(db), rs, seeds, MaxTuplesPerRelation(7), StrategyAuto)
			if err != nil {
				t.Fatal(err)
			}
			var ids []storage.TupleID
			for _, rel := range rd.DB.RelationNames() {
				scanTuples(rd.DB.Relation(rel), func(tu storage.Tuple) bool {
					ids = append(ids, tu.ID)
					return true
				})
			}
			return ids
		}
		a, b := run(), run()
		if len(a) != len(b) {
			t.Fatalf("trial %d: %d vs %d tuples", trial, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: position %d: %d vs %d", trial, i, a[i], b[i])
			}
		}
	}
}
