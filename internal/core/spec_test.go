package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"precis/internal/dataset"
	"precis/internal/invidx"
	"precis/internal/schemagraph"
	"precis/internal/shard"
	"precis/internal/spec"
	"precis/internal/sqlx"
	"precis/internal/storage"
)

// specGraph restates a schema graph in the spec's plain form.
func specGraph(g *schemagraph.Graph) spec.Graph {
	var sg spec.Graph
	for _, name := range g.Relations() {
		sg.Relations = append(sg.Relations, name)
		for _, p := range g.Relation(name).Projections() {
			sg.Projections = append(sg.Projections, spec.Projection{Rel: p.Relation, Attr: p.Attribute, Weight: p.Weight})
		}
		for _, e := range g.Relation(name).Out() {
			sg.Joins = append(sg.Joins, spec.Join{From: e.From, To: e.To, FromCol: e.FromCol, ToCol: e.ToCol, Weight: e.Weight})
		}
	}
	return sg
}

// degreeOf builds the engine's constraint for the spec's: one DegreeConstraint
// per set bound, under AllDegree in the given rotation when there are several.
func degreeOf(d spec.Degree, rotate int) DegreeConstraint {
	var cs []DegreeConstraint
	if d.TopR >= 0 {
		cs = append(cs, TopProjections(d.TopR))
	}
	if d.MinWeight > 0 {
		cs = append(cs, MinPathWeight(d.MinWeight))
	}
	if d.MaxLen >= 0 {
		cs = append(cs, MaxPathLength(d.MaxLen))
	}
	if d.MaxAttrs >= 0 {
		cs = append(cs, MaxAttributes(d.MaxAttrs))
	}
	switch len(cs) {
	case 0:
		return MinPathWeight(0)
	case 1:
		return cs[0]
	}
	rotate %= len(cs)
	return AllDegree(append(cs[rotate:len(cs):len(cs)], cs[:rotate]...)...)
}

// specSchema restates a result schema in the spec's form.
func specSchema(rs *ResultSchema) spec.Schema {
	s := spec.Schema{Projections: map[string][]string{}, SeedInDegree: map[string]int{}, JoinInDegree: map[string]int{}}
	for _, p := range rs.Paths {
		s.Paths = append(s.Paths, p.String())
	}
	s.Relations = rs.Relations()
	slices.Sort(s.Relations)
	for _, rel := range s.Relations {
		if attrs := slices.Clone(rs.Projections(rel)); len(attrs) > 0 {
			slices.Sort(attrs)
			s.Projections[rel] = attrs
		}
		s.SeedInDegree[rel] = rs.SeedInDegree(rel)
		if n := rs.JoinInDegree(rel); n > 0 {
			s.JoinInDegree[rel] = n
		}
	}
	for _, e := range rs.Graph.JoinEdges() {
		s.Joins = append(s.Joins, e.Key())
	}
	slices.Sort(s.Joins)
	return s
}

// TestSchemaMatchesSpec holds GenerateSchema to internal/spec — every acyclic
// path enumerated, sorted, cut where the constraint says — over random schema
// graphs, weightings (drawn, and constant so that whole families of paths
// tie), seed sets and degree constraints: the accepted paths in order, the
// relations, projections and join edges of G′, and both in-degrees. Each case
// runs three ways: the cold traversal of an unfrozen graph, the first call on
// a frozen one, and the memo hit that every later query gets.
func TestSchemaMatchesSpec(t *testing.T) {
	degrees := []spec.Degree{spec.Unbounded}
	with := func(set func(*spec.Degree)) {
		d := spec.Unbounded
		set(&d)
		degrees = append(degrees, d)
	}
	for _, r := range []int{0, 1, 4, 9, 40} {
		with(func(d *spec.Degree) { d.TopR = r })
		with(func(d *spec.Degree) { d.MaxAttrs = r })
		with(func(d *spec.Degree) { d.TopR, d.MaxLen = r, 2 })
		with(func(d *spec.Degree) { d.MaxAttrs, d.MinWeight = r, 0.3 })
	}
	for _, w := range []float64{1, 0.9, 0.81, 0.5, 0.2, 0.05} {
		with(func(d *spec.Degree) { d.MinWeight = w })
		with(func(d *spec.Degree) { d.MinWeight, d.MaxLen = w, 3 })
		with(func(d *spec.Degree) { d.MinWeight, d.TopR, d.MaxAttrs = w, 12, 5 })
	}
	for _, l := range []int{0, 1, 2, 3, 4} {
		with(func(d *spec.Degree) { d.MaxLen = l })
		with(func(d *spec.Degree) { d.MaxLen, d.MaxAttrs, d.TopR, d.MinWeight = l, 6, 8, 0.1 })
	}
	cases := 0
	for seed := int64(1); seed <= 12; seed++ {
		cfg := dataset.GraphConfig{Relations: 2 + int(seed%5), AttrsPerRel: 1 + int(seed%3), ExtraJoins: int(seed % 4), Seed: seed}
		base, err := dataset.RandomGraph(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rels := base.Relations()
		seedSets := [][]string{{rels[0]}, {rels[len(rels)-1]}, {rels[len(rels)-1], rels[0]}}
		if len(rels) > 3 {
			seedSets = append(seedSets, []string{rels[1], rels[3], rels[2]})
		}
		for wi, weights := range [][2]float64{{0, 0}, {0.3, 1}, {1, 1}, {0.9, 0.9}, {0.5, 0.5}} {
			g := base.Clone()
			if wi > 0 {
				if err := dataset.RandomWeights(g, weights[0], weights[1], seed); err != nil {
					t.Fatal(err)
				}
			}
			sg := specGraph(g)
			frozen := g.Clone()
			frozen.Freeze()
			for _, seeds := range seedSets {
				for di, d := range degrees {
					cases++
					name := fmt.Sprintf("graph %+v weights %v seeds %v degree %+v", cfg, weights, seeds, d)
					want := spec.ResultSchema(sg, seeds, d)
					cold, err := GenerateSchema(g, seeds, degreeOf(d, di))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got := specSchema(cold); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: cold traversal\n got %+v\nwant %+v", name, got, want)
					}
					miss, err := GenerateSchema(frozen, seeds, degreeOf(d, di))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					hit, err := GenerateSchema(frozen, seeds, degreeOf(d, di))
					if err != nil || hit != miss {
						t.Fatalf("%s: second call on the frozen graph: %v, same schema %t", name, err, hit == miss)
					}
					if got := specSchema(hit); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: memo hit\n got %+v\nwant %+v", name, got, want)
					}
				}
			}
		}
	}
	t.Logf("%d cases", cases)
}

// specDatabase restates a database in the spec's plain form.
func specDatabase(db *storage.Database) spec.Database {
	sdb := spec.Database{}
	for _, name := range db.RelationNames() {
		rel := db.Relation(name)
		tab := spec.Table{Key: rel.Schema().Key, Columns: rel.Schema().ColumnNames()}
		rel.Scan(func(tu storage.Tuple) bool {
			tab.Rows = append(tab.Rows, spec.Row{ID: int64(tu.ID), Values: tu.Values})
			return true
		})
		sdb[name] = tab
	}
	return sdb
}

// specFetchers are the single engine and shard.NewFetcher over 1–4 hash and
// 2–4 range shards.
func specFetchers(t *testing.T, db *storage.Database) []diffFetcher {
	t.Helper()
	fetchers := []diffFetcher{{name: "engine", make: func() Fetcher { return sqlx.NewEngine(db) }}}
	for n := 1; n <= 4; n++ {
		hash, err := shard.NewHashPartitioner(n)
		if err != nil {
			t.Fatal(err)
		}
		parts := []shard.Partitioner{hash}
		if n > 1 {
			rng, err := shard.NewRangePartitioner(shard.EqualCountBounds(db, n))
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, rng)
		}
		for _, p := range parts {
			dbs, err := shard.Partition(db, p)
			if err != nil {
				t.Fatal(err)
			}
			fetchers = append(fetchers, diffFetcher{name: fmt.Sprintf("%s=%d", p.Name(), n), make: func() Fetcher { return shard.NewFetcher(p, dbs, nil) }})
		}
	}
	return fetchers
}

// drawDegree draws a degree constraint of one or two bounds.
func drawDegree(r *rand.Rand) spec.Degree {
	d := spec.Unbounded
	for n := 1 + r.Intn(2); n > 0; n-- {
		switch r.Intn(4) {
		case 0:
			d.TopR = 1 + r.Intn(12)
		case 1:
			d.MinWeight = []float64{0.9, 0.5, 0.2, 0.05}[r.Intn(4)]
		case 2:
			d.MaxLen = 1 + r.Intn(4)
		default:
			d.MaxAttrs = 1 + r.Intn(10)
		}
	}
	return d
}

// TestDatabaseMatchesSpec holds GenerateDatabaseOpts to internal/spec's
// Figure 5 — seeds capped, joins by decreasing weight with postponement,
// NaïveQ, Round-Robin and Auto, per-relation and total caps — over core's
// differential datasets, each term's G′ under two fixed and two drawn degree
// constraints (the memo hit every later query gets), every strategy and six
// cardinality constraints: per relation of D′, the tuple ids in insertion
// order, which is the order /api/search lists them in. Each case runs on the
// single engine at 1, 2 and 4 workers, and on 1–4 hash and 2–4 range shards at
// a pool size that rotates with the case.
func TestDatabaseMatchesSpec(t *testing.T) {
	strategies := []struct {
		s Strategy
		f spec.Strategy
	}{{StrategyNaive, spec.NaiveQ}, {StrategyRoundRobin, spec.RoundRobin}, {StrategyAuto, spec.Auto}}
	caps := []struct {
		c CardinalityConstraint
		s spec.Caps
	}{
		{MaxTuplesPerRelation(1), spec.Caps{PerRelation: 1, Total: -1}},
		{MaxTuplesPerRelation(3), spec.Caps{PerRelation: 3, Total: -1}},
		{MaxTuplesPerRelation(10), spec.Caps{PerRelation: 10, Total: -1}},
		{MaxTuplesPerRelation(150), spec.Caps{PerRelation: 150, Total: -1}},
		{MaxTotalTuples(40), spec.Caps{PerRelation: -1, Total: 40}},
		{AllCardinality(MaxTotalTuples(25), MaxTuplesPerRelation(10)), spec.Caps{PerRelation: 10, Total: 25}},
	}
	r := rand.New(rand.NewSource(29))
	cases, runs := 0, 0
	for _, ds := range diffDatasets(t) {
		sdb, fetchers, ix := specDatabase(ds.db), specFetchers(t, ds.db), invidx.New(ds.db)
		frozen := ds.g.Clone()
		frozen.Freeze()
		for _, term := range ds.terms {
			seeds, specSeeds := map[string][]storage.TupleID{}, map[string][]int64{}
			var seedRels []string
			for _, o := range ix.Lookup(term) {
				seeds[o.Relation] = storage.UnionIDs(seeds[o.Relation], o.TupleIDs)
				seedRels = append(seedRels, o.Relation)
			}
			sort.Strings(seedRels)
			seedRels = slices.Compact(seedRels)
			for rel, ids := range seeds {
				for _, id := range ids {
					specSeeds[rel] = append(specSeeds[rel], int64(id))
				}
			}
			degrees := []spec.Degree{{TopR: -1, MinWeight: 0.8, MaxLen: -1, MaxAttrs: -1}, {TopR: -1, MinWeight: 0.05, MaxLen: -1, MaxAttrs: -1}}
			degrees = append(degrees, drawDegree(r), drawDegree(r))
			for di, d := range degrees {
				if _, err := GenerateSchema(frozen, seedRels, degreeOf(d, di)); err != nil {
					t.Fatal(err)
				}
				rs, err := GenerateSchema(frozen, seedRels, degreeOf(d, di))
				if err != nil {
					t.Fatal(err)
				}
				sg := specGraph(rs.Graph)
				for _, st := range strategies {
					for ci, c := range caps {
						cases++
						want := spec.ResultDatabase(sdb, sg, specSeeds, c.s, st.f)
						for fi, f := range fetchers {
							workers := []int{1, 2, 4}
							if fi > 0 {
								workers = workers[(ci+fi)%3 : (ci+fi)%3+1]
							}
							for _, w := range workers {
								runs++
								name := fmt.Sprintf("%s/%s/degree %+v/%s/%s/%s/workers=%d", ds.name, term, d, st.s, c.c, f.name, w)
								rd, err := GenerateDatabaseOpts(f.make(), rs, seeds, c.c, st.s, DBGenOptions{Workers: w})
								if err != nil {
									t.Fatalf("%s: %v", name, err)
								}
								for _, rel := range sg.Relations {
									var got []int64
									for _, tu := range rd.DB.Relation(rel).Tuples() {
										got = append(got, int64(tu.ID))
									}
									if !slices.Equal(got, want[rel]) {
										t.Fatalf("%s: %s holds %v, the spec %v", name, rel, got, want[rel])
									}
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d cases, %d generations", cases, runs)
}
