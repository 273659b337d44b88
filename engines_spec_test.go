package precis

import (
	"fmt"
	"net"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"precis/internal/core"
	"precis/internal/dataset"
	"precis/internal/invidx"
	"precis/internal/repl"
	"precis/internal/schemagraph"
	"precis/internal/spec"
	"precis/internal/storage"
)

// specData is one input of TestEnginesMatchSpec: a dataset generator and the
// terms queried over it. Every engine shape gets a fresh copy.
type specData struct {
	name  string
	make  func() (*storage.Database, *schemagraph.Graph, error)
	terms []string
}

// specDatasets are core's differential datasets, the mixed-kind one included.
func specDatasets() []specData {
	synthetic := func() (*storage.Database, *schemagraph.Graph, error) {
		cfg := dataset.DefaultSyntheticConfig()
		cfg.Films = 300
		db, err := dataset.SyntheticMovies(cfg)
		if err != nil {
			return nil, nil, err
		}
		g, err := dataset.PaperGraph(db)
		return db, g, err
	}
	chain := func() (*storage.Database, *schemagraph.Graph, error) {
		cfg := dataset.DefaultChainConfig()
		cfg.RowsPerRel = 200
		return dataset.Chain(cfg)
	}
	return []specData{
		{"example-movies", dataset.ExampleMovies, []string{"Woody Allen", "Comedy"}},
		{"synthetic-movies", synthetic, []string{"Drama"}},
		{"chain", chain, []string{"tokR0"}},
		{"star", func() (*storage.Database, *schemagraph.Graph, error) {
			return dataset.Star(dataset.StarConfig{Satellites: 4, RowsPerRel: 100, Fanout: 3, Seed: 7})
		}, []string{"tokHUB"}},
		{"kinds", func() (*storage.Database, *schemagraph.Graph, error) { return dataset.Kinds(3) }, []string{"tokITEM", "café"}},
	}
}

// mutateForSpec changes a few tuples of every relation through the engine —
// the text of the first two gains a suffix, the third is deleted and put back
// under a fresh id, its key with it — writes that a delta and a log tail each
// carry some of, and that leave every reference resolved.
func mutateForSpec(t *testing.T, eng *Engine, round int) {
	t.Helper()
	for _, name := range eng.Database().RelationNames() {
		rel := eng.Database().Relation(name)
		tuples := rel.Tuples()
		for _, tu := range tuples[:min(2, len(tuples))] {
			vals := slices.Clone(tu.Values)
			for i, c := range rel.Schema().Columns {
				if c.Type == storage.TypeString && c.Name != rel.Schema().Key && !vals[i].IsNull() {
					vals[i] = storage.String(vals[i].AsString() + fmt.Sprint(" r", round))
				}
			}
			if err := eng.Update(name, tu.ID, vals); err != nil {
				t.Fatal(err)
			}
		}
		// The third tuple or the first after it that no foreign key still
		// needs goes, and comes back under a fresh id.
		i := 2
		for i < len(tuples) && !deletable(eng.Database(), name, tuples[i].ID) {
			i++
		}
		if i >= len(tuples) {
			continue
		}
		if ok, err := eng.Delete(name, tuples[i].ID); !ok || err != nil {
			t.Fatalf("delete %s/%d: %v, %v", name, tuples[i].ID, ok, err)
		}
		if _, err := eng.Insert(name, tuples[i].Values...); err != nil {
			t.Fatal(err)
		}
	}
}

// specShape builds one engine shape over a dataset and returns it with the
// database the spec reads as the base: the engine's own, or, for an engine
// that recovered or replicated its state, the database of the engine it came
// from, so that the comparison also covers the way there.
type specShape struct {
	name  string
	build func(t *testing.T, d specData) (eng *Engine, base *storage.Database, done func())
}

func specShapes() []specShape {
	fresh := func(t *testing.T, d specData) (*storage.Database, *schemagraph.Graph) {
		t.Helper()
		db, g, err := d.make()
		if err != nil {
			t.Fatal(err)
		}
		return db, g
	}
	sharded := func(shards int, partitioner string) func(*testing.T, specData) (*Engine, *storage.Database, func()) {
		return func(t *testing.T, d specData) (*Engine, *storage.Database, func()) {
			db, g := fresh(t, d)
			eng, err := NewSharded(db, g, ShardedConfig{Shards: shards, Partitioner: partitioner})
			if err != nil {
				t.Fatal(err)
			}
			base, _ := fresh(t, d)
			return eng, base, func() {}
		}
	}
	return []specShape{
		{"single", func(t *testing.T, d specData) (*Engine, *storage.Database, func()) {
			db, g := fresh(t, d)
			eng, err := New(db, g)
			if err != nil {
				t.Fatal(err)
			}
			return eng, eng.Database(), func() {}
		}},
		{"hash-2", sharded(2, "hash")},
		{"hash-4", sharded(4, "hash")},
		{"range-3", sharded(3, "range")},
		{"recovered", func(t *testing.T, d specData) (*Engine, *storage.Database, func()) {
			db, g := fresh(t, d)
			dir := t.TempDir()
			live, err := Open(db, g, quietPersistConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			mutateForSpec(t, live, 0)
			if err := live.Checkpoint(); err != nil { // a delta on the full snapshot
				t.Fatal(err)
			}
			mutateForSpec(t, live, 1) // the log tail
			seed, g2 := fresh(t, d)   // only a seed: the directory is recovered
			recovered, err := Open(seed, g2, quietPersistConfig(copyDataDir(t, dir)))
			if err != nil {
				t.Fatal(err)
			}
			if rs := recovered.PersistStats().Recovery; rs.DeltasApplied == 0 || rs.WALRecordsReplayed == 0 {
				t.Fatalf("recovery applied %d deltas and %d log records", rs.DeltasApplied, rs.WALRecordsReplayed)
			}
			return recovered, live.Database(), func() { recovered.Close(); live.Close() }
		}},
		{"follower", func(t *testing.T, d specData) (*Engine, *storage.Database, func()) {
			db, g := fresh(t, d)
			primary, addr := startSpecPrimary(t, db, g)
			mutateForSpec(t, primary, 0)
			_, g2 := fresh(t, d)
			follower, err := OpenFollower(g2, ReplicaConfig{Addr: addr, BootstrapTimeout: 30 * time.Second,
				BackoffMin: time.Millisecond, BackoffMax: 5 * time.Millisecond, Logger: quietTestLogger()})
			if err != nil {
				t.Fatal(err)
			}
			mutateForSpec(t, primary, 1)
			waitReplConverged(t, primary, follower, 30*time.Second)
			return follower, primary.Database(), func() { follower.Close(); primary.Close() }
		}},
	}
}

// startSpecPrimary opens a persistent engine over db and starts replicating it.
func startSpecPrimary(t *testing.T, db *storage.Database, g *schemagraph.Graph) (*Engine, string) {
	t.Helper()
	eng, err := Open(db, g, quietPersistConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.StartReplication(ln, repl.PrimaryConfig{HeartbeatEvery: 20 * time.Millisecond, Logger: quietTestLogger()}); err != nil {
		t.Fatal(err)
	}
	return eng, ln.Addr().String()
}

// specSchemaOf restates an answer's result schema in the spec's form.
func specSchemaOf(rs *core.ResultSchema) spec.Schema {
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

// TestEnginesMatchSpec holds every engine shape — New, NewSharded over 2 and 4
// hash and 3 range shards, an engine recovered by Open from a snapshot, a
// delta and a log tail, and a follower — to internal/spec over core's
// differential datasets (the mixed-kind one among them), two weight bounds,
// every strategy and TestDatabaseMatchesSpec's six cardinality constraints:
// G′ as spec.ResultSchema states it, with its headings; D′ relation by
// relation, the tuple ids in insertion order, as spec.ResultDatabase states
// them; and every value of D′, kind-exactly, against the base it was fetched
// from (storage.VerifySubDatabase) — for a recovered engine and a follower, the
// base of the engine whose writes they recovered or received.
func TestEnginesMatchSpec(t *testing.T) {
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
	answers := 0
	for _, d := range specDatasets() {
		for _, shape := range specShapes() {
			eng, base, done := shape.build(t, d)
			sdb, ix := spec.FromDatabase(base), invidx.New(base)
			for _, term := range d.terms {
				seeds := map[string][]int64{}
				var seedRels []string
				for _, o := range ix.Lookup(term) {
					seedRels = append(seedRels, o.Relation)
					for _, id := range o.TupleIDs {
						seeds[o.Relation] = append(seeds[o.Relation], int64(id))
					}
				}
				sort.Strings(seedRels)
				seedRels = slices.Compact(seedRels)
				for _, w := range []float64{0.8, 0.05} {
					for _, st := range strategies {
						for _, c := range caps {
							name := fmt.Sprintf("%s/%s/%s/w=%v/%s/%s", d.name, shape.name, term, w, st.s, c.c)
							ans, err := eng.Query([]string{term}, Options{Degree: MinPathWeight(w), Cardinality: c.c, Strategy: st.s, SkipNarrative: true})
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							answers++
							g := eng.Graph()
							headings := map[string]string{}
							for _, rel := range g.Relations() {
								headings[rel] = g.Relation(rel).Heading
							}
							degree := spec.Unbounded
							degree.MinWeight = w
							want := spec.Headed(spec.ResultSchema(spec.FromGraph(g), seedRels, degree), headings)
							if got := specSchemaOf(ans.Schema); !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: G′\n got %+v\nwant %+v", name, got, want)
							}
							wantDB := spec.ResultDatabase(sdb, spec.FromGraph(ans.Schema.Graph), seeds, c.s, st.f)
							for _, rel := range ans.Schema.Relations() {
								var got []int64
								ans.Database.Relation(rel).ScanRows(func(id storage.TupleID, _ storage.Row) bool {
									got = append(got, int64(id))
									return true
								})
								if !slices.Equal(got, wantDB[rel]) {
									t.Fatalf("%s: %s holds %v, the spec %v", name, rel, got, wantDB[rel])
								}
							}
							checkAnswer(t, eng, name, Options{Degree: MinPathWeight(w), Cardinality: c.c, Strategy: st.s}, ans)
						}
					}
				}
			}
			done()
		}
	}
	t.Logf("%d answers", answers)
}

// deletable reports whether the write check accepts a delete of tuple id of
// rel in db.
func deletable(db *storage.Database, rel string, id storage.TupleID) bool {
	_, err := storage.CheckWrite([]*storage.Database{db}, 0, storage.WriteDelete, rel, id, nil)
	return err == nil
}
