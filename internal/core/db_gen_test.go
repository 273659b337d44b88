package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"precis/internal/dataset"
	"precis/internal/invidx"
	"precis/internal/schemagraph"
	"precis/internal/sqlx"
	"precis/internal/storage"
)

// exampleSetup resolves Q = {"Woody Allen"} on the example movies database
// and returns everything GenerateDatabase needs.
func exampleSetup(t *testing.T, w float64) (*sqlx.Engine, *ResultSchema, map[string][]storage.TupleID) {
	t.Helper()
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	ix := invidx.New(db)
	occs := ix.Lookup("Woody Allen")
	seeds := map[string][]storage.TupleID{}
	var seedRels []string
	for _, o := range occs {
		seeds[o.Relation] = append(seeds[o.Relation], o.TupleIDs...)
		seedRels = append(seedRels, o.Relation)
	}
	sort.Strings(seedRels)
	rs, err := GenerateSchema(g, seedRels, MinPathWeight(w))
	if err != nil {
		t.Fatal(err)
	}
	rs.CopyAnnotations(g)
	return sqlx.NewEngine(db), rs, seeds
}

// TestPaperRunningExampleData reproduces the §5.2 example: Q = {"Woody
// Allen"}, weight >= 0.9, up to three tuples per relation.
func TestPaperRunningExampleData(t *testing.T) {
	eng, rs, seeds := exampleSetup(t, 0.9)
	rd, err := GenerateDatabase(eng, rs, seeds, MaxTuplesPerRelation(3), StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	// The précis is a sub-database of the original (query model §3.3).
	if err := storage.VerifySubDatabase(eng.Database(), rd.DB); err != nil {
		t.Fatalf("sub-database check: %v", err)
	}
	// Every relation respects the cardinality constraint.
	for _, rel := range rd.DB.RelationNames() {
		if n := rd.DB.Relation(rel).Len(); n > 3 {
			t.Errorf("%s has %d tuples > 3", rel, n)
		}
	}
	// The seeds are present: Woody Allen the director and the actor.
	dir := rd.DB.Relation("DIRECTOR")
	if dir.Len() != 1 {
		t.Fatalf("DIRECTOR tuples = %d", dir.Len())
	}
	dt := dir.Tuples()[0]
	di := dir.Schema().ColumnIndex("dname")
	if dt.Values[di].AsString() != "Woody Allen" {
		t.Errorf("director = %v", dt.Values)
	}
	if rd.DB.Relation("ACTOR").Len() != 1 {
		t.Errorf("ACTOR tuples = %d", rd.DB.Relation("ACTOR").Len())
	}
	// MOVIE is populated (3 tuples, budget-capped) and GENRE follows.
	if rd.DB.Relation("MOVIE").Len() != 3 {
		t.Errorf("MOVIE tuples = %d", rd.DB.Relation("MOVIE").Len())
	}
	if rd.DB.Relation("GENRE").Len() == 0 {
		t.Error("GENRE empty")
	}
	// Display columns match Figure 4, not the plumbing.
	if got := rd.DisplayColumns("MOVIE"); !reflect.DeepEqual(sorted(got), []string{"title", "year"}) {
		t.Errorf("display cols = %v", got)
	}
	// Plumbing columns (mid) were fetched for the joins but are not
	// display columns.
	if !rd.DB.Relation("MOVIE").Schema().HasColumn("mid") {
		t.Error("join plumbing missing from result relation")
	}
	if rd.Stats.Queries == 0 || rd.Stats.TotalTuples == 0 {
		t.Errorf("stats = %+v", rd.Stats)
	}
}

// TestGenerousBudgetFetchesAllRelatedMovies checks Figure 6's content: with
// enough budget, the director's précis lists Match Point (2005), Melinda and
// Melinda (2004), Anything Else (2003) and the acting credits.
func TestGenerousBudgetFetchesAllRelatedMovies(t *testing.T) {
	eng, rs, seeds := exampleSetup(t, 0.9)
	rd, err := GenerateDatabase(eng, rs, seeds, MaxTuplesPerRelation(100), StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	movies := rd.DB.Relation("MOVIE")
	ti := movies.Schema().ColumnIndex("title")
	var titles []string
	movies.Scan(func(tu storage.Tuple) bool {
		titles = append(titles, tu.Values[ti].AsString())
		return true
	})
	sort.Strings(titles)
	want := []string{"Anything Else", "Hollywood Ending", "Match Point",
		"Melinda and Melinda", "The Curse of the Jade Scorpion"}
	if !reflect.DeepEqual(titles, want) {
		t.Errorf("titles = %v, want %v", titles, want)
	}
	// All five woody movies' genres arrive (movies 1,2,3 have 2 each).
	if rd.DB.Relation("GENRE").Len() != 6 {
		t.Errorf("GENRE tuples = %d, want 6", rd.DB.Relation("GENRE").Len())
	}
	// Sofia Coppola's movie must NOT be present: it joins to nothing
	// related to Woody Allen.
	for _, title := range titles {
		if title == "Lost in Translation" {
			t.Error("unrelated movie leaked into the précis")
		}
	}
}

func TestTotalCardinalityConstraint(t *testing.T) {
	eng, rs, seeds := exampleSetup(t, 0.9)
	rd, err := GenerateDatabase(eng, rs, seeds, MaxTotalTuples(4), StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if rd.DB.TotalTuples() > 4 {
		t.Errorf("total tuples = %d > 4", rd.DB.TotalTuples())
	}
	// Weight-ordered population: the seeds (placed first) must be present.
	if rd.DB.Relation("DIRECTOR").Len() != 1 || rd.DB.Relation("ACTOR").Len() != 1 {
		t.Error("seeds missing under tight total budget")
	}
}

func TestZeroBudget(t *testing.T) {
	eng, rs, seeds := exampleSetup(t, 0.9)
	rd, err := GenerateDatabase(eng, rs, seeds, MaxTotalTuples(0), StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if rd.DB.TotalTuples() != 0 {
		t.Errorf("total tuples = %d, want 0", rd.DB.TotalTuples())
	}
}

func TestStrategiesAgreeOnToOneJoins(t *testing.T) {
	// On a pure chain of n-1 joins driven forward (R1 -> R0 is to-1), both
	// strategies retrieve the same tuples.
	db, g, err := dataset.Chain(dataset.ChainConfig{Relations: 2, RowsPerRel: 30, Fanout: 2, Seed: 5, UniformRows: true})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := GenerateSchema(g, []string{"R1"}, MinPathWeight(0.5))
	if err != nil {
		t.Fatal(err)
	}
	ix := invidx.New(db)
	occ := ix.Lookup("tokR1")
	seeds := map[string][]storage.TupleID{"R1": occ[0].TupleIDs[:5]}

	naive, err := GenerateDatabase(sqlx.NewEngine(db), rs, seeds, MaxTuplesPerRelation(50), StrategyNaive)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := GenerateDatabase(sqlx.NewEngine(db), rs, seeds, MaxTuplesPerRelation(50), StrategyRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"R0", "R1"} {
		a := naive.DB.Relation(rel).Tuples()
		b := rr.DB.Relation(rel).Tuples()
		ids := func(ts []storage.Tuple) []storage.TupleID {
			out := make([]storage.TupleID, len(ts))
			for i, tu := range ts {
				out[i] = tu.ID
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out
		}
		if !reflect.DeepEqual(ids(a), ids(b)) {
			t.Errorf("%s: naive %v != roundrobin %v", rel, ids(a), ids(b))
		}
	}
	// Round-Robin issues strictly more queries (a scan per driving value
	// plus a fetch per tuple).
	if rr.Stats.Queries <= naive.Stats.Queries {
		t.Errorf("queries: roundrobin %d <= naive %d", rr.Stats.Queries, naive.Stats.Queries)
	}
}

// TestRoundRobinFairness is the property that motivates Round-Robin (§5.2):
// on a 1-n join under a budget smaller than the total fan-out, every driving
// tuple receives at least one joining tuple, whereas NaïveQ may starve
// drivers.
func TestRoundRobinFairness(t *testing.T) {
	// R0 has 5 rows; R1 has 10 children per parent (deterministic fanout).
	db, g, err := dataset.Chain(dataset.ChainConfig{Relations: 2, RowsPerRel: 5, Fanout: 10, Seed: 1, UniformRows: false})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := GenerateSchema(g, []string{"R0"}, MinPathWeight(0.5))
	if err != nil {
		t.Fatal(err)
	}
	ix := invidx.New(db)
	occ := ix.Lookup("tokR0")
	seeds := map[string][]storage.TupleID{"R0": occ[0].TupleIDs}

	budget := AllCardinality(MaxTuplesPerRelation(10))
	rr, err := GenerateDatabase(sqlx.NewEngine(db), rs, seeds, budget, StrategyRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := GenerateDatabase(sqlx.NewEngine(db), rs, seeds, budget, StrategyNaive)
	if err != nil {
		t.Fatal(err)
	}

	parentsCovered := func(rd *ResultDatabase) int {
		r1 := rd.DB.Relation("R1")
		pi := r1.Schema().ColumnIndex("parent")
		set := map[int64]bool{}
		r1.Scan(func(tu storage.Tuple) bool {
			set[tu.Values[pi].AsInt()] = true
			return true
		})
		return len(set)
	}
	if got := parentsCovered(rr); got != 5 {
		t.Errorf("round-robin covered %d/5 parents", got)
	}
	// NaïveQ takes the first 10 children in id order: children of parents 1
	// and 2 only.
	if got := parentsCovered(naive); got >= 5 {
		t.Errorf("naive covered %d parents; expected starvation (< 5)", got)
	}
	// Both respect the budget exactly (enough children exist).
	if rr.DB.Relation("R1").Len() != 10 || naive.DB.Relation("R1").Len() != 10 {
		t.Errorf("R1 sizes: rr=%d naive=%d", rr.DB.Relation("R1").Len(), naive.DB.Relation("R1").Len())
	}
}

// TestInDegreePostponement builds the scenario where postponement matters:
// two seeds A and B both reach M, and M -> G has a higher weight than
// B -> M. Executing strictly by weight would fetch G's tuples before B's
// movies arrive in M, losing their children.
func TestInDegreePostponement(t *testing.T) {
	db := storage.NewDatabase("d")
	mk := func(name string, cols ...storage.Column) {
		db.MustCreateRelation(storage.MustSchema(name, "id", cols...))
	}
	idc := storage.Column{Name: "id", Type: storage.TypeInt}
	lbl := storage.Column{Name: "label", Type: storage.TypeString}
	mk("A", idc, lbl, storage.Column{Name: "mid", Type: storage.TypeInt})
	mk("B", idc, lbl, storage.Column{Name: "mid", Type: storage.TypeInt})
	mk("M", idc, lbl)
	mk("G", idc, lbl, storage.Column{Name: "mid", Type: storage.TypeInt})
	for _, fk := range []storage.ForeignKey{
		{FromRelation: "A", FromColumn: "mid", ToRelation: "M", ToColumn: "id"},
		{FromRelation: "B", FromColumn: "mid", ToRelation: "M", ToColumn: "id"},
		{FromRelation: "G", FromColumn: "mid", ToRelation: "M", ToColumn: "id"},
	} {
		if err := db.AddForeignKey(fk); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateJoinIndexes(); err != nil {
		t.Fatal(err)
	}
	ins := func(rel string, vals ...storage.Value) storage.TupleID {
		id, err := db.Insert(rel, vals...)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	// M1 reached from A, M2 reached from B; each M has one G child.
	ins("M", storage.Int(1), storage.String("m1"))
	ins("M", storage.Int(2), storage.String("m2"))
	aid := ins("A", storage.Int(1), storage.String("seedA"), storage.Int(1))
	bid := ins("B", storage.Int(1), storage.String("seedB"), storage.Int(2))
	ins("G", storage.Int(1), storage.String("g-of-m1"), storage.Int(1))
	ins("G", storage.Int(2), storage.String("g-of-m2"), storage.Int(2))

	g := schemagraph.FromDatabase(db)
	// Weights: A->M = 1.0, M->G = 0.95, B->M = 0.9. Without postponement,
	// M->G (0.95) would run before B->M (0.9).
	set := func(from, to string, w float64) {
		for _, e := range g.Relation(from).Out() {
			if e.To == to {
				e.Weight = w
			}
		}
	}
	set("A", "M", 1.0)
	set("M", "G", 0.95)
	set("B", "M", 0.9)
	set("M", "A", 0.0)
	set("M", "B", 0.0)
	set("G", "M", 0.0)

	rs, err := GenerateSchema(g, []string{"A", "B"}, MinPathWeight(0.85))
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string][]storage.TupleID{"A": {aid}, "B": {bid}}
	rd, err := GenerateDatabase(sqlx.NewEngine(db), rs, seeds, Unlimited(), StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if rd.DB.Relation("M").Len() != 2 {
		t.Fatalf("M tuples = %d, want 2", rd.DB.Relation("M").Len())
	}
	// The point of postponement: both G children arrive, including m2's.
	if rd.DB.Relation("G").Len() != 2 {
		t.Errorf("G tuples = %d, want 2 (postponement failed)", rd.DB.Relation("G").Len())
	}
}

func TestGenerateDatabaseErrors(t *testing.T) {
	eng, rs, seeds := exampleSetup(t, 0.9)
	if _, err := GenerateDatabase(eng, rs, seeds, nil, StrategyAuto); err == nil {
		t.Error("nil cardinality accepted")
	}
	bad := map[string][]storage.TupleID{"THEATRE": {1}}
	if _, err := GenerateDatabase(eng, rs, bad, Unlimited(), StrategyAuto); err == nil {
		t.Error("seed outside result schema accepted")
	}
}

func TestResultDatabaseKeepsForeignKeys(t *testing.T) {
	eng, rs, seeds := exampleSetup(t, 0.9)
	rd, err := GenerateDatabase(eng, rs, seeds, MaxTuplesPerRelation(100), StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(rd.DB.ForeignKeys()) == 0 {
		t.Error("result database lost its foreign keys")
	}
	// With a generous budget, referential integrity holds inside the
	// result for every carried-over FK that points along executed joins.
	jc := storage.CheckJoinConsistency(eng.Database(), rd.DB)
	for _, c := range jc {
		// GENRE->MOVIE, CAST->MOVIE, CAST->ACTOR, MOVIE->DIRECTOR: every
		// referencing tuple was fetched by joining from the referenced
		// side or vice versa. CAST->ACTOR may dangle: only Woody's casts
		// were fetched... those reference actor 1 which is present.
		if c.Satisfied < c.Referencing {
			t.Logf("FK %v: %d/%d satisfied", c.ForeignKey, c.Satisfied, c.Referencing)
		}
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyAuto.String() != "auto" || StrategyNaive.String() != "naiveq" || StrategyRoundRobin.String() != "roundrobin" {
		t.Error("strategy names")
	}
}

// TestPostponementAblation re-runs the postponement scenario with the
// in-degree bookkeeping disabled: the children of late-arriving tuples are
// lost, demonstrating why the paper postpones departing joins.
func TestPostponementAblation(t *testing.T) {
	db := storage.NewDatabase("d")
	mk := func(name string, cols ...storage.Column) {
		db.MustCreateRelation(storage.MustSchema(name, "id", cols...))
	}
	idc := storage.Column{Name: "id", Type: storage.TypeInt}
	lbl := storage.Column{Name: "label", Type: storage.TypeString}
	mk("A", idc, lbl, storage.Column{Name: "mid", Type: storage.TypeInt})
	mk("B", idc, lbl, storage.Column{Name: "mid", Type: storage.TypeInt})
	mk("M", idc, lbl)
	mk("G", idc, lbl, storage.Column{Name: "mid", Type: storage.TypeInt})
	for _, fk := range []storage.ForeignKey{
		{FromRelation: "A", FromColumn: "mid", ToRelation: "M", ToColumn: "id"},
		{FromRelation: "B", FromColumn: "mid", ToRelation: "M", ToColumn: "id"},
		{FromRelation: "G", FromColumn: "mid", ToRelation: "M", ToColumn: "id"},
	} {
		if err := db.AddForeignKey(fk); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateJoinIndexes(); err != nil {
		t.Fatal(err)
	}
	ins := func(rel string, vals ...storage.Value) storage.TupleID {
		id, err := db.Insert(rel, vals...)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	ins("M", storage.Int(1), storage.String("m1"))
	ins("M", storage.Int(2), storage.String("m2"))
	aid := ins("A", storage.Int(1), storage.String("seedA"), storage.Int(1))
	bid := ins("B", storage.Int(1), storage.String("seedB"), storage.Int(2))
	ins("G", storage.Int(1), storage.String("g-of-m1"), storage.Int(1))
	ins("G", storage.Int(2), storage.String("g-of-m2"), storage.Int(2))

	g := schemagraph.FromDatabase(db)
	set := func(from, to string, w float64) {
		for _, e := range g.Relation(from).Out() {
			if e.To == to {
				e.Weight = w
			}
		}
	}
	set("A", "M", 1.0)
	set("M", "G", 0.95)
	set("B", "M", 0.9)
	set("M", "A", 0.0)
	set("M", "B", 0.0)
	set("G", "M", 0.0)

	rs, err := GenerateSchema(g, []string{"A", "B"}, MinPathWeight(0.85))
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string][]storage.TupleID{"A": {aid}, "B": {bid}}
	rd, err := GenerateDatabaseOpts(sqlx.NewEngine(db), rs, seeds, Unlimited(), StrategyAuto,
		DBGenOptions{DisablePostponement: true})
	if err != nil {
		t.Fatal(err)
	}
	// Without postponement, M->G (weight 0.95) runs before B->M (0.9): m2's
	// child is missed.
	if rd.DB.Relation("G").Len() != 1 {
		t.Errorf("ablated G tuples = %d, want 1 (missing child expected)", rd.DB.Relation("G").Len())
	}
}

// TestFIFOJoinAblation: under a tight total budget, weight-ordered join
// execution fills high-weight relations first; FIFO order can spend the
// budget on low-weight relations instead.
func TestFIFOJoinAblation(t *testing.T) {
	eng, rs, seeds := exampleSetup(t, 0.9)
	weighted, err := GenerateDatabase(eng, rs, seeds, MaxTotalTuples(6), StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	fifo, err := GenerateDatabaseOpts(eng, rs, seeds, MaxTotalTuples(6), StrategyAuto,
		DBGenOptions{FIFOJoins: true})
	if err != nil {
		t.Fatal(err)
	}
	// Both respect the budget; the distributions may differ but the
	// weight-ordered run must fill the heaviest join's target (MOVIE via
	// the weight-1 edges) at least as much as FIFO does.
	if weighted.DB.TotalTuples() > 6 || fifo.DB.TotalTuples() > 6 {
		t.Errorf("budget violated: weighted=%d fifo=%d",
			weighted.DB.TotalTuples(), fifo.DB.TotalTuples())
	}
	if weighted.DB.Relation("MOVIE").Len() < fifo.DB.Relation("MOVIE").Len() {
		t.Errorf("weight order filled MOVIE less (%d) than FIFO (%d)",
			weighted.DB.Relation("MOVIE").Len(), fifo.DB.Relation("MOVIE").Len())
	}
}

// TestTupleWeightsExtension exercises the §7 future-work feature: with a
// budget of 2 movies, per-tuple weights decide which movies survive.
func TestTupleWeightsExtension(t *testing.T) {
	eng, rs, seeds := exampleSetup(t, 0.9)
	// Weight the two oldest Woody Allen movies highest.
	weights := TupleWeights{}
	movies := eng.Database().Relation("MOVIE")
	ti := movies.Schema().ColumnIndex("title")
	yi := movies.Schema().ColumnIndex("year")
	movies.Scan(func(tu storage.Tuple) bool {
		// Older year -> higher weight.
		weights.Set("MOVIE", tu.ID, float64(2100-tu.Values[yi].AsInt()))
		return true
	})
	rd, err := GenerateDatabaseOpts(eng, rs, seeds, MaxTuplesPerRelation(2), StrategyNaive,
		DBGenOptions{Weights: weights})
	if err != nil {
		t.Fatal(err)
	}
	var titles []string
	rd.DB.Relation("MOVIE").Scan(func(tu storage.Tuple) bool {
		titles = append(titles, tu.Values[rd.DB.Relation("MOVIE").Schema().ColumnIndex("title")].AsString())
		return true
	})
	sort.Strings(titles)
	// The two oldest: The Curse of the Jade Scorpion (2001), Hollywood
	// Ending (2002). (Joins execute ACTOR->CAST first; cast movies are
	// 3, 4, 5, of which the 2001 and 2002 ones win the budget.)
	want := []string{"Hollywood Ending", "The Curse of the Jade Scorpion"}
	if !reflect.DeepEqual(titles, want) {
		t.Errorf("weighted selection = %v, want %v", titles, want)
	}
	_ = ti
}

// TestTupleWeightsSeedSelection: seed tuples also honour weights under a
// tight budget.
func TestTupleWeightsSeedSelection(t *testing.T) {
	db, g, err := dataset.Chain(dataset.ChainConfig{Relations: 1, RowsPerRel: 10, Fanout: 1, Seed: 1, UniformRows: true})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := GenerateSchema(g, []string{"R0"}, MinPathWeight(0.5))
	if err != nil {
		t.Fatal(err)
	}
	ix := invidx.New(db)
	occ := ix.Lookup("tokR0")
	weights := TupleWeights{}
	last := occ[0].TupleIDs[len(occ[0].TupleIDs)-1]
	weights.Set("R0", last, 10)
	seeds := map[string][]storage.TupleID{"R0": occ[0].TupleIDs}
	rd, err := GenerateDatabaseOpts(sqlx.NewEngine(db), rs, seeds, MaxTuplesPerRelation(1), StrategyNaive,
		DBGenOptions{Weights: weights})
	if err != nil {
		t.Fatal(err)
	}
	got := rd.DB.Relation("R0").Tuples()
	if len(got) != 1 || got[0].ID != last {
		t.Errorf("seed selection = %v, want [%d]", got, last)
	}
}

// TestTupleWeightsRoundRobin: each Round-Robin scan yields its heaviest
// tuples first.
func TestTupleWeightsRoundRobin(t *testing.T) {
	db, g, err := dataset.Chain(dataset.ChainConfig{Relations: 2, RowsPerRel: 3, Fanout: 4, Seed: 1, UniformRows: false})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := GenerateSchema(g, []string{"R0"}, MinPathWeight(0.5))
	if err != nil {
		t.Fatal(err)
	}
	ix := invidx.New(db)
	occ := ix.Lookup("tokR0")
	// For every parent, weight its highest-id child most.
	weights := TupleWeights{}
	db.Relation("R1").Scan(func(tu storage.Tuple) bool {
		weights.Set("R1", tu.ID, float64(tu.ID))
		return true
	})
	seeds := map[string][]storage.TupleID{"R0": occ[0].TupleIDs}
	rd, err := GenerateDatabaseOpts(sqlx.NewEngine(db), rs, seeds, MaxTuplesPerRelation(3), StrategyRoundRobin,
		DBGenOptions{Weights: weights})
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin takes one per parent; with weights, each parent's
	// heaviest (= highest id) child is taken.
	r1 := rd.DB.Relation("R1")
	if r1.Len() != 3 {
		t.Fatalf("R1 tuples = %d", r1.Len())
	}
	pi := r1.Schema().ColumnIndex("parent")
	opi := db.Relation("R1").Schema().ColumnIndex("parent")
	best := map[int64]storage.TupleID{}
	db.Relation("R1").Scan(func(tu storage.Tuple) bool {
		p := tu.Values[opi].AsInt()
		if tu.ID > best[p] {
			best[p] = tu.ID
		}
		return true
	})
	r1.Scan(func(tu storage.Tuple) bool {
		p := tu.Values[pi].AsInt()
		if tu.ID != best[p] {
			t.Errorf("parent %d: got tuple %d, want heaviest %d", p, tu.ID, best[p])
		}
		return true
	})
}

// TestRoundRobinStatementsPerJoin bounds the statements of a generation by
// its shape, not its size: one per seed relation, at most two per executed
// join (Round-Robin's grouped probe and chosen-tuple fetch; NaïveQ's id and
// row queries under tuple weights). An answer of hundreds of tuples must not
// cost hundreds of statements — a statement-per-value or statement-per-tuple
// loop fails here whatever the dataset.
func TestRoundRobinStatementsPerJoin(t *testing.T) {
	db, g := syntheticMovies(t, 300)
	rs, seeds := diffQuery(t, g, invidx.New(db), busiestDirector(db), 0.05)
	for _, strat := range []Strategy{StrategyRoundRobin, StrategyAuto, StrategyNaive} {
		for _, weights := range []TupleWeights{nil, diffWeights(db)} {
			for _, workers := range []int{1, 4} {
				cf := &countingFetcher{Fetcher: sqlx.NewEngine(db)}
				rd, err := GenerateDatabaseOpts(cf, rs, seeds, MaxTuplesPerRelation(150), strat,
					DBGenOptions{Weights: weights, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%v weights=%v workers=%d", strat, weights != nil, workers)
				if got := int(cf.executed.Load()); got != rd.Stats.Queries {
					t.Errorf("%s: Queries = %d, %d statements executed", name, rd.Stats.Queries, got)
				}
				if max := len(seeds) + 2*rd.Stats.JoinsExecuted; rd.Stats.Queries > max {
					t.Errorf("%s: %d statements for %d seed relations and %d joins (max %d)",
						name, rd.Stats.Queries, len(seeds), rd.Stats.JoinsExecuted, max)
				}
				if rd.Stats.TotalTuples < 10*rd.Stats.Queries {
					t.Fatalf("%s: only %d tuples for %d statements: the answer is too small to tell set-at-a-time from tuple-at-a-time",
						name, rd.Stats.TotalTuples, rd.Stats.Queries)
				}
			}
		}
	}
}

// explainingFetcher records the plan EXPLAIN reports for every statement the
// generator executes.
type explainingFetcher struct {
	*sqlx.Engine
	mu    sync.Mutex
	plans map[string][]string // by "col[,col...]" of the SELECT list
}

func (f *explainingFetcher) ExecStmt(st sqlx.Stmt) (*sqlx.Result, error) {
	if sel, ok := st.(*sqlx.SelectStmt); ok {
		ex, err := f.Engine.ExecStmt(&sqlx.ExplainStmt{Inner: sel})
		if err != nil {
			return nil, err
		}
		f.mu.Lock()
		key := strings.Join(sel.Columns, ",")
		f.plans[key] = append(f.plans[key], ex.Rows[0][0].AsString())
		f.mu.Unlock()
	}
	return f.Engine.ExecStmt(st)
}

// TestRoundRobinProbeIsIndexOnly: the statement that opens Round-Robin's
// cursors selects the join column it probes and nothing else, so the posting
// lists answer it and no tuple of the source is read for it; every other
// statement of a generation returns whole rows and keeps reading tuples.
func TestRoundRobinProbeIsIndexOnly(t *testing.T) {
	db, g := syntheticMovies(t, 300)
	rs, seeds := diffQuery(t, g, invidx.New(db), busiestDirector(db), 0.05)
	for _, workers := range []int{1, 4} {
		ef := &explainingFetcher{Engine: sqlx.NewEngine(db), plans: map[string][]string{}}
		rd, err := GenerateDatabaseOpts(ef, rs, seeds, MaxTuplesPerRelation(150), StrategyRoundRobin, DBGenOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		probes := 0
		for cols, plans := range ef.plans {
			probe := !strings.Contains(cols, sqlx.RowIDColumn)
			for _, plan := range plans {
				if probe {
					probes++
				}
				if strings.HasPrefix(plan, "index-only(") != probe {
					t.Errorf("workers=%d: SELECT %s ran as %q", workers, cols, plan)
				}
			}
		}
		if probes == 0 || probes > rd.Stats.JoinsExecuted {
			t.Errorf("workers=%d: %d cursor probes for %d joins", workers, probes, rd.Stats.JoinsExecuted)
		}
	}
}
