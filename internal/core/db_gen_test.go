package core

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
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
	dt := tuplesOf(dir)[0]
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
	scanTuples(movies, func(tu storage.Tuple) bool {
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
		a := tuplesOf(naive.DB.Relation(rel))
		b := tuplesOf(rr.DB.Relation(rel))
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
		scanTuples(r1, func(tu storage.Tuple) bool {
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
	scanTuples(rd.DB.Relation("MOVIE"), func(tu storage.Tuple) bool {
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
	got := tuplesOf(rd.DB.Relation("R0"))
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
	scanTuples(r1, func(tu storage.Tuple) bool {
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
			cf := &countingFetcher{Fetcher: sqlx.NewEngine(db)}
			rd, err := GenerateDatabaseOpts(cf, rs, seeds, MaxTuplesPerRelation(150), strat,
				DBGenOptions{Weights: weights})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%v weights=%v", strat, weights != nil)
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

// probeLog is a Fetcher that records, per relation, the probes and the
// statements a generation issued.
type probeLog struct {
	*sqlx.Engine
	probes map[string][]*sqlx.Groups
	stmts  map[string][]*sqlx.SelectStmt
}

func (f *probeLog) Probe(rel, col string, values []storage.Value) (*sqlx.Groups, error) {
	g, err := f.Engine.Probe(rel, col, values)
	if err == nil {
		// The generator compacts the ids in place: keep what the probe said.
		seen := &sqlx.Groups{Ends: g.Ends, Stats: g.Stats}
		f.probes[rel] = append(f.probes[rel], seen)
	}
	return g, err
}

func (f *probeLog) ExecStmt(st sqlx.Stmt) (*sqlx.Result, error) {
	f.stmts[st.Table] = append(f.stmts[st.Table], st)
	return f.Engine.ExecStmt(st)
}

// TestRoundRobinProbeReadsNoTuple: a Round-Robin join is exactly one Probe —
// whose tuple reads are its postings, the cost model's TupleTime per tuple
// *retrieved* by the scans, with nothing scanned — and exactly one statement,
// a fetch by tuple id of the tuples the rounds chose. No statement of a
// Round-Robin generation selects without ids, and none selects rowid into its
// rows.
func TestRoundRobinProbeReadsNoTuple(t *testing.T) {
	db, g := syntheticMovies(t, 300)
	rs, seeds := diffQuery(t, g, invidx.New(db), busiestDirector(db), 0.05)
	pl := &probeLog{Engine: sqlx.NewEngine(db), probes: map[string][]*sqlx.Groups{}, stmts: map[string][]*sqlx.SelectStmt{}}
	rd, err := GenerateDatabaseOpts(pl, rs, seeds, MaxTuplesPerRelation(150), StrategyRoundRobin, DBGenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	probes, stmts := 0, 0
	for rel, sels := range pl.stmts {
		stmts += len(sels)
		for _, sel := range sels {
			if sel.IDs == nil || sel.Col != "" || sel.Exclude != nil {
				t.Errorf("statement on %s does not fetch by id alone", rel)
			}
		}
	}
	for rel, groups := range pl.probes {
		probes += len(groups)
		for _, g := range groups {
			postings := g.Ends[len(g.Ends)-1]
			if g.Stats.TupleReads != postings || g.Stats.Scanned != 0 || g.Stats.IndexLookups != len(g.Ends) {
				t.Errorf("probe of %s: %+v for %d values and %d postings", rel, g.Stats, len(g.Ends), postings)
			}
		}
	}
	// Per target relation: one statement for its seeds, and per join
	// one probe and — unless every posting was in D′ already — one fetch.
	for rel, sels := range pl.stmts {
		joins := len(sels)
		if len(seeds[rel]) > 0 {
			joins--
		}
		if joins > len(pl.probes[rel]) {
			t.Errorf("%d fetches into %s after %d probes", joins, rel, len(pl.probes[rel]))
		}
	}
	if probes == 0 || probes > rd.Stats.JoinsExecuted {
		t.Errorf("%d probes for %d joins", probes, rd.Stats.JoinsExecuted)
	}
	if probes+stmts != rd.Stats.Queries {
		t.Errorf("Queries = %d, fetcher saw %d probes + %d statements", rd.Stats.Queries, probes, stmts)
	}
}

// TestRoundRobinRounds states what Round-Robin's rounds choose, join by join
// of a deep generation, against cursors written down naively — one scan of Rj
// per driving value, as Figure 5 has it — for budgets from one tuple to more
// than exist: no tuple is chosen twice, none is in R′ⱼ already, and the picks
// are round after round one tuple from every cursor still open, in driving
// value order, until the budget or the cursors run out. The reference
// generator's statement-per-value fetch must choose the same tuples. Half of
// each join's tuples are then inserted and the joins are walked twice, so a
// join finds part of its postings in R′ⱼ.
func TestRoundRobinRounds(t *testing.T) {
	db, graph := syntheticMovies(t, 300)
	rs, seeds := diffQuery(t, graph, invidx.New(db), busiestDirector(db), 0.05)
	for _, weights := range []TupleWeights{nil, diffWeights(db)} {
		g, err := newGenerator(sqlx.NewEngine(db), rs, seeds, Unlimited(), StrategyRoundRobin, DBGenOptions{Weights: weights})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.placeSeeds(seeds); err != nil {
			t.Fatal(err)
		}
		joins, revisits := 0, 0
		edges := rs.JoinEdgesByWeight()
		for _, e := range append(edges[:len(edges):len(edges)], edges...) {
			values, err := g.out.Relation(e.From).DistinctValues(e.FromCol)
			if err != nil {
				t.Fatal(err)
			}
			if len(values) == 0 {
				continue
			}
			// The naive cursors, and the rounds dealt from them.
			to, outRel := db.Relation(e.To), g.out.Relation(e.To)
			ci := to.Schema().ColumnIndex(e.ToCol)
			var cursors [][]storage.TupleID
			for _, v := range values {
				var cur []storage.TupleID
				to.Scan(func(tu storage.Tuple) bool {
					if tu.Values[ci].Equal(v) && !outRel.Has(tu.ID) {
						cur = append(cur, tu.ID)
					} else if tu.Values[ci].Equal(v) {
						revisits++
					}
					return true
				})
				slices.Sort(cur)
				weights.order(e.To, cur)
				cursors = append(cursors, cur)
			}
			var dealt []storage.TupleID
			for round := 0; ; round++ {
				open := false
				for _, cur := range cursors {
					if round < len(cur) {
						dealt, open = append(dealt, cur[round]), true
					}
				}
				if !open {
					break
				}
			}
			if len(dealt) == 0 {
				continue
			}
			joins++
			for _, limit := range []int{1, 2, len(values) - 1, len(values), len(values) + 1, len(dealt) - 1, len(dealt), len(dealt) + 7, Unlimited().Budget(e.To, nil, 0)} {
				if limit < 1 {
					continue
				}
				f, err := g.fetchRoundRobin(e, values, limit)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("weights=%v %s->%s limit=%d", weights != nil, e.From, e.To, limit)
				if want := dealt[:min(limit, len(dealt))]; !slices.Equal(f.RowIDs, want) {
					t.Fatalf("%s: chose %v, the rounds deal %v", name, f.RowIDs, want)
				}
				seen := map[storage.TupleID]bool{}
				for i, id := range f.RowIDs {
					if tu, ok := to.Get(id); seen[id] || outRel.Has(id) || !ok || !reflect.DeepEqual(f.Rows[i].Values(), g.project(e.To, tu)) {
						t.Fatalf("%s: pick %d (tuple %d) is repeated, in R′ⱼ already, or not the stored row", name, i, id)
					}
					seen[id] = true
				}
				ref, err := refGenerator{g}.fetchRoundRobin(e, values, limit)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(f.RowIDs, ref.RowIDs) || !slices.EqualFunc(f.Rows, ref.Rows, func(a, b storage.Row) bool { return reflect.DeepEqual(a.Values(), b.Values()) }) {
					t.Fatalf("%s: chose %v, the statement-per-value reference %v", name, f.RowIDs, ref.RowIDs)
				}
			}
			f, err := g.fetchRoundRobin(e, values, len(dealt))
			if err != nil {
				t.Fatal(err)
			}
			if err := g.apply(e.To, f, len(dealt)/2+1, false); err != nil {
				t.Fatal(err)
			}
		}
		if joins < 5 || revisits == 0 {
			t.Fatalf("weights=%v: %d joins exercised, %d postings found in R′ⱼ: the schema is too shallow to tell", weights != nil, joins, revisits)
		}
	}
}

// TestApplySkipsDuplicates: apply admits a fetched tuple once — a row whose
// id D′ already holds is skipped (paper §5.2) without spending the budget,
// and the rows after it still go in. The generator's fetches exclude R′ⱼ
// themselves, so this holds apply to it directly.
func TestApplySkipsDuplicates(t *testing.T) {
	eng, rs, seeds := exampleSetup(t, 0.1)
	g, err := newGenerator(eng, rs, seeds, Unlimited(), StrategyNaive, DBGenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range rs.Relations() {
		var ids []storage.TupleID
		eng.Database().Relation(rel).Scan(func(tu storage.Tuple) bool {
			ids = append(ids, tu.ID)
			return len(ids) < 3
		})
		if len(ids) < 3 {
			continue
		}
		for _, step := range []struct{ fetch, budget int }{{2, 2}, {3, 1}} {
			res, err := g.fetchIDs(rel, ids[:step.fetch], step.fetch)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.apply(rel, res, step.budget, false); err != nil {
				t.Fatal(err)
			}
		}
		var got []storage.TupleID
		for _, tu := range tuplesOf(g.out.Relation(rel)) {
			got = append(got, tu.ID)
		}
		if !slices.Equal(got, ids) || g.perRel[rel] != 3 {
			t.Fatalf("%s holds %v (%d counted) after applying %v and then %v under a budget of one", rel, got, g.perRel[rel], ids[:2], ids)
		}
		return
	}
	t.Fatal("no relation of G′ has three tuples")
}

// project returns the columns of tu the generator fetches for rel.
func (g *generator) project(rel string, tu storage.Tuple) []storage.Value {
	schema := g.eng.Database().Relation(rel).Schema()
	row := make([]storage.Value, len(g.lay.cols[rel]))
	for i, c := range g.lay.cols[rel] {
		row[i] = tu.Values[schema.ColumnIndex(c)]
	}
	return row
}
