package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"precis/internal/dataset"
	"precis/internal/faultinject"
	"precis/internal/invidx"
	"precis/internal/schemagraph"
	"precis/internal/sqlx"
	"precis/internal/storage"
)

// relationDump lists a relation's tuples, id first, in scan order.
func relationDump(rel *storage.ResultRelation) []string {
	var out []string
	rel.ScanRows(func(id storage.TupleID, row storage.Row) bool {
		out = append(out, fmt.Sprint(id, row.Values()))
		return true
	})
	return out
}

// scanTuples is Relation.Scan on any relation, a result relation included.
func scanTuples(rel storage.Table, fn func(storage.Tuple) bool) {
	rel.ScanRows(func(id storage.TupleID, row storage.Row) bool {
		return fn(storage.Tuple{ID: id, Values: row.Values()})
	})
}

// tuplesOf is Relation.Tuples on any relation.
func tuplesOf(rel storage.Table) []storage.Tuple {
	var out []storage.Tuple
	scanTuples(rel, func(tu storage.Tuple) bool {
		out = append(out, tu)
		return true
	})
	return out
}

// getTuple is Relation.Get on a result relation.
func getTuple(rel *storage.ResultRelation, id storage.TupleID) (storage.Tuple, bool) {
	row, ok := rel.Row(id)
	if !ok {
		return storage.Tuple{}, false
	}
	return storage.Tuple{ID: id, Values: row.Values()}, true
}

// checkIndexesCurrent holds every index of a result database to a scan of
// its relation: each distinct value of each indexed column finds exactly the
// tuples that carry it.
func checkIndexesCurrent(t *testing.T, when string, db *storage.Result) {
	t.Helper()
	for _, name := range db.RelationNames() {
		rel := db.Relation(name)
		for _, col := range rel.IndexedColumns() {
			ci := rel.Schema().ColumnIndex(col)
			want := map[storage.Value][]storage.TupleID{}
			rel.ScanRows(func(id storage.TupleID, row storage.Row) bool {
				want[row.Value(ci)] = append(want[row.Value(ci)], id)
				return true
			})
			distinct, err := rel.DistinctValues(col)
			if err != nil {
				t.Fatal(err)
			}
			nonNull := len(want)
			if _, ok := want[storage.Null]; ok {
				nonNull--
			}
			if len(distinct) != nonNull {
				t.Fatalf("%s: %s.%s has %d distinct values indexed, %d stored", when, name, col, len(distinct), nonNull)
			}
			for v, ids := range want {
				if v.IsNull() {
					continue // NULL joins nothing
				}
				slices.Sort(ids)
				if got, err := rel.Lookup(col, v); err != nil || !slices.Equal(got, ids) {
					t.Fatalf("%s: %s.%s = %s finds %v, stored under %v (%v)", when, name, col, v, got, ids, err)
				}
			}
		}
	}
}

// widestLookups wraps a Fetcher under a counting fault plan and notes which
// statement or probe made the most storage lookups, and the number of the
// lookup in the middle of it: past the first of a block of values resolved
// together and before the last. (Exact when statements run one at a time; any
// lookup will do for what the test asserts.)
type widestLookups struct {
	Fetcher
	count     *faultinject.Plan
	mu        sync.Mutex
	most, mid int64
}

func (w *widestLookups) note(before int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n := w.count.Calls(faultinject.SiteStorageLookup) - before; n > w.most {
		w.most, w.mid = n, before+n/2
	}
}

func (w *widestLookups) ExecStmt(st sqlx.Stmt) (*sqlx.Result, error) {
	defer w.note(w.count.Calls(faultinject.SiteStorageLookup))
	return w.Fetcher.ExecStmt(st)
}

func (w *widestLookups) Probe(rel, col string, values []storage.Value) (*sqlx.Groups, error) {
	defer w.note(w.count.Calls(faultinject.SiteStorageLookup))
	return w.Fetcher.Probe(rel, col, values)
}

// TestFaultMidJoinLeavesExactPrefix: an injected error on the n-th generated
// SELECT or cursor probe, or on the n-th index lookup behind one — among them
// one in the middle of a block of lookups resolved together — fails the run,
// and D′, which a join enters a whole batch at a time, is then what the
// unfaulted run had built when it reached that statement: per relation a
// prefix of the full answer's tuples in their order, under indexes that are
// current. On one engine and across shards.
func TestFaultMidJoinLeavesExactPrefix(t *testing.T) {
	errInjected := errors.New("injected")
	db, g := syntheticMovies(t, 300)
	rs, seeds := diffQuery(t, g, invidx.New(db), busiestDirector(db), 0.05)
	fetchers := diffFetchers(t, db)
	for _, fx := range []diffFetcher{fetchers[0], fetchers[2]} {
		for _, strat := range []Strategy{StrategyNaive, StrategyRoundRobin} {
			opts := DBGenOptions{}
			full, err := GenerateDatabaseOpts(fx.make(), rs, seeds, MaxTuplesPerRelation(40), strat, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, site := range []string{faultinject.SiteSQLSelect, faultinject.SiteStorageLookup} {
				count := faultinject.NewPlan().Set(site, faultinject.Rule{Every: 1 << 30})
				widest := &widestLookups{Fetcher: fx.make(), count: count}
				stop := faultinject.Activate(count)
				if _, err := GenerateDatabaseOpts(widest, rs, seeds, MaxTuplesPerRelation(40), strat, opts); err != nil {
					t.Fatal(err)
				}
				stop()
				calls, cut := int(count.Calls(site)), 0
				var armed []int
				for nth := 0; nth < calls; nth += 1 + calls/40 {
					armed = append(armed, nth)
				}
				if site == faultinject.SiteStorageLookup {
					if widest.most <= 32 { // sqlx resolves 32 values at a time
						t.Fatalf("%s, %v: no statement makes more than %d lookups", fx.name, strat, widest.most)
					}
					armed = append(armed, int(widest.mid))
				}
				for _, nth := range armed {
					when := fmt.Sprintf("%s, %v, %s call %d of %d", fx.name, strat, site, nth+1, calls)
					gen, err := newGenerator(fx.make(), rs, seeds, MaxTuplesPerRelation(40), strat, opts)
					if err != nil {
						t.Fatal(err)
					}
					stop := faultinject.Activate(faultinject.NewPlan().Set(site, faultinject.Rule{Err: errInjected, After: nth, Limit: 1}))
					err = gen.placeSeeds(seeds)
					if err == nil {
						err = gen.executeJoins()
					}
					stop()
					if !errors.Is(err, errInjected) {
						t.Fatalf("%s: error %v", when, err)
					}
					for _, name := range full.DB.RelationNames() {
						got, want := relationDump(gen.out.Relation(name)), relationDump(full.DB.Relation(name))
						if len(got) > len(want) || !slices.Equal(got, want[:len(got)]) {
							t.Fatalf("%s: %s is not a prefix of the full answer's:\n%v\n%v", when, name, got, want)
						}
						if len(got) < len(want) {
							cut++
						}
					}
					checkIndexesCurrent(t, when, gen.out)
				}
				if cut == 0 {
					t.Errorf("%s, %v, %s: no fault left a relation short", fx.name, strat, site)
				}
			}
		}
	}
}

// TestResultDatabaseReadsArePure: a cached answer's D′ is read by every
// request it serves at once — its distinct values, its id set, its join
// indexes — while nothing writes it. Under -race this fails if any of those
// reads builds, sorts or caches something inside the relation.
func TestResultDatabaseReadsArePure(t *testing.T) {
	db, g := syntheticMovies(t, 300)
	rs, seeds := diffQuery(t, g, invidx.New(db), busiestDirector(db), 0.05)
	rd, err := GenerateDatabaseOpts(sqlx.NewEngine(db), rs, seeds, MaxTuplesPerRelation(60), StrategyAuto, DBGenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range rd.DB.RelationNames() {
				rel := rd.DB.Relation(name)
				for _, col := range rel.Schema().ColumnNames() {
					values, err := rel.DistinctValues(col)
					if err != nil {
						t.Error(err)
						return
					}
					for _, v := range values {
						ids, err := rel.Lookup(col, v)
						if err != nil || len(ids) == 0 || !rel.Has(ids[0]) || slices.ContainsFunc(rel.AppendRows(nil, ids), func(r storage.Row) bool { return !r.Valid() }) {
							t.Errorf("%s.%s = %s: %v, %v", name, col, v, ids, err)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestPathOrderIsRenderedOrder: Path.Less breaks weight-and-length ties on
// the paths' text without rendering it, and must order exactly as the
// rendered strings compare — the order G′ was always built in — and, where
// two paths render alike for having taken parallel edges, as the keys of
// their join edges do. Graphs from
// dataset.RandomGraph with their weights coarsened (so ties are the rule),
// plus relation and attribute names chosen so that one path's text is a
// prefix of, or splits its pieces differently from, another's.
func TestPathOrderIsRenderedOrder(t *testing.T) {
	byText := func(p, q *schemagraph.Path) bool {
		if p.Weight() != q.Weight() {
			return p.Weight() > q.Weight()
		}
		if p.Len() != q.Len() {
			return p.Len() < q.Len()
		}
		if ps, qs := p.String(), q.String(); ps != qs {
			return ps < qs
		}
		return slices.CompareFunc(p.Joins, q.Joins, func(a, b *schemagraph.JoinEdge) int { return strings.Compare(a.Key(), b.Key()) }) < 0
	}
	// paths enumerates every path of up to three joins from every relation,
	// each with every projection it can end in.
	paths := func(g *schemagraph.Graph) []*schemagraph.Path {
		var out []*schemagraph.Path
		var grow func(p *schemagraph.Path, depth int)
		grow = func(p *schemagraph.Path, depth int) {
			out = append(out, p)
			end := g.Relation(p.End())
			for _, pr := range end.Projections() {
				out = append(out, p.ExtendProjection(pr))
			}
			for _, e := range end.Out() {
				if np := p.ExtendJoin(e); np != nil && depth < 3 {
					grow(np, depth+1)
				}
			}
		}
		for _, rel := range g.Relations() {
			grow(schemagraph.NewPath(rel), 0)
		}
		return out
	}
	check := func(name string, g *schemagraph.Graph) {
		t.Helper()
		all := paths(g)
		rand.New(rand.NewSource(1)).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		all = all[:min(len(all), 400)]
		ties := 0
		for _, p := range all {
			for _, q := range all {
				if p.Less(q) != byText(p, q) {
					t.Fatalf("%s: Less(%q, %q) = %v, the rendered order says %v", name, p, q, p.Less(q), byText(p, q))
				}
				if p != q && p.Weight() == q.Weight() && p.Len() == q.Len() {
					ties++
				}
			}
		}
		if ties == 0 {
			t.Fatalf("%s: no two paths tie on weight and length", name)
		}
		// G′ itself: the accepted paths leave the queue in Less order, so they
		// must be in rendered order too.
		rs, err := GenerateSchema(g, g.Relations()[:1], MinPathWeight(0.2))
		if err != nil {
			t.Fatal(err)
		}
		if !sort.SliceIsSorted(rs.Paths, func(i, j int) bool { return byText(rs.Paths[i], rs.Paths[j]) }) {
			t.Fatalf("%s: G′ accepted its paths out of rendered order: %v", name, rs.Paths)
		}
	}

	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		g, err := dataset.RandomGraph(dataset.GraphConfig{Relations: 2 + r.Intn(6), AttrsPerRel: 1 + r.Intn(4), ExtraJoins: r.Intn(5), Seed: r.Int63()})
		if err != nil {
			t.Fatal(err)
		}
		for _, rel := range g.Relations() {
			n := g.Relation(rel)
			for _, p := range n.Projections() {
				p.Weight = []float64{0.5, 1}[r.Intn(2)]
			}
			for _, e := range n.Out() {
				e.Weight = []float64{0.5, 1}[r.Intn(2)]
			}
		}
		check(fmt.Sprint("random graph ", trial), g)
	}

	g := schemagraph.New()
	names := []string{"A", "A -", "A -> B", "B", "B.", "B.x", "AB", ""}
	for _, name := range names {
		g.AddRelation(name)
		for _, attr := range []string{"x", "", ".x", " -> B"} {
			if _, err := g.AddProjection(name, attr, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, from := range names {
		for _, to := range names {
			if from != to {
				if _, err := g.AddJoin(from, to, "x", "x", 1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	check("awkward names", g)
}
