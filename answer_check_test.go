package precis

import (
	"slices"
	"sort"
	"testing"

	"precis/internal/storage"
)

// checkAnswer holds ans, eng's answer to query under opts, to what every
// answer keeps whatever engine shape computed it:
//
//   - D′ is a sub-database of the engine's data (storage.VerifySubDatabase,
//     through the read-only storage.Reader);
//   - the cardinality constraint holds: for each relation, its last tuple
//     fits the budget that every other tuple of D′ leaves;
//   - every seed within its relation's budget is present: seed relations
//     are placed in name order, each taking its lowest ids up to its budget;
//   - every relation of D′ is in G′, and holds no tuple twice (paper §5.2);
//   - G′'s projection paths come in non-increasing weight, and each is one
//     the degree constraint (opts.Degree, by default MinPathWeight(0.8))
//     accepts after the paths before it;
//   - D′'s join access agrees with a scan: every column a G′ edge arrives
//     at is indexed, and on every indexed column DistinctValues and the
//     partners of each value are what a scan of the relation finds;
//   - a partial answer is an exact prefix: each relation of D′ holds, in
//     insertion order, the first tuples of the same relation of the answer
//     to the same terms with opts.Budget cleared — which is checked in full
//     in its place, seeds included, where a budget may cut a seed short.
//
// opts must not carry tuple weights or a profile, which reorder seeds and
// change the constraint. Monotonicity, Round-Robin fairness and each seed
// narrated once are not checked here.
func checkAnswer(t testing.TB, eng *Engine, query string, opts Options, ans *Answer) {
	t.Helper()
	if ans == nil || ans.Database == nil || ans.Schema == nil {
		t.Fatalf("%q: no result database", query)
	}
	d := ans.Database
	if ans.Partial {
		whole := opts
		whole.Budget, whole.SkipNarrative = Budget{}, true // D′ is what is compared
		full, err := eng.Query(ans.Terms, whole)
		if err != nil {
			t.Fatalf("%q: the answer without a budget: %v", query, err)
		}
		if full.Partial {
			t.Fatalf("%q: the answer without a budget is partial (%q)", query, full.Truncation)
		}
		checkAnswer(t, eng, query, whole, full)
		for _, rel := range d.RelationNames() {
			got, want := scanIDs(d.Relation(rel)), []storage.TupleID(nil)
			if r := full.Database.Relation(rel); r != nil {
				want = scanIDs(r)
			}
			if len(got) > len(want) || !slices.Equal(got, want[:len(got)]) {
				t.Fatalf("%q: %s of the partial answer holds %v, not a prefix of the unbudgeted answer's %v", query, rel, got, want)
			}
		}
	}
	if err := storage.VerifySubDatabase(baseDatabase(t, eng), storage.Reader(d)); err != nil {
		t.Fatalf("%q: not a sub-database of the engine's data: %v", query, err)
	}
	card := opts.Cardinality
	if card == nil {
		card = MaxTuplesPerRelation(10)
	}
	counts, total := map[string]int{}, d.TotalTuples()
	for _, rel := range d.RelationNames() {
		if ans.Schema.Graph.Relation(rel) == nil {
			t.Fatalf("%q: D′ has %s, which G′ lacks", query, rel)
		}
		counts[rel] = d.Relation(rel).Len()
		ids := scanIDs(d.Relation(rel))
		slices.Sort(ids)
		if len(slices.Compact(slices.Clone(ids))) != len(ids) {
			t.Fatalf("%q: %s of D′ holds a tuple twice: %v", query, rel, ids)
		}
	}
	for rel, n := range counts {
		if n == 0 {
			continue
		}
		counts[rel]--
		if b := card.Budget(rel, counts, total-1); b < 1 {
			t.Fatalf("%q: %d tuples of %s, %d in all, break %s", query, n, rel, total, card)
		}
		counts[rel]++
	}

	degree := opts.Degree
	if degree == nil {
		degree = MinPathWeight(0.8)
	}
	for i, p := range ans.Schema.Paths {
		if i > 0 && p.Weight() > ans.Schema.Paths[i-1].Weight() {
			t.Fatalf("%q: projection path %d, %s, weighs %g, more than the %g before it", query, i, p, p.Weight(), ans.Schema.Paths[i-1].Weight())
		}
		if !degree.Accept(ans.Schema.Paths[:i], p) {
			t.Fatalf("%q: projection path %d, %s, breaks %s after the paths before it", query, i, p, degree)
		}
	}

	seeds := map[string][]storage.TupleID{}
	for _, occs := range ans.Occurrences {
		if ans.Partial {
			break // the prefix check above holds the seeds
		}
		for _, o := range occs {
			seeds[o.Relation] = storage.UnionIDs(seeds[o.Relation], o.TupleIDs)
		}
	}
	seedRels := make([]string, 0, len(seeds))
	for rel := range seeds {
		seedRels = append(seedRels, rel)
	}
	sort.Strings(seedRels)
	placed, n := map[string]int{}, 0
	for _, rel := range seedRels {
		ids := seeds[rel][:min(len(seeds[rel]), card.Budget(rel, placed, n))]
		for _, id := range ids {
			if r := d.Relation(rel); r == nil || !r.Has(id) {
				t.Fatalf("%q: seed %s %d, within the budget, is not in D′", query, rel, id)
			}
		}
		placed[rel], n = len(ids), n+len(ids)
	}

	for _, e := range ans.Schema.Graph.JoinEdges() {
		if r := d.Relation(e.To); r != nil && !slices.Contains(r.IndexedColumns(), e.ToCol) {
			t.Fatalf("%q: %s.%s, where %s arrives, has no join index", query, e.To, e.ToCol, e.Key())
		}
	}
	for _, rel := range d.RelationNames() {
		r := d.Relation(rel)
		for _, col := range r.IndexedColumns() {
			ci, byValue := r.Schema().ColumnIndex(col), map[storage.Value][]storage.TupleID{}
			var distinct []storage.Value
			r.ScanRows(func(id storage.TupleID, row storage.Row) bool {
				if v := row.Value(ci); !v.IsNull() {
					if byValue[v] == nil {
						distinct = append(distinct, v)
					}
					byValue[v] = append(byValue[v], id)
				}
				return true
			})
			slices.SortFunc(distinct, func(a, b storage.Value) int {
				if c := a.Compare(b); c != 0 {
					return c
				}
				return int(a.Kind()) - int(b.Kind())
			})
			if got, err := r.DistinctValues(col); err != nil || !slices.Equal(got, distinct) {
				t.Fatalf("%q: %s.%s DistinctValues = %v (%v), a scan finds %v", query, rel, col, got, err, distinct)
			}
			for v, want := range byValue {
				slices.Sort(want)
				if got, err := r.Lookup(col, v); err != nil || !slices.Equal(got, want) {
					t.Fatalf("%q: %s.%s = %s finds %v (%v), a scan %v", query, rel, col, v, got, err, want)
				}
			}
		}
	}
}

// scanIDs returns r's ids in insertion order.
func scanIDs(r interface {
	ScanRows(func(storage.TupleID, storage.Row) bool)
}) []storage.TupleID {
	var ids []storage.TupleID
	r.ScanRows(func(id storage.TupleID, _ storage.Row) bool {
		ids = append(ids, id)
		return true
	})
	return ids
}

// baseDatabase returns eng's data as one database: its own, or the union of
// its shards'.
func baseDatabase(t testing.TB, eng *Engine) *storage.Database {
	t.Helper()
	if db := eng.Database(); db != nil {
		return db
	}
	parts := eng.backend.(*shardSet).dbs
	whole := storage.NewDatabase(parts[0].Name())
	for _, name := range parts[0].RelationNames() {
		whole.MustCreateRelation(parts[0].Relation(name).Schema())
		for _, p := range parts {
			var err error
			p.Relation(name).ScanRows(func(id storage.TupleID, row storage.Row) bool {
				err = whole.InsertRow(name, id, row)
				return err == nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return whole
}
