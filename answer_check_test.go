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
//   - every relation of D′ is in G′;
//   - D′'s join access agrees with a scan: every column a G′ edge arrives
//     at is indexed, and on every indexed column DistinctValues and the
//     partners of each value are what a scan of the relation finds.
//
// opts must not carry tuple weights or a profile, which reorder seeds and
// change the constraint. Monotonicity, Round-Robin fairness, each seed
// narrated once and exact prefixes are not checked here.
func checkAnswer(t testing.TB, eng *Engine, query string, opts Options, ans *Answer) {
	t.Helper()
	if ans == nil || ans.Database == nil || ans.Schema == nil {
		t.Fatalf("%q: no result database", query)
	}
	d := ans.Database
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

	seeds := map[string][]storage.TupleID{}
	for _, occs := range ans.Occurrences {
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

// baseDatabase returns eng's data as one database: its own, or the union of
// its shards'.
func baseDatabase(t testing.TB, eng *Engine) *storage.Database {
	t.Helper()
	if db := eng.Database(); db != nil {
		return db
	}
	parts := eng.backend.(*shardSet).dbs()
	whole := storage.NewDatabase(parts[0].Name())
	for _, name := range parts[0].RelationNames() {
		whole.MustCreateRelation(parts[0].Relation(name).Schema())
		for _, p := range parts {
			var ids []storage.TupleID
			var rows []storage.Row
			p.Relation(name).ScanRows(func(id storage.TupleID, row storage.Row) bool {
				ids, rows = append(ids, id), append(rows, row)
				return true
			})
			if _, err := whole.InsertBatch(name, ids, rows); err != nil {
				t.Fatal(err)
			}
		}
	}
	return whole
}
