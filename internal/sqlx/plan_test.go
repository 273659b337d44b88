package sqlx

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"precis/internal/storage"
)

// idSet is a map-backed IDSet.
type idSet map[storage.TupleID]bool

func (s idSet) Has(id storage.TupleID) bool { return s[id] }

// bigInt is 2^53 + 1, the first int64 no float64 holds: a FLOAT column
// refuses it, and Float(2^53) probing an INT column finds 2^53, not it.
const bigInt = 1<<53 + 1

// planEngine builds two copies of one table: R with a primary key on id and
// hash indexes on k and f; U with no key and no index, so every statement on it
// scans. k, f and s hold NULLs; f is given both Int and Float values, and
// stores the Ints as Floats. Seven tuples more hold the values a float probe
// can trip on: NaN, ±Inf, −0, ±2^53 in f, and in k Ints a float cannot tell
// apart.
func planEngine(t testing.TB) *Engine {
	t.Helper()
	db := storage.NewDatabase("plan")
	cols := []storage.Column{{Name: "id", Type: storage.TypeInt}, {Name: "k", Type: storage.TypeInt},
		{Name: "f", Type: storage.TypeFloat}, {Name: "y", Type: storage.TypeInt}, {Name: "s", Type: storage.TypeString}}
	db.MustCreateRelation(storage.MustSchema("R", "id", cols...))
	db.MustCreateRelation(storage.MustSchema("U", "", cols...))
	insert := func(vals ...storage.Value) {
		for _, table := range []string{"R", "U"} {
			if _, err := db.Insert(table, vals...); err != nil {
				t.Fatal(err)
			}
		}
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 240; i++ {
		k, f, s := storage.Int(int64(r.Intn(8))), r.Intn(6), storage.String(fmt.Sprintf("%c%c", 'a'+r.Intn(3), 'a'+r.Intn(3)))
		fv := storage.Int(int64(f))
		switch r.Intn(4) {
		case 0:
			fv = storage.Float(float64(f))
		case 1:
			fv = storage.Float(float64(f) + 0.5)
		}
		if r.Intn(9) == 0 {
			k = storage.Null
		}
		if r.Intn(9) == 0 {
			fv = storage.Null
		}
		if r.Intn(9) == 0 {
			s = storage.Null
		}
		insert(storage.Int(int64(i)), k, fv, storage.Int(int64(r.Intn(50))), s)
	}
	for i, f := range []storage.Value{storage.Float(math.NaN()), storage.Float(math.Inf(1)), storage.Float(math.Inf(-1)),
		storage.Float(math.Copysign(0, -1)), storage.Float(1 << 53), storage.Int(-(1 << 53)), storage.Int(1 << 53)} {
		insert(storage.Int(int64(240+i)), storage.Int(bigInt-int64(i%2)), f, storage.Int(int64(i)), storage.String("z"))
	}
	for _, c := range []string{"k", "f"} {
		if err := db.Relation("R").CreateIndex(c); err != nil {
			t.Fatal(err)
		}
	}
	return NewEngine(db)
}

// plannedSelect runs st and checks that the execution's counters show the
// access path planAccess picks for it, which it returns.
func plannedSelect(t testing.TB, e *Engine, st *SelectStmt) (*Result, accessKind) {
	t.Helper()
	res, err := e.ExecStmt(st)
	if err != nil {
		t.Fatalf("%+v: %v", *st, err)
	}
	rel := e.Database().Relation(st.Table)
	plan, s := planAccess(rel, st), res.Stats
	ok := false
	switch plan {
	case accessScan:
		// A LIMIT reached stops the scan early.
		ok = s.IndexLookups == 0 && (s.Scanned == rel.Len() || len(res.Rows) == st.Limit)
	case accessRowID:
		ok = s.IndexLookups == 0 && s.Scanned == 0 && s.TupleReads <= len(st.IDs)
	case accessIndex:
		ok = s.IndexLookups == len(st.Values) && s.Scanned == 0
	}
	if !ok {
		t.Fatalf("%+v: plan %d, execution did %+v", *st, plan, s)
	}
	return res, plan
}

// probe runs SELECT id FROM table WHERE col IN (vals), checking its plan.
func probe(t *testing.T, e *Engine, table, col string, vals ...storage.Value) *Result {
	t.Helper()
	res, _ := plannedSelect(t, e, &SelectStmt{Columns: []string{"id"}, Table: table, Col: col, Values: vals, Limit: -1})
	return res
}

// choices is a byte string read as a statement's decisions, a byte each. Once
// it is used up every decision is 0, so every string decodes to a statement.
type choices []byte

func (c *choices) intn(n int) int {
	if len(*c) == 0 {
		return 0
	}
	b := (*c)[0]
	*c = (*c)[1:]
	return int(b) % n
}

// decodeSelect decodes a SELECT on table, one of R and U, whose live tuples
// are ids and whose deleted ones are dead: *, no column, or a projection of up
// to three columns (an unknown one among the choices), with a LIMIT or none;
// with an id list or none — shuffled, repeating ids, naming dead ones and ids
// never handed out; with a Col or none — indexed, unindexed, the key or
// unknown — and its values; and with an id set to exclude or none.
func decodeSelect(c *choices, table string, ids, dead []storage.TupleID) *SelectStmt {
	st := &SelectStmt{Table: table, Limit: -1}
	switch n := c.intn(5); n {
	case 4:
		st.Columns = []string{}
	default:
		for ; n > 0; n-- {
			st.Columns = append(st.Columns, decodeColumn(c))
		}
	}
	if c.intn(3) == 0 {
		st.Limit = c.intn(64)
	}
	if c.intn(3) == 0 {
		st.IDs = []storage.TupleID{}
		for n := c.intn(9); n > 0; n-- {
			switch c.intn(8) {
			case 0:
				st.IDs = append(st.IDs, dead[c.intn(len(dead))])
			case 1:
				st.IDs = append(st.IDs, []storage.TupleID{0, 1 << 40, storage.MaxTupleID}[c.intn(3)])
			case 2:
				if len(st.IDs) > 0 {
					st.IDs = append(st.IDs, st.IDs[c.intn(len(st.IDs))])
				}
			default:
				st.IDs = append(st.IDs, ids[c.intn(len(ids))])
			}
		}
	}
	if c.intn(4) > 0 {
		st.Col = decodeColumn(c)
		for n := c.intn(5); n > 0; n-- {
			st.Values = append(st.Values, decodeValue(c))
		}
	}
	if c.intn(3) == 0 {
		set, m := idSet{}, 2+c.intn(4)
		r := c.intn(m)
		for _, id := range ids {
			if int(id)%m == r {
				set[id] = true
			}
		}
		st.Exclude = set
	}
	return st
}

// decodeColumn decodes a column of R/U; one time in sixteen, a column neither
// has.
func decodeColumn(c *choices) string {
	names := []string{"id", "k", "f", "y", "s"}
	if i := c.intn(32); i < 30 {
		return names[i%len(names)]
	}
	return "nope"
}

// decodeValue decodes a probe value: mostly small Ints and Floats that the
// columns hold, integral or not, and else NULL, NaN, ±Inf, −0, a string, or a
// number at or beyond 2^53 of either kind.
func decodeValue(c *choices) storage.Value {
	switch c.intn(16) {
	case 0:
		return storage.Null
	case 1:
		return storage.Float(math.NaN())
	case 2:
		return storage.Float(math.Inf(1 - 2*c.intn(2)))
	case 3:
		return storage.Float(math.Copysign(0, -1))
	case 4:
		return storage.String("ab")
	case 5:
		return []storage.Value{storage.Float(1 << 53), storage.Float(-(1 << 53)), storage.Int(bigInt), storage.Int(bigInt - 1), storage.Float(1 << 60)}[c.intn(5)]
	case 6, 7:
		return storage.Float(float64(c.intn(8)))
	case 8:
		return storage.Float(float64(c.intn(8)) + 0.5)
	default:
		return storage.Int(int64(c.intn(8)))
	}
}

// checkSelect holds st to the reference executor: the same ids and values or,
// when it names a column the table lacks, the same error. It returns the
// result, nil for an error, and the plan.
func checkSelect(t testing.TB, e *Engine, st *SelectStmt) (*Result, accessKind) {
	t.Helper()
	wantIDs, wantRows, wantErr := refSelect(e.Database().Relation(st.Table), st)
	if wantErr != nil {
		if _, err := e.ExecStmt(st); err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%+v: error %v, want %v", *st, err, wantErr)
		}
		return nil, accessScan
	}
	got, plan := plannedSelect(t, e, st)
	if !slices.Equal(got.RowIDs, wantIDs) || !reflect.DeepEqual(values(got.Rows), wantRows) {
		t.Fatalf("%+v (plan %d):\n got  %v %v\n want %v %v", *st, plan, got.RowIDs, values(got.Rows), wantIDs, wantRows)
	}
	return got, plan
}

// tupleIDs lists the ids of table's tuples.
func tupleIDs(e *Engine, table string) []storage.TupleID {
	var ids []storage.TupleID
	e.Database().Relation(table).Scan(func(tu storage.Tuple) bool {
		ids = append(ids, tu.ID)
		return true
	})
	return ids
}

// selectFixture is planEngine with every ninth tuple of both tables deleted:
// the engine, and per table its live and its dead ids.
func selectFixture(t testing.TB) (e *Engine, live, dead map[string][]storage.TupleID) {
	e = planEngine(t)
	live, dead = map[string][]storage.TupleID{}, map[string][]storage.TupleID{}
	for _, table := range []string{"R", "U"} {
		for i, id := range tupleIDs(e, table) {
			if i%9 != 4 {
				live[table] = append(live[table], id)
				continue
			}
			if ok, err := e.Database().Delete(table, id); !ok || err != nil {
				t.Fatalf("delete %s %d: %v, %v", table, id, ok, err)
			}
			dead[table] = append(dead[table], id)
		}
	}
	return e, live, dead
}

// TestSelectMatchesReferenceScan holds every access path — rowid fetch, hash
// probe, scan — to the rows the reference executor returns, on the indexed
// table and on its unindexed copy, over seeded random byte strings decoded as
// FuzzSelect decodes them.
func TestSelectMatchesReferenceScan(t *testing.T) {
	e, live, dead := selectFixture(t)
	r := rand.New(rand.NewSource(11))
	for _, table := range []string{"R", "U"} {
		t.Run(table, func(t *testing.T) {
			plans := map[accessKind]int{}
			errs := 0
			for trial := 0; trial < 3000; trial++ {
				c := make(choices, 64)
				r.Read(c)
				if res, plan := checkSelect(t, e, decodeSelect(&c, table, live[table], dead[table])); res != nil {
					plans[plan]++
				} else {
					errs++
				}
			}
			wantPlans := []accessKind{accessScan, accessRowID}
			if table == "R" {
				wantPlans = append(wantPlans, accessIndex)
			}
			for _, p := range wantPlans {
				if plans[p] < 100 {
					t.Errorf("%s: only %d generated statements took plan %d (%v)", table, plans[p], p, plans)
				}
			}
			if errs == 0 {
				t.Errorf("%s: no generated statement named an unknown column", table)
			}
		})
	}
}

// FuzzSelect is TestSelectMatchesReferenceScan on fuzzed byte strings: the
// first byte picks R or U, the rest decodes as decodeSelect reads it.
func FuzzSelect(f *testing.F) {
	e, live, dead := selectFixture(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := choices(data)
		table := []string{"R", "U"}[c.intn(2)]
		checkSelect(t, e, decodeSelect(&c, table, live[table], dead[table]))
	})
}

// idColumn lists the id column of a result.
func idColumn(res *Result) []int64 {
	var out []int64
	for _, row := range res.Rows {
		out = append(out, row.Value(0).AsInt())
	}
	return out
}

// TestNullProbesNeverMatch: the hash index stores NULL keys, but probing for
// NULL never matches — not the NULLs the index holds under that key, nor
// beside other values, on the indexed table and on the scanned copy.
func TestNullProbesNeverMatch(t *testing.T) {
	e := planEngine(t)
	nulls := 0
	e.Database().Relation("R").Scan(func(tu storage.Tuple) bool {
		if tu.Values[1].IsNull() {
			nulls++
		}
		return true
	})
	if nulls == 0 {
		t.Fatal("fixture has no NULL k")
	}
	for _, table := range []string{"R", "U"} {
		for _, column := range []string{"k", "f", "s"} {
			t.Run(table+"/"+column, func(t *testing.T) {
				if got := probe(t, e, table, column, storage.Null); len(got.Rows) != 0 {
					t.Errorf("%s IN (NULL) returned %v, %+v", column, idColumn(got), got.Stats)
				}
				if column == "s" {
					return
				}
				with := probe(t, e, table, column, storage.Int(1), storage.Null, storage.Int(3))
				without := probe(t, e, table, column, storage.Int(1), storage.Int(3))
				if len(without.Rows) == 0 || !reflect.DeepEqual(idColumn(with), idColumn(without)) {
					t.Errorf("%s IN (1, NULL, 3) = %v, IN (1, 3) = %v", column, idColumn(with), idColumn(without))
				}
			})
		}
	}
	if with := probe(t, e, "R", "k", storage.Int(1), storage.Null, storage.Int(3)); with.Stats.IndexLookups != 3 {
		t.Errorf("k IN (1, NULL, 3) probed %d times, want 3", with.Stats.IndexLookups)
	}
}

// TestNumericLiteralsAcrossKinds: a probe converts its value to the column's
// type (ColType.Key) — an Int into a FLOAT column's Float up to 2^53, an
// integral Float into an INT column's Int — and matches nothing when it
// cannot. The indexed table and its unindexed copy return the same rows for
// every value kind.
func TestNumericLiteralsAcrossKinds(t *testing.T) {
	e := planEngine(t)
	i, f := storage.Int, storage.Float
	for _, tc := range []struct {
		col  string
		vals []storage.Value
	}{
		{"k", []storage.Value{f(1)}},
		{"k", []storage.Value{f(1.5)}},
		{"k", []storage.Value{f(1), i(2), f(2), f(3.5)}},
		{"f", []storage.Value{i(1)}},
		{"f", []storage.Value{f(1)}},
		{"f", []storage.Value{f(1.5)}},
		{"f", []storage.Value{i(1), f(2), f(2.5), i(2)}},
		{"f", []storage.Value{f(math.NaN()), f(math.Copysign(0, -1))}},
		{"f", []storage.Value{i(bigInt)}},
		{"k", []storage.Value{i(bigInt)}},
		{"f", []storage.Value{f(1 << 53), i(1)}},
		{"k", []storage.Value{f(1 << 53)}},
		{"k", []storage.Value{f(1 << 53), i(bigInt)}}, // Compare ties them; their keys differ
		{"f", []storage.Value{i(bigInt), f(1 << 53), storage.Null}},
		{"f", []storage.Value{f(math.Inf(-1))}},
	} {
		t.Run(fmt.Sprintf("%s IN %v", tc.col, tc.vals), func(t *testing.T) {
			indexed, scanned := probe(t, e, "R", tc.col, tc.vals...), probe(t, e, "U", tc.col, tc.vals...)
			if !reflect.DeepEqual(idColumn(indexed), idColumn(scanned)) {
				t.Errorf("%s IN %v: indexed %v, unindexed %v", tc.col, tc.vals, idColumn(indexed), idColumn(scanned))
			}
		})
	}
	if got := probe(t, e, "R", "k", f(1)); len(got.Rows) == 0 || got.Stats.Scanned != 0 {
		t.Errorf("k = 1.0 on the indexed column: %d rows, %+v", len(got.Rows), got.Stats)
	}
	if got := probe(t, e, "R", "f", i(1)); got.Stats.IndexLookups != 1 {
		t.Errorf("f = 1 counted %d index lookups, want one per value", got.Stats.IndexLookups)
	}
	if got := probe(t, e, "R", "f", i(bigInt)); len(got.Rows) != 0 {
		t.Errorf("f = 2^53+1 found %v, which no float64 holds", idColumn(got))
	}
	// A value with no key, Int(2^53+1) in f, is no key its successor repeats.
	if g, err := e.Probe("R", "f", []storage.Value{i(bigInt), f(1 << 53)}); err != nil || len(g.Group(0)) != 0 || len(g.Group(1)) != 2 {
		t.Errorf("Probe(f, 2^53+1, 2^53.0): %v, want no tuple and two", err)
	}
	if got, want := probe(t, e, "R", "k", f(1<<53)), probe(t, e, "R", "k", i(1<<53)); len(got.Rows) == 0 ||
		!reflect.DeepEqual(idColumn(got), idColumn(want)) {
		t.Errorf("k = 2^53.0 found %v, want the tuples holding Int(2^53), %v", idColumn(got), idColumn(want))
	}
}

// TestHashProbePlan pins the hash probe: one plan, index(Col), serves every
// projection, and the rows are what the tuple-reading reference projects:
// the stored values (Int(1) for `k = 1.0`), ascending ids, a repeated value's
// tuples once, and the same Stats with an id set to exclude beside the probe
// that excludes nothing.
func TestHashProbePlan(t *testing.T) {
	e := planEngine(t)
	rel := e.Database().Relation("R")
	i, f, null := storage.Int, storage.Float, storage.Null
	idK, onlyF := []string{"id", "k"}, []string{"f"}
	for _, tc := range []struct {
		name  string
		cols  []string
		col   string
		vals  []storage.Value
		limit int
		plan  accessKind
	}{
		{"equality", idK, "k", []storage.Value{i(3)}, -1, accessIndex},
		{"repeated values", idK, "k", []storage.Value{i(2), i(5), i(2), i(2)}, -1, accessIndex},
		{"k = 1.0 on an INT column", idK, "k", []storage.Value{f(1)}, -1, accessIndex},
		{"no such key", idK, "k", []storage.Value{f(1.5), i(99)}, -1, accessIndex},
		{"FLOAT column, Int probes converted", onlyF, "f", []storage.Value{i(1), f(2), f(2.5)}, -1, accessIndex},
		{"no column", []string{}, "f", []storage.Value{i(1), i(3)}, -1, accessIndex},
		{"column twice", []string{"k", "id", "k"}, "k", []storage.Value{i(1), i(7)}, -1, accessIndex},
		{"LIMIT", idK, "k", []storage.Value{i(1), i(2), i(3)}, 7, accessIndex},
		{"LIMIT 0", idK, "k", []storage.Value{i(1), i(2)}, 0, accessIndex},
		{"NULL in the list", idK, "k", []storage.Value{i(1), null, i(2)}, -1, accessIndex},
		{"another column", []string{"k", "y"}, "k", []storage.Value{i(3)}, -1, accessIndex},
		{"the other indexed column", onlyF, "k", []storage.Value{i(3)}, -1, accessIndex},
		{"SELECT *", nil, "k", []storage.Value{i(3)}, -1, accessIndex},
		{"the key", idK, "id", []storage.Value{i(3), f(7), i(500)}, -1, accessIndex},
		{"no values", idK, "k", nil, -1, accessIndex},
		{"a float at 2^53", idK, "k", []storage.Value{f(1 << 53), i(1)}, -1, accessIndex},
		{"unindexed", idK, "y", []storage.Value{i(7)}, -1, accessScan},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := &SelectStmt{Columns: tc.cols, Table: "R", Col: tc.col, Values: tc.vals, Limit: tc.limit}
			got, plan := checkSelect(t, e, st)
			if plan != tc.plan {
				t.Errorf("%s: plan %d, want %d", tc.name, plan, tc.plan)
			}
			read := *st
			read.Exclude = idSet{}
			if via, err := e.ExecStmt(&read); err != nil || via.Stats != got.Stats || !slices.Equal(via.RowIDs, got.RowIDs) {
				t.Errorf("%s: %v %+v, excluding nothing %v %+v (%v)", tc.name, got.RowIDs, got.Stats, via.RowIDs, via.Stats, err)
			}
		})
	}
	cols := []string{"id", "k"}
	all := probe(t, e, "R", "k", i(1), i(2))
	if len(all.Rows) < 2 {
		t.Fatalf("fixture has no k in (1, 2): %v", values(all.Rows))
	}

	// A deleted tuple leaves the posting lists with it; an updated one moves.
	victim, moved := all.RowIDs[0], all.RowIDs[1]
	if _, err := e.Database().Delete("R", victim); err != nil {
		t.Fatal(err)
	}
	old, _ := rel.Get(moved)
	vals := append([]storage.Value(nil), old.Values...)
	vals[rel.Schema().ColumnIndex("k")] = i(6)
	if err := e.Database().Update("R", moved, vals); err != nil {
		t.Fatal(err)
	}
	if after := probe(t, e, "R", "k", i(1), i(2)); !reflect.DeepEqual(after.RowIDs, all.RowIDs[2:]) {
		t.Errorf("after a delete and an update away: %v, want %v", after.RowIDs, all.RowIDs[2:])
	}
	six := &SelectStmt{Columns: cols, Table: "R", Col: "k", Values: []storage.Value{i(6)}, Limit: -1}
	if got, _ := checkSelect(t, e, six); !slices.Contains(got.RowIDs, moved) {
		t.Errorf("k = 6 after the update: %v lacks %d", got.RowIDs, moved)
	}
}

// TestRowIDListEntries pins what an id list does that a scan would not: it is
// visited in list order, a repeated id is emitted each time, an id that names
// no live tuple is skipped, and the caller's slice is neither copied into the
// result's order nor written. Col still applies to the listed tuples.
func TestRowIDListEntries(t *testing.T) {
	e := planEngine(t)
	all := tupleIDs(e, "R")
	a, b, c := all[5], all[2], all[9]
	if _, err := e.Database().Delete("R", c); err != nil {
		t.Fatal(err)
	}
	listed := []storage.TupleID{a, b, a, c, 1 << 40, 0, b}
	res, plan := checkSelect(t, e, &SelectStmt{Columns: []string{"id"}, Table: "R", IDs: listed, Limit: -1})
	if want := []storage.TupleID{a, b, a, b}; plan != accessRowID || !reflect.DeepEqual(res.RowIDs, want) ||
		!reflect.DeepEqual(listed, []storage.TupleID{a, b, a, c, 1 << 40, 0, b}) {
		t.Errorf("rowid IN <ids>: plan %d, rowids %v, want %v (list now %v)", plan, res.RowIDs, want, listed)
	}
	if res.Stats != (Stats{TupleReads: 4}) {
		t.Errorf("rowid IN <ids>: %+v, want 4 tuple reads", res.Stats)
	}
	// An empty list names no tuple; it is not the absence of one.
	if res, _ := checkSelect(t, e, &SelectStmt{Table: "R", IDs: []storage.TupleID{}, Limit: -1}); len(res.Rows) != 0 || res.Stats != (Stats{}) {
		t.Errorf("rowid IN (): %v, %+v", res.RowIDs, res.Stats)
	}
	// Col applies to the listed tuples.
	bk, _ := e.Database().Relation("R").Get(b)
	res, _ = checkSelect(t, e, &SelectStmt{Columns: []string{"id"}, Table: "R", IDs: []storage.TupleID{a, b, a, b}, Col: "id", Values: bk.Values[:1], Limit: -1})
	if want := []storage.TupleID{b, b}; !reflect.DeepEqual(res.RowIDs, want) || res.Stats.IndexLookups != 0 {
		t.Errorf("rowid list AND id = %v: %v %+v, want %v without a probe", bk.Values[0], res.RowIDs, res.Stats, want)
	}
}

// TestExclude holds the excluded id set on every access path — beside the
// listed ids, beside a hash probe, in a scan — to the reference, and a
// relation used as the set excludes exactly its own tuples.
func TestExclude(t *testing.T) {
	e := planEngine(t)
	rel := e.Database().Relation("R")
	ids := tupleIDs(e, "R")
	set := idSet{}
	for _, id := range append(tupleIDs(e, "U"), ids...) {
		if id%3 == 0 {
			set[id] = true
		}
	}
	one := []storage.Value{storage.Int(1), storage.Int(2)}
	for _, st := range []*SelectStmt{
		{Table: "R", Exclude: set, Limit: -1},
		{Table: "U", Exclude: set, Limit: -1},
		{Table: "R", Col: "k", Values: one, Exclude: set, Limit: -1},
		{Table: "U", Col: "k", Values: one, Exclude: set, Limit: -1},
		{Table: "R", IDs: ids[:40], Exclude: set, Limit: -1},
	} {
		t.Run(fmt.Sprintf("%s/%d", st.Table, planAccess(e.Database().Relation(st.Table), st)), func(t *testing.T) {
			got, _ := checkSelect(t, e, st)
			without := *st
			without.Exclude = nil
			all, _ := checkSelect(t, e, &without)
			if len(got.Rows) == 0 || len(got.Rows) == len(all.Rows) {
				t.Fatalf("the set is trivial here: %d rows of %d", len(got.Rows), len(all.Rows))
			}
			for _, id := range got.RowIDs {
				if set[id] {
					t.Errorf("returned excluded tuple %d", id)
				}
			}
		})
	}
	if got, _ := checkSelect(t, e, &SelectStmt{Table: "R", Exclude: rel, Limit: -1}); len(got.Rows) != 0 {
		t.Errorf("rowid NOT IN <R itself> returned %d rows", len(got.Rows))
	}
}

// pathCases is one statement per access path and table of planEngine: a scan
// of R and of U, unfiltered and checking a column; a probe of R's index on k,
// beside an id set to exclude; and a shuffled id list with repeats on R and U,
// alone and checking a column.
func pathCases(e *Engine) []struct {
	name string
	st   SelectStmt
} {
	i := storage.Int
	list := func(table string) []storage.TupleID {
		ids := tupleIDs(e, table)
		return []storage.TupleID{ids[9], ids[3], ids[9], ids[40], ids[1], ids[17], ids[3], ids[60], ids[2], ids[33], ids[8]}
	}
	half := idSet{}
	for j, id := range tupleIDs(e, "R") {
		half[id] = j%2 == 1
	}
	ys := []storage.Value{i(3), i(7), i(11), i(20), i(29), i(41)}
	ks := []storage.Value{i(1), i(2), i(4)}
	return []struct {
		name string
		st   SelectStmt
	}{
		{"R/scan", SelectStmt{Table: "R"}},
		{"U/scan", SelectStmt{Table: "U"}},
		{"R/scan on y", SelectStmt{Table: "R", Col: "y", Values: ys}},
		{"U/scan on k", SelectStmt{Table: "U", Col: "k", Values: ks}},
		{"R/index", SelectStmt{Table: "R", Col: "k", Values: ks, Exclude: half}},
		{"R/rowid", SelectStmt{Table: "R", IDs: list("R")}},
		{"U/rowid", SelectStmt{Table: "U", IDs: list("U")}},
		{"R/rowid on k", SelectStmt{Table: "R", IDs: list("R"), Col: "k", Values: ks}},
	}
}

// TestLimitCountsKeptTuples: LIMIT cuts the tuples a statement keeps, not the
// candidates it visits — NaïveQ's top-k is taken after the tuples already in
// D′ are excluded. On every access path the first and third tuples the
// statement keeps are excluded, and the limit still fills from the rest.
func TestLimitCountsKeptTuples(t *testing.T) {
	e := planEngine(t)
	for _, tc := range pathCases(e) {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.st
			st.Limit = -1
			all, _ := checkSelect(t, e, &st)
			if st.Col != "" && (st.IDs != nil && len(all.RowIDs) == len(st.IDs) || st.IDs == nil && len(all.RowIDs) == e.Database().Relation(st.Table).Len()) {
				t.Fatalf("%s: Col refuses no candidate", tc.name)
			}
			set := idSet{all.RowIDs[0]: true, all.RowIDs[2]: true}
			if prev, ok := st.Exclude.(idSet); ok {
				for id, out := range prev {
					set[id] = set[id] || out
				}
			}
			var want []storage.TupleID
			for _, id := range all.RowIDs {
				if !set[id] && len(want) < 4 {
					want = append(want, id)
				}
			}
			if len(want) < 4 {
				t.Fatalf("%s: only %d tuples left past the excluded ones", tc.name, len(want))
			}
			st.Exclude, st.Limit = set, 4
			if got, _ := checkSelect(t, e, &st); !slices.Equal(got.RowIDs, want) {
				t.Errorf("%s LIMIT 4 excluding %v: %v, want %v", tc.name, []storage.TupleID{all.RowIDs[0], all.RowIDs[2]}, got.RowIDs, want)
			}
		})
	}
}

// TestIDsThenFetch: the weighted NaïveQ reads in two steps. A statement that
// selects no column returns the ids the full statement keeps, with empty rows;
// a fetch of some of them, in an order of the caller's, returns the rows the
// full statement returned for those ids, in that order. Every access path of
// the first step is tried.
func TestIDsThenFetch(t *testing.T) {
	e := planEngine(t)
	for _, tc := range pathCases(e) {
		t.Run(tc.name, func(t *testing.T) {
			full := tc.st
			full.Limit = -1
			idsOnly := full
			idsOnly.Columns = []string{}
			rows, ids := query(t, e, &full), query(t, e, &idsOnly)
			if len(rows.RowIDs) < 2 || !slices.Equal(ids.RowIDs, rows.RowIDs) || len(ids.Columns) != 0 || len(ids.Rows) != len(ids.RowIDs) || ids.Stats != rows.Stats {
				t.Fatalf("%s: ids only %v %v %+v, the full statement %v %+v", tc.name, ids.Columns, ids.RowIDs, ids.Stats, rows.RowIDs, rows.Stats)
			}
			for _, row := range ids.Rows {
				if row.Len() != 0 {
					t.Fatalf("%s: an ids-only row holds %v", tc.name, row.Values())
				}
			}
			byID := map[storage.TupleID][]storage.Value{}
			for j, id := range rows.RowIDs {
				byID[id] = rows.Rows[j].Values()
			}
			var pick []storage.TupleID // every other id, last first
			for j := len(ids.RowIDs) - 1; j >= 0; j -= 2 {
				pick = append(pick, ids.RowIDs[j])
			}
			got := query(t, e, &SelectStmt{Table: tc.st.Table, IDs: pick, Limit: -1})
			if !slices.Equal(got.RowIDs, pick) {
				t.Fatalf("%s: fetched %v, want %v", tc.name, got.RowIDs, pick)
			}
			for j, id := range pick {
				if v := got.Rows[j].Values(); !reflect.DeepEqual(v, byID[id]) {
					t.Errorf("%s: tuple %d fetched as %v, the full statement read %v", tc.name, id, v, byID[id])
				}
			}
		})
	}
}

// TestBlockLookupsMatchReference holds the one gather loop behind a hash probe
// and Probe — Relation.AppendLookups, a block of values at a time, each
// converted to the column's type — to the reference scan, on an INT and on a FLOAT column, with
// lists of every length around the block size: `1` and `1.0` alternating, a
// value the FLOAT column was given as both kinds, absent values, NULLs and
// Compare-equal twins in the list, and a float at 2^53. The counted work is a
// lookup per listed value and a read per tuple found.
func TestBlockLookupsMatchReference(t *testing.T) {
	db := storage.NewDatabase("blocks")
	rel := db.MustCreateRelation(storage.MustSchema("W", "id", storage.Column{Name: "id", Type: storage.TypeInt},
		storage.Column{Name: "k", Type: storage.TypeInt}, storage.Column{Name: "f", Type: storage.TypeFloat}))
	for i := 0; i < 700; i++ {
		k, f := storage.Int(int64(i%130)), storage.Int(int64(i%130))
		switch i % 7 {
		case 0, 1, 2:
			f = storage.Float(float64(i % 130)) // i%130 meets every residue of 7: each value is given as both kinds
		case 3:
			f = storage.Float(float64(i%130) + 0.5)
		case 4:
			k, f = storage.Null, storage.Null
		}
		if _, err := db.Insert("W", storage.Int(int64(i)), k, f); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []string{"k", "f"} {
		if err := rel.CreateIndex(c); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(db)
	ref := func(column string, vals ...storage.Value) []storage.TupleID {
		ids, _, err := refSelect(rel, &SelectStmt{Columns: []string{}, Table: "W", Col: column, Values: vals, Limit: -1})
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}
	r := rand.New(rand.NewSource(3))
	const lookupBlock = 32 // the lookups a storage.HashIndex resolves together
	for _, n := range []int{0, 1, lookupBlock - 1, lookupBlock, lookupBlock + 1, 3 * lookupBlock, 140} {
		// n ascending values from -2 (absent) up, the odd ones as floats.
		values := make([]storage.Value, n)
		for i := range values {
			if values[i] = storage.Int(int64(i - 2)); i%2 == 1 {
				values[i] = storage.Float(float64(i - 2))
			}
		}
		twins := slices.Clone(values)
		for i := 0; i < len(twins); i += 5 { // Int(j) then Float(j), or the reverse, and j + ½
			twins = slices.Insert(twins, i+1, storage.Float(twins[i].AsFloat()), storage.Float(twins[i].AsFloat()+0.5))
		}
		lists := [][]storage.Value{values, twins, append([]storage.Value{storage.Null, storage.Null}, values...)}
		for li, list := range lists {
			for _, column := range []string{"k", "f"} {
				wantStats := func(found int) Stats { return Stats{IndexLookups: len(list), TupleReads: found} }
				groups, err := e.Probe("W", column, list)
				if err != nil {
					t.Fatal(err)
				}
				total := 0
				for i, v := range list {
					var want []storage.TupleID
					if i == 0 || v.Compare(list[i-1]) != 0 {
						want = ref(column, v)
					}
					if got := groups.Group(i); !slices.Equal(got, want) {
						t.Fatalf("Probe(%s, list %d of %d): group %d (%s %s) = %v, want %v", column, li, n, i, v.Kind(), v, got, want)
					}
					total += len(want)
				}
				if groups.Stats != wantStats(total) {
					t.Errorf("Probe(%s, list %d of %d): %+v, want %+v", column, li, n, groups.Stats, wantStats(total))
				}

				shuffled := slices.Clone(list) // a statement takes any order, and repeats
				r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				for _, vals := range [][]storage.Value{list, append(shuffled, list...)} {
					want := ref(column, vals...)
					got := probe(t, e, "W", column, vals...)
					if !slices.Equal(got.RowIDs, want) {
						t.Fatalf("%s IN (list %d of %d values): %v, want %v", column, li, len(vals), got.RowIDs, want)
					}
					if ws := (Stats{IndexLookups: len(vals), TupleReads: len(want)}); got.Stats != ws {
						t.Errorf("%s IN (list %d of %d values): %+v, want %+v", column, li, len(vals), got.Stats, ws)
					}
				}

				beyond := append(slices.Clone(list), storage.Float(1<<53))
				want := ref(column, beyond...)
				looked := Stats{IndexLookups: len(beyond), TupleReads: len(want)}
				if got := probe(t, e, "W", column, beyond...); !slices.Equal(got.RowIDs, want) || got.Stats != looked {
					t.Errorf("%s IN (…, 2^53): %d rows %+v, want %d rows %+v", column, len(got.RowIDs), got.Stats, len(want), looked)
				}
				if groups, err = e.Probe("W", column, beyond); err != nil || groups.Stats != looked || len(groups.IDs) != len(want) {
					t.Errorf("Probe(%s, …, 2^53): %+v (%v), want %+v", column, groups.Stats, err, looked)
				}
			}
		}
	}
	if asInt, _ := rel.Lookup("f", storage.Int(5)); len(asInt) == 0 {
		t.Fatal("fixture: no value of f was given as an integer")
	} else if asFloat, _ := rel.Lookup("f", storage.Float(5)); !slices.Equal(asInt, asFloat) {
		t.Fatalf("fixture: f = 5 finds %v, f = 5.0 finds %v", asInt, asFloat)
	}
}
