package sqlx

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"precis/internal/storage"
)

// idSet is a map-backed IDSet.
type idSet map[storage.TupleID]bool

func (s idSet) Has(id storage.TupleID) bool { return s[id] }

// planEngine builds two copies of one table: R with a primary key and hash
// indexes on k and f; U with no key and no index, so every statement on it
// scans. k, f and s hold NULLs; f holds both Int and Float values (a FLOAT
// column accepts both), some numerically equal.
func planEngine(t testing.TB) *Engine {
	t.Helper()
	db := storage.NewDatabase("plan")
	cols := []storage.Column{{Name: "id", Type: storage.TypeInt}, {Name: "k", Type: storage.TypeInt},
		{Name: "f", Type: storage.TypeFloat}, {Name: "y", Type: storage.TypeInt}, {Name: "s", Type: storage.TypeString}}
	db.MustCreateRelation(storage.MustSchema("R", "id", cols...))
	db.MustCreateRelation(storage.MustSchema("U", "", cols...))
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
		for _, table := range []string{"R", "U"} {
			if _, err := db.Insert(table, storage.Int(int64(i)), k, fv, storage.Int(int64(r.Intn(50))), s); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []string{"k", "f"} {
		if err := db.Relation("R").CreateIndex(c); err != nil {
			t.Fatal(err)
		}
	}
	return NewEngine(db)
}

// selectWhere runs SELECT id FROM table WHERE where and checks that the
// execution's counters show the access path planAccess picks.
func selectWhere(t *testing.T, e *Engine, table string, where Expr) *Result {
	t.Helper()
	res, _ := plannedSelect(t, e, &SelectStmt{Columns: []string{"id"}, Table: table, Where: where, Limit: -1})
	return res
}

// plannedSelect runs st and checks that the execution's counters show the
// access path planAccess picks for it, which it returns.
func plannedSelect(t testing.TB, e *Engine, st *SelectStmt) (*Result, accessPlan) {
	t.Helper()
	res, err := e.ExecStmt(st)
	if err != nil {
		t.Fatalf("%s WHERE %s: %v", st.Table, exprString(st.Where), err)
	}
	rel := e.Database().Relation(st.Table)
	plan, s := planAccess(rel, st), res.Stats
	ok := false
	switch plan.kind {
	case accessScan:
		// A LIMIT reached stops the scan early.
		ok = s.IndexLookups == 0 && (s.Scanned == rel.Len() || len(res.Rows) == st.Limit)
	case accessRowID:
		ok = s.IndexLookups == 0 && s.Scanned == 0 && s.TupleReads <= len(plan.ids)
	case accessIndex:
		ok = s.IndexLookups == plan.vals.len() && s.Scanned == 0
	}
	if !ok {
		t.Fatalf("%s WHERE %s: plan %d on %q, execution did %+v", st.Table, exprString(st.Where), plan.kind, plan.col, s)
	}
	return res, plan
}

func col(name string) *ColumnRef { return &ColumnRef{Name: name} }

func in(left Expr, vals ...storage.Value) *InList { return &InList{Left: left, Values: vals} }

func eq(left Expr, v storage.Value) *Compare {
	return &Compare{Op: OpEq, Left: left, Right: &Literal{Value: v}}
}

func and(l, r Expr) *Logical { return &Logical{And: true, Left: l, Right: r} }

func or(l, r Expr) *Logical { return &Logical{Left: l, Right: r} }

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

// decodeSelect decodes a SELECT on table, one of R and U, whose tuples are
// ids: *, or a projection of up to three columns (rowid among them), with a
// LIMIT or none, over a decodePredicate where tree or none.
func decodeSelect(c *choices, table string, ids []storage.TupleID) *SelectStmt {
	st := &SelectStmt{Table: table, Limit: -1}
	for n := c.intn(4); n > 0; n-- {
		st.Columns = append(st.Columns, decodeColumn(c))
	}
	if c.intn(3) == 0 {
		st.Limit = c.intn(64)
	}
	if c.intn(8) > 0 {
		st.Where = decodePredicate(c, ids, 3)
	}
	return st
}

// decodeColumn decodes a column of R/U or the rowid; one time in sixteen, a
// column neither has.
func decodeColumn(c *choices) string {
	names := []string{RowIDColumn, "id", "k", "f", "y", "s"}
	if i := c.intn(32); i < 30 {
		return names[i%len(names)]
	}
	return "nope"
}

// decodePredicate decodes a where tree over R/U's columns: probes with NULLs,
// repeated values and Int/Float literals of either kind, comparisons of every
// operator on any column (rowid and an unknown one included), id sets and
// rowid lists, under AND / OR / NOT. rowid lists are ascending and distinct,
// where list order and scan order coincide.
func decodePredicate(c *choices, ids []storage.TupleID, depth int) Expr {
	num := func() storage.Value {
		switch c.intn(8) {
		case 0:
			return storage.Null
		case 1:
			return storage.Float(float64(c.intn(8)))
		case 2:
			return storage.Float(float64(c.intn(8)) + 0.5)
		default:
			return storage.Int(int64(c.intn(8)))
		}
	}
	nums := func() []storage.Value {
		vals := make([]storage.Value, 1+c.intn(4))
		for i := range vals {
			vals[i] = num()
		}
		return vals
	}
	if depth > 0 {
		switch c.intn(6) {
		case 2:
			return or(decodePredicate(c, ids, depth-1), decodePredicate(c, ids, depth-1))
		case 3:
			return &Not{Inner: decodePredicate(c, ids, depth-1)}
		case 4, 5:
			return and(decodePredicate(c, ids, depth-1), decodePredicate(c, ids, depth-1))
		}
	}
	switch c.intn(7) {
	case 0:
		return eq(col("k"), num())
	case 1:
		return &InList{Left: col("k"), Values: nums(), Not: c.intn(4) == 0}
	case 2:
		return &Compare{Op: OpEq, Left: &Literal{Value: num()}, Right: col("f")}
	case 3:
		return in(col("f"), nums()...)
	case 4:
		return &Compare{Op: CompareOp(c.intn(6)), Left: col(decodeColumn(c)), Right: &Literal{Value: storage.Int(int64(c.intn(50)))}}
	case 5:
		set, m := idSet{}, 2+c.intn(4)
		r := c.intn(m)
		for _, id := range ids {
			if int(id)%m == r {
				set[id] = true
			}
		}
		return &RowIDInSet{Set: set, Not: c.intn(2) == 0}
	default:
		var listed []storage.TupleID
		for n := c.intn(6); n > 0; n-- {
			listed = append(listed, ids[c.intn(len(ids))])
		}
		slices.Sort(listed)
		listed = slices.Compact(listed)
		if c.intn(2) == 0 {
			return &RowIDIn{IDs: listed}
		}
		vals := []storage.Value{}
		for _, id := range listed {
			vals = append(vals, storage.Int(int64(id)))
		}
		return in(col(RowIDColumn), append(vals, storage.Int(1<<40))...) // the last names no tuple
	}
}

// checkSelect holds st to the reference executor's full scan: the same ids
// and values, cut to the limit, or, when it names a column the table lacks,
// the same error. It returns the result, nil for an error, and the plan.
func checkSelect(t testing.TB, e *Engine, st *SelectStmt) (*Result, accessPlan) {
	t.Helper()
	rel := e.Database().Relation(st.Table)
	cols := st.Columns
	if cols == nil {
		cols = rel.Schema().ColumnNames()
	}
	wantIDs, wantRows, wantErr := refSelectRows(rel, st.Where, cols)
	if wantErr != nil {
		if _, err := e.ExecStmt(st); err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("SELECT %v FROM %s WHERE %s: error %v, want %v", st.Columns, st.Table, exprString(st.Where), err, wantErr)
		}
		return nil, accessPlan{}
	}
	got, plan := plannedSelect(t, e, st)
	if st.Limit >= 0 && len(wantIDs) > st.Limit {
		wantIDs, wantRows = wantIDs[:st.Limit], wantRows[:st.Limit]
	}
	if len(wantRows) == 0 {
		wantRows = nil
	}
	if !slices.Equal(got.RowIDs, wantIDs) || !reflect.DeepEqual(values(got.Rows), wantRows) {
		t.Fatalf("SELECT %v FROM %s WHERE %s LIMIT %d (plan %d):\n got  %v %v\n want %v %v",
			st.Columns, st.Table, exprString(st.Where), st.Limit, plan.kind, got.RowIDs, values(got.Rows), wantIDs, wantRows)
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

// TestSelectMatchesReferenceScan holds every access path — rowid fetch, hash
// probe (with and without its conjunct compiled out, under any projection),
// scan — to the rows the reference executor's full scan returns, on the
// indexed table and on its unindexed copy, over seeded random byte strings
// decoded as FuzzSelect decodes them.
func TestSelectMatchesReferenceScan(t *testing.T) {
	e := planEngine(t)
	r := rand.New(rand.NewSource(11))
	for _, table := range []string{"R", "U"} {
		t.Run(table, func(t *testing.T) {
			ids := tupleIDs(e, table)
			plans := map[accessKind]int{}
			errs := 0
			for trial := 0; trial < 3000; trial++ {
				c := make(choices, 96)
				r.Read(c)
				if res, plan := checkSelect(t, e, decodeSelect(&c, table, ids)); res != nil {
					plans[plan.kind]++
				} else {
					errs++
				}
			}
			wantPlans := []accessKind{accessScan}
			if table == "R" {
				wantPlans = []accessKind{accessScan, accessIndex, accessRowID}
			}
			for _, p := range wantPlans {
				if plans[p] == 0 {
					t.Errorf("%s: no generated statement took plan %d (%v)", table, p, plans)
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
	e := planEngine(f)
	ids := map[string][]storage.TupleID{"R": tupleIDs(e, "R"), "U": tupleIDs(e, "U")}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := choices(data)
		table := []string{"R", "U"}[c.intn(2)]
		checkSelect(t, e, decodeSelect(&c, table, ids[table]))
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

// TestNullProbesNeverMatch: the hash index stores NULL keys, but `k = NULL`
// and `k IN (…, NULL, …)` never match — the probe's conjunct must stay in the
// per-tuple check whenever its list holds a NULL.
func TestNullProbesNeverMatch(t *testing.T) {
	e := planEngine(t)
	if nulls, _ := e.Database().Relation("R").Lookup("k", storage.Null); len(nulls) == 0 {
		t.Fatal("fixture has no NULL k")
	}
	for _, column := range []string{"k", "f"} {
		t.Run(column, func(t *testing.T) {
			if got := selectWhere(t, e, "R", eq(col(column), storage.Null)); len(got.Rows) != 0 || got.Stats.IndexLookups != 1 {
				t.Errorf("%s = NULL returned %v, %+v", column, idColumn(got), got.Stats)
			}
			if got := selectWhere(t, e, "R", in(col(column), storage.Null)); len(got.Rows) != 0 {
				t.Errorf("%s IN (NULL) returned %v", column, idColumn(got))
			}
			with := selectWhere(t, e, "R", in(col(column), storage.Int(1), storage.Null, storage.Int(3)))
			without := selectWhere(t, e, "R", in(col(column), storage.Int(1), storage.Int(3)))
			if len(without.Rows) == 0 || !reflect.DeepEqual(idColumn(with), idColumn(without)) {
				t.Errorf("%s IN (1, NULL, 3) = %v, IN (1, 3) = %v", column, idColumn(with), idColumn(without))
			}
			if with.Stats.IndexLookups != 3 {
				t.Errorf("%s IN (1, NULL, 3) probed %d times, want 3", column, with.Stats.IndexLookups)
			}
		})
	}
}

// TestNumericLiteralsAcrossKinds: Value.Equal compares Int and Float
// numerically while the hash index keys on exact values, so a probe must
// look up every representation the column can store. The indexed table and
// its unindexed copy return the same rows for every literal kind.
func TestNumericLiteralsAcrossKinds(t *testing.T) {
	e := planEngine(t)
	i, f := storage.Int, storage.Float
	for _, where := range []Expr{
		eq(col("k"), f(1)),
		eq(col("k"), f(1.5)),
		in(col("k"), f(1), i(2), f(2), f(3.5)),
		eq(col("f"), i(1)),
		eq(col("f"), f(1)),
		eq(col("f"), f(1.5)),
		in(col("f"), i(1), f(2), f(2.5), i(2)),
		in(col("f"), f(1<<53), i(1)), // beyond exact floats: left to the scan
		and(eq(col("f"), i(3)), in(col("k"), f(0), f(1), f(2))),
	} {
		t.Run(exprString(where), func(t *testing.T) {
			indexed, scanned := selectWhere(t, e, "R", where), selectWhere(t, e, "U", where)
			if !reflect.DeepEqual(idColumn(indexed), idColumn(scanned)) {
				t.Errorf("WHERE %s: indexed %v, unindexed %v", exprString(where), idColumn(indexed), idColumn(scanned))
			}
		})
	}
	if got := selectWhere(t, e, "R", eq(col("k"), f(1))); len(got.Rows) == 0 || got.Stats.Scanned != 0 {
		t.Errorf("k = 1.0 on the indexed column: %d rows, %+v", len(got.Rows), got.Stats)
	}
	if got := selectWhere(t, e, "R", eq(col("f"), i(1))); got.Stats.IndexLookups != 1 {
		t.Errorf("f = 1 counted %d index lookups, want one per literal", got.Stats.IndexLookups)
	}
}

// TestHashProbePlan pins the hash probe on the statements an index alone
// could answer — the probed conjunct is the whole WHERE clause, every output
// column rowid or the probed column — and beside them the ones it never
// could: one plan, index(col), serves them all (the posting-list reader is
// Engine.Probe, not a SELECT plan), and the rows are what the tuple-reading
// oracle projects: the stored values (Int(1) for `k = 1.0`), ascending ids, a
// repeated value's tuples once, the same Stats whatever sits beside the
// probed conjunct.
func TestHashProbePlan(t *testing.T) {
	e := planEngine(t)
	rel := e.Database().Relation("R")
	i, f, null := storage.Int, storage.Float, storage.Null
	rowidK, onlyF := []string{RowIDColumn, "k"}, []string{"f"}
	for _, tc := range []struct {
		name   string
		cols   []string
		where  Expr
		limit  int
		col    string // the probed column, "" for a scan
		probes int
	}{
		{"equality", rowidK, eq(col("k"), i(3)), -1, "k", 1},
		{"literal on the left", []string{"k"}, &Compare{Op: OpEq, Left: &Literal{Value: i(3)}, Right: col("k")}, -1, "k", 1},
		{"repeated IN values", rowidK, in(col("k"), i(2), i(5), i(2), i(2)), -1, "k", 4},
		{"k = 1.0 on an INT column", rowidK, eq(col("k"), f(1)), -1, "k", 1},
		{"no such key", rowidK, in(col("k"), f(1.5), i(99)), -1, "k", 2},
		{"FLOAT column, two keys per literal", onlyF, in(col("f"), i(1), f(2), f(2.5)), -1, "f", 3},
		{"rowid alone", []string{RowIDColumn}, in(col("f"), i(1), i(3)), -1, "f", 2},
		{"column twice", []string{"k", RowIDColumn, "k"}, in(col("k"), i(1), i(7)), -1, "k", 2},
		{"LIMIT", rowidK, in(col("k"), i(1), i(2), i(3)), 7, "k", 3},
		{"LIMIT 0", rowidK, in(col("k"), i(1), i(2)), 0, "k", 2},
		// The conjunct is re-checked, or the index lacks a column.
		{"NULL in the list", rowidK, in(col("k"), i(1), null, i(2)), -1, "k", 3},
		{"k = NULL", rowidK, eq(col("k"), null), -1, "k", 1},
		{"another conjunct", rowidK, and(eq(col("k"), i(3)), eq(col("y"), i(7))), -1, "k", 1},
		{"an id set beside it", rowidK, and(in(col("k"), i(1), i(2)), &RowIDInSet{Set: idSet{}, Not: true}), -1, "k", 2},
		{"another column", []string{"k", "y"}, eq(col("k"), i(3)), -1, "k", 1},
		{"the other indexed column", []string{"f"}, eq(col("k"), i(3)), -1, "k", 1},
		{"SELECT *", nil, eq(col("k"), i(3)), -1, "k", 1},
		{"beyond exact floats", rowidK, in(col("k"), f(1<<53), i(1)), -1, "", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := &SelectStmt{Columns: tc.cols, Table: "R", Where: tc.where, Limit: tc.limit}
			got, plan := checkSelect(t, e, st)
			if plan.col != tc.col || plan.vals.len() != tc.probes || (plan.kind == accessIndex) != (tc.col != "") {
				t.Errorf("%s: plan %d on %q with %d probes, want %q with %d", tc.name, plan.kind, plan.col, plan.vals.len(), tc.col, tc.probes)
			}
			// The same statement with an always-true second conjunct does the
			// same counted work.
			read := *st
			read.Where = and(tc.where, &RowIDInSet{Set: idSet{}, Not: true})
			if via, err := e.ExecStmt(&read); err != nil || via.Stats != got.Stats {
				t.Errorf("%s: stats %+v, with a second conjunct %+v (%v)", tc.name, got.Stats, via.Stats, err)
			}
		})
	}
	all := query(t, e, rowidK, "R", in(col("k"), i(1), i(2)), -1)
	if len(all.Rows) < 2 || all.Rows[0].Value(1).Kind() != storage.KindInt {
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
	after := query(t, e, rowidK, "R", in(col("k"), i(1), i(2)), -1)
	if !reflect.DeepEqual(after.RowIDs, all.RowIDs[2:]) {
		t.Errorf("after a delete and an update away: %v, want %v", after.RowIDs, all.RowIDs[2:])
	}
	_, wantRows, _ := refSelectRows(rel, eq(col("k"), i(6)), rowidK)
	if six := query(t, e, rowidK, "R", eq(col("k"), i(6)), -1); !reflect.DeepEqual(values(six.Rows), wantRows) || !slices.Contains(six.RowIDs, moved) {
		t.Errorf("k = 6 after the update: %v, want %v", values(six.Rows), wantRows)
	}
}

// TestRowIDListEntries pins what a rowid list does with entries a scan would
// treat differently: it is visited in list order, a repeated id is emitted
// each time, and entries that are not integers name no tuple.
func TestRowIDListEntries(t *testing.T) {
	e := planEngine(t)
	all := query(t, e, []string{RowIDColumn, "id"}, "R", nil, -1)
	a, b := all.RowIDs[5], all.RowIDs[2]
	res := selectWhere(t, e, "R", in(col(RowIDColumn),
		storage.Int(int64(a)), storage.Int(int64(b)), storage.Int(int64(a)),
		storage.Float(float64(all.RowIDs[3])), storage.String("x"), storage.Null, storage.Int(1<<40)))
	if want := []storage.TupleID{a, b, a}; !reflect.DeepEqual(res.RowIDs, want) {
		t.Errorf("rowids %v, want %v", res.RowIDs, want)
	}
	if res := selectWhere(t, e, "R", eq(col(RowIDColumn), storage.Float(float64(a)))); len(res.Rows) != 0 {
		t.Errorf("rowid = %d.0 returned %v", a, res.RowIDs)
	}
	// The same list carried as ids: same order, same repeats, and the caller's
	// slice is neither copied nor written.
	listed := []storage.TupleID{a, b, a, 1 << 40}
	res = selectWhere(t, e, "R", &RowIDIn{IDs: listed})
	if want := []storage.TupleID{a, b, a}; !reflect.DeepEqual(res.RowIDs, want) || !reflect.DeepEqual(listed, []storage.TupleID{a, b, a, 1 << 40}) {
		t.Errorf("rowid IN <ids>: rowids %v, want %v (list now %v)", res.RowIDs, want, listed)
	}
	if got, ok := RowIDOrder(and(eq(col("id"), storage.Int(2)), &RowIDIn{IDs: listed})); !ok || &got[0] != &listed[0] {
		t.Errorf("RowIDOrder copied the id list: %v, %v", got, ok)
	}
	// The rest of the predicate still applies to the listed tuples.
	res = selectWhere(t, e, "R", and(in(col(RowIDColumn), storage.Int(int64(a)), storage.Int(int64(b))), eq(col("id"), storage.Int(2))))
	if want := []storage.TupleID{b}; !reflect.DeepEqual(res.RowIDs, want) {
		t.Errorf("rowid list AND id = 2: %v, want %v", res.RowIDs, want)
	}
}

// TestWithRowIDs: the conjunct RowIDOrder reads — and only it, the first when
// two list ids — is replaced by the given list, whatever its spelling and
// depth; the clause handed in is left as it was, and one without such a
// conjunct comes back itself.
func TestWithRowIDs(t *testing.T) {
	e := planEngine(t)
	all := query(t, e, []string{RowIDColumn, "id"}, "R", nil, -1)
	a, b, c := all.RowIDs[5], all.RowIDs[2], all.RowIDs[7]
	narrow := []storage.TupleID{b, b, 1 << 40}
	other := in(col("id"), storage.Int(2), storage.Int(5), storage.Int(7))
	second := &RowIDIn{IDs: []storage.TupleID{a, b}}
	spellings := map[string]Expr{
		"ids":     &RowIDIn{IDs: []storage.TupleID{a, b, c}},
		"IN":      in(col(RowIDColumn), storage.Int(int64(a)), storage.Int(int64(b)), storage.Int(int64(c))),
		"=":       eq(col(RowIDColumn), storage.Int(int64(a))),
		"flipped": &Compare{Op: OpEq, Left: &Literal{Value: storage.Int(int64(a))}, Right: col(RowIDColumn)},
	}
	for name, conj := range spellings {
		t.Run(name, func(t *testing.T) {
			for _, where := range []Expr{conj, and(conj, other), and(other, conj), and(and(other, conj), second), and(other, and(conj, second))} {
				before := exprString(where)
				got := WithRowIDs(where, narrow)
				if ids, ok := RowIDOrder(got); !ok || !slices.Equal(ids, narrow) || (len(ids) > 0 && &ids[0] != &narrow[0]) {
					t.Errorf("%s: %s narrowed to %s: RowIDOrder reads %v", name, before, exprString(got), ids)
				}
				if exprString(where) != before {
					t.Errorf("%s: WithRowIDs wrote its argument: %s, was %s", name, exprString(where), before)
				}
				want := strings.Replace(before, exprString(conj), exprString(&RowIDIn{IDs: narrow}), 1)
				if exprString(got) != want {
					t.Errorf("%s: %s narrowed to %s, want %s", name, before, exprString(got), want)
				}
				// The narrowed clause selects what the original does of the narrow list.
				res := selectWhere(t, e, "R", got)
				for _, id := range res.RowIDs {
					if id != b {
						t.Errorf("%s: %s returned tuple %d", name, exprString(got), id)
					}
				}
			}
		})
	}
	for _, where := range []Expr{nil, other, &Logical{Left: spellings["ids"], Right: other}, &Not{Inner: spellings["ids"]}} {
		if got := WithRowIDs(where, narrow); got != where {
			t.Errorf("no rowid conjunct in %v, yet it became %v", where, got)
		}
	}
}

// TestRowIDInSet exercises the id-set predicate wherever it can sit: beside
// an index probe whose own conjunct is compiled out, alone, under NOT, and
// under OR, where it is not a top-level conjunct.
func TestRowIDInSet(t *testing.T) {
	e := planEngine(t)
	rel := e.Database().Relation("R")
	set := idSet{}
	rel.Scan(func(tu storage.Tuple) bool {
		if tu.ID%3 == 0 {
			set[tu.ID] = true
		}
		return true
	})
	inSet, notInSet := &RowIDInSet{Set: set}, &RowIDInSet{Set: set, Not: true}
	probe := in(col("k"), storage.Int(1), storage.Int(2))
	for _, where := range []Expr{
		inSet,
		notInSet,
		and(probe, notInSet),
		and(notInSet, probe),
		&Not{Inner: inSet},
		and(probe, &Not{Inner: notInSet}),
		or(inSet, eq(col("k"), storage.Int(1))),
		and(probe, or(notInSet, eq(col("y"), storage.Int(7)))),
	} {
		t.Run(exprString(where), func(t *testing.T) {
			want, err := refSelectIDs(rel, where)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || len(want) == rel.Len() {
				t.Fatalf("WHERE %s is trivial on the fixture (%d rows)", exprString(where), len(want))
			}
			if got := selectWhere(t, e, "R", where); !reflect.DeepEqual(got.RowIDs, want) {
				t.Errorf("WHERE %s:\n got  %v\n want %v", exprString(where), got.RowIDs, want)
			}
		})
	}
	// A relation is an id set: NOT IN it excludes exactly its own tuples.
	got := selectWhere(t, e, "R", &RowIDInSet{Set: rel, Not: true})
	if len(got.Rows) != 0 {
		t.Errorf("rowid NOT IN <R itself> returned %d rows", len(got.Rows))
	}
	if got := exprString(and(probe, notInSet)); got != "(k IN (1, 2) AND rowid NOT IN <id set>)" {
		t.Errorf("exprString = %q", got)
	}
	if _, err := e.ExecStmt(&SelectStmt{Table: "R", Where: &RowIDInSet{}, Limit: -1}); err == nil {
		t.Error("id-set predicate without a set accepted")
	}
}

// TestMalformedPredicateRejectedUpFront: a tree with a scalar in boolean
// position fails when the statement is compiled, not at the first tuple it
// happens to reach.
func TestMalformedPredicateRejectedUpFront(t *testing.T) {
	e := planEngine(t)
	for _, where := range []Expr{
		col("k"),
		and(eq(col("k"), storage.Int(-1)), &Literal{Value: storage.Bool(true)}),
		&Compare{Op: OpEq, Left: eq(col("k"), storage.Int(1)), Right: col("k")},
	} {
		t.Run(exprString(where), func(t *testing.T) {
			if _, err := e.ExecStmt(&SelectStmt{Table: "R", Where: where, Limit: -1}); err == nil {
				t.Errorf("WHERE %s accepted", exprString(where))
			}
		})
	}
}

// TestBlockLookupsMatchReference holds the one gather loop behind `IN` and
// Probe — a block of values expanded to their index keys and looked up in one
// call — to the reference scan, on an INT and on a FLOAT column, with lists of
// every length around the block size: `1` and `1.0` alternating, a value
// stored under both of its keys, absent values, NULLs and Compare-equal twins
// in the list, and a float beyond 2^53, which sends the statement to the scan.
// The counted work is a lookup per listed value and a read per tuple found.
func TestBlockLookupsMatchReference(t *testing.T) {
	db := storage.NewDatabase("blocks")
	rel := db.MustCreateRelation(storage.MustSchema("W", "id", storage.Column{Name: "id", Type: storage.TypeInt},
		storage.Column{Name: "k", Type: storage.TypeInt}, storage.Column{Name: "f", Type: storage.TypeFloat}))
	for i := 0; i < 700; i++ {
		k, f := storage.Int(int64(i%130)), storage.Int(int64(i%130))
		switch i % 7 {
		case 0, 1, 2:
			f = storage.Float(float64(i % 130)) // i%130 meets every residue of 7: each value sits under both keys
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
	r := rand.New(rand.NewSource(3))
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
						if want, err = refSelectIDs(rel, eq(col(column), v)); err != nil {
							t.Fatal(err)
						}
					}
					if got := groups.Group(i); !slices.Equal(got, want) {
						t.Fatalf("Probe(%s, list %d of %d): group %d (%s %s) = %v, want %v", column, li, n, i, v.Kind(), v, got, want)
					}
					total += len(want)
				}
				if groups.Stats != wantStats(total) {
					t.Errorf("Probe(%s, list %d of %d): %+v, want %+v", column, li, n, groups.Stats, wantStats(total))
				}

				shuffled := slices.Clone(list) // IN takes any order, and repeats
				r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				for _, vals := range [][]storage.Value{list, append(shuffled, list...)} {
					where := in(col(column), vals...)
					want, err := refSelectIDs(rel, where)
					if err != nil {
						t.Fatal(err)
					}
					got := selectWhere(t, e, "W", where)
					if !slices.Equal(got.RowIDs, want) {
						t.Fatalf("%s IN (list %d of %d values): %v, want %v", column, li, len(vals), got.RowIDs, want)
					}
					if ws := (Stats{IndexLookups: len(vals), TupleReads: len(want)}); got.Stats != ws {
						t.Errorf("%s IN (list %d of %d values): %+v, want %+v", column, li, len(vals), got.Stats, ws)
					}
				}

				beyond := append(slices.Clone(list), storage.Float(1<<53))
				want, err := refSelectIDs(rel, in(col(column), beyond...))
				if err != nil {
					t.Fatal(err)
				}
				scanned := Stats{Scanned: rel.Len(), TupleReads: len(want)}
				if got := selectWhere(t, e, "W", in(col(column), beyond...)); !slices.Equal(got.RowIDs, want) || got.Stats != scanned {
					t.Errorf("%s IN (…, 2^53): %d rows %+v, want %d rows %+v", column, len(got.RowIDs), got.Stats, len(want), scanned)
				}
				if groups, err = e.Probe("W", column, beyond); err != nil || groups.Stats != scanned || len(groups.IDs) != len(want) {
					t.Errorf("Probe(%s, …, 2^53): %+v (%v), want %+v", column, groups.Stats, err, scanned)
				}
			}
		}
	}
	if both, _ := rel.Lookup("f", storage.Int(5)); len(both) == 0 {
		t.Fatal("fixture: no value of f is stored as an integer")
	} else if float, _ := rel.Lookup("f", storage.Float(5)); len(float) == 0 {
		t.Fatal("fixture: no value of f is stored under both keys")
	}
}
