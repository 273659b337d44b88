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

// planEngine builds two copies of one table: R with a primary key, hash
// indexes on k and f and an ordered index on y; U with no key and no index,
// so every statement on it scans. k, f and s hold NULLs; f holds both Int
// and Float values (a FLOAT column accepts both), some numerically equal.
func planEngine(t testing.TB) *Engine {
	t.Helper()
	db := storage.NewDatabase("plan")
	e := NewEngine(db)
	e.MustExec("CREATE TABLE R (id INT, k INT, f FLOAT, y INT, s TEXT, PRIMARY KEY (id))")
	e.MustExec("CREATE TABLE U (id INT, k INT, f FLOAT, y INT, s TEXT)")
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 240; i++ {
		k, f, s := fmt.Sprint(r.Intn(8)), fmt.Sprint(r.Intn(6)), fmt.Sprintf("'%c%c'", 'a'+r.Intn(3), 'a'+r.Intn(3))
		switch r.Intn(4) {
		case 0:
			f += ".0"
		case 1:
			f += ".5"
		}
		if r.Intn(9) == 0 {
			k = "NULL"
		}
		if r.Intn(9) == 0 {
			f = "NULL"
		}
		if r.Intn(9) == 0 {
			s = "NULL"
		}
		for _, table := range []string{"R", "U"} {
			e.MustExec(fmt.Sprintf("INSERT INTO %s VALUES (%d, %s, %s, %d, %s)", table, i, k, f, r.Intn(50), s))
		}
	}
	e.MustExec("CREATE INDEX ON R (k)")
	e.MustExec("CREATE INDEX ON R (f)")
	e.MustExec("CREATE ORDERED INDEX ON R (y)")
	return e
}

// selectWhere runs SELECT id FROM table WHERE where and checks that EXPLAIN
// names the access path the execution's counters show.
func selectWhere(t *testing.T, e *Engine, table string, where Expr) *Result {
	t.Helper()
	res, _ := explainedSelect(t, e, table, where)
	return res
}

// explainedSelect is selectWhere also returning the EXPLAINed plan.
func explainedSelect(t *testing.T, e *Engine, table string, where Expr) (*Result, string) {
	t.Helper()
	return explainedStmt(t, e, &SelectStmt{Columns: []string{"id"}, Table: table, Where: where, Limit: -1})
}

// explainedStmt runs st and checks that EXPLAIN names the access path the
// execution's counters show.
func explainedStmt(t *testing.T, e *Engine, st *SelectStmt) (*Result, string) {
	t.Helper()
	table, where := st.Table, st.Where
	res, err := e.ExecStmt(st)
	if err != nil {
		t.Fatalf("%s WHERE %s: %v", table, exprString(where), err)
	}
	ex, err := e.ExecStmt(&ExplainStmt{Inner: st})
	if err != nil {
		t.Fatalf("EXPLAIN %s WHERE %s: %v", table, exprString(where), err)
	}
	plan := ex.Rows[0].Value(0).AsString()
	var probes, ids int
	ok := false
	switch {
	case plan == "scan":
		ok = res.Stats.IndexLookups == 0 && res.Stats.Scanned == e.Database().Relation(table).Len()
	case strings.HasPrefix(plan, "range("):
		ok = res.Stats.IndexLookups == 1 && res.Stats.Scanned == 0
	case strings.HasPrefix(plan, "rowid fetch"):
		fmt.Sscanf(plan, "rowid fetch (%d ids)", &ids)
		ok = res.Stats.IndexLookups == 0 && res.Stats.Scanned == 0 && res.Stats.TupleReads <= ids
	case strings.HasPrefix(plan, "index("):
		fmt.Sscanf(plan[strings.Index(plan, "probes="):], "probes=%d", &probes)
		ok = res.Stats.IndexLookups == probes && res.Stats.Scanned == 0
	case strings.HasPrefix(plan, "index("):
		// It reads no tuple, yet counts each row it returns as the probe that
		// reads them would.
		fmt.Sscanf(plan[strings.Index(plan, "probes="):], "probes=%d", &probes)
		ok = res.Stats.IndexLookups == probes && res.Stats.Scanned == 0 && res.Stats.TupleReads == len(res.Rows)
	}
	if !ok {
		t.Fatalf("%s WHERE %s: EXPLAIN says %q, execution did %+v", table, exprString(where), plan, res.Stats)
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

// randomPredicate builds a predicate over R/U's columns: probes with NULLs,
// repeated values and Int/Float literals of either kind, ranges, LIKE, IS
// NULL, id sets, under AND / OR / NOT. rowid lists are ascending and
// distinct, where list order and scan order coincide.
func randomPredicate(r *rand.Rand, ids []storage.TupleID, depth int) Expr {
	num := func() storage.Value {
		switch r.Intn(8) {
		case 0:
			return storage.Null
		case 1:
			return storage.Float(float64(r.Intn(8)))
		case 2:
			return storage.Float(float64(r.Intn(8)) + 0.5)
		default:
			return storage.Int(int64(r.Intn(8)))
		}
	}
	nums := func() []storage.Value {
		vals := make([]storage.Value, 1+r.Intn(4))
		for i := range vals {
			vals[i] = num()
		}
		return vals
	}
	if depth > 0 && r.Intn(3) > 0 {
		l, rt := randomPredicate(r, ids, depth-1), randomPredicate(r, ids, depth-1)
		switch r.Intn(4) {
		case 0:
			return or(l, rt)
		case 1:
			return &Not{Inner: l}
		default:
			return and(l, rt)
		}
	}
	switch r.Intn(9) {
	case 0:
		return eq(col("k"), num())
	case 1:
		return &InList{Left: col("k"), Values: nums(), Not: r.Intn(4) == 0}
	case 2:
		return &Compare{Op: OpEq, Left: &Literal{Value: num()}, Right: col("f")}
	case 3:
		return in(col("f"), nums()...)
	case 4:
		return &Compare{Op: CompareOp(1 + r.Intn(5)), Left: col("y"), Right: &Literal{Value: storage.Int(int64(r.Intn(50)))}}
	case 5:
		return &Like{Left: col("s"), Pattern: string(rune('a'+r.Intn(3))) + "%", Not: r.Intn(3) == 0}
	case 6:
		return &IsNull{Left: col([]string{"k", "f", "s"}[r.Intn(3)]), Not: r.Intn(2) == 0}
	case 7:
		set := idSet{}
		for _, id := range ids {
			if r.Intn(3) == 0 {
				set[id] = true
			}
		}
		return &RowIDInSet{Set: set, Not: r.Intn(2) == 0}
	default:
		var vals []storage.Value
		listed := []storage.TupleID{1 << 40} // names no tuple
		for _, id := range ids {
			if r.Intn(20) == 0 {
				vals, listed = append(vals, storage.Int(int64(id))), append(listed, id)
			}
		}
		if r.Intn(2) == 0 {
			return &RowIDIn{IDs: listed[1:]} // the same list, as ids
		}
		vals = append(vals, storage.Int(1<<40))
		return in(col(RowIDColumn), vals...)
	}
}

// TestSelectMatchesReferenceScan holds every access path — rowid fetch, hash
// probe (with and without its conjunct compiled out, under projections of
// the probed column and rowid alone), B-tree range, scan — to the rows the
// reference executor's full scan returns, on the indexed table and on its
// unindexed copy.
func TestSelectMatchesReferenceScan(t *testing.T) {
	e := planEngine(t)
	r := rand.New(rand.NewSource(11))
	for _, table := range []string{"R", "U"} {
		rel := e.Database().Relation(table)
		var ids []storage.TupleID
		rel.Scan(func(tu storage.Tuple) bool {
			ids = append(ids, tu.ID)
			return true
		})
		plans := map[string]int{}
		for trial := 0; trial < 1500; trial++ {
			where := randomPredicate(r, ids, 3)
			want, err := refSelectIDs(rel, where)
			if err != nil {
				t.Fatal(err)
			}
			got, plan := explainedSelect(t, e, table, where)
			if !reflect.DeepEqual(got.RowIDs, want) {
				t.Fatalf("%s WHERE %s:\n got  %v\n want %v", table, exprString(where), got.RowIDs, want)
			}
			plans[strings.SplitN(plan, "(", 2)[0]]++
			// The same predicate under projections an index on k or f covers.
			cols := [][]string{{RowIDColumn, "k"}, {"k"}, {"f", RowIDColumn, "f"}, {RowIDColumn}}[trial%4]
			_, wantRows, err := refSelectRows(rel, where, cols)
			if err != nil {
				t.Fatal(err)
			}
			got, plan = explainedStmt(t, e, &SelectStmt{Columns: cols, Table: table, Where: where, Limit: -1})
			if !reflect.DeepEqual(got.RowIDs, want) || !reflect.DeepEqual(values(got.Rows), wantRows) {
				t.Fatalf("SELECT %v FROM %s WHERE %s (%s):\n got  %v %v\n want %v %v",
					cols, table, exprString(where), plan, got.RowIDs, got.Rows, want, wantRows)
			}
			plans[strings.SplitN(plan, "(", 2)[0]]++
		}
		wantPlans := []string{"scan"}
		if table == "R" {
			wantPlans = []string{"scan", "index", "range", "rowid fetch "}
		}
		for _, p := range wantPlans {
			if plans[p] == 0 {
				t.Errorf("%s: no generated predicate took the %q path (%v)", table, p, plans)
			}
		}
	}
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
	nullRows := selectWhere(t, e, "R", &IsNull{Left: col("k")})
	if len(nullRows.Rows) == 0 {
		t.Fatal("fixture has no NULL k")
	}
	for _, column := range []string{"k", "f"} {
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
		indexed, scanned := selectWhere(t, e, "R", where), selectWhere(t, e, "U", where)
		if !reflect.DeepEqual(idColumn(indexed), idColumn(scanned)) {
			t.Errorf("WHERE %s: indexed %v, unindexed %v", exprString(where), idColumn(indexed), idColumn(scanned))
		}
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
		name  string
		cols  []string
		where Expr
		limit int
		plan  string
	}{
		{"equality", rowidK, eq(col("k"), i(3)), -1, "index(k) probes=1"},
		{"literal on the left", []string{"k"}, &Compare{Op: OpEq, Left: &Literal{Value: i(3)}, Right: col("k")}, -1, "index(k) probes=1"},
		{"repeated IN values", rowidK, in(col("k"), i(2), i(5), i(2), i(2)), -1, "index(k) probes=4"},
		{"k = 1.0 on an INT column", rowidK, eq(col("k"), f(1)), -1, "index(k) probes=1"},
		{"no such key", rowidK, in(col("k"), f(1.5), i(99)), -1, "index(k) probes=2"},
		{"FLOAT column, two keys per literal", onlyF, in(col("f"), i(1), f(2), f(2.5)), -1, "index(f) probes=3"},
		{"rowid alone", []string{RowIDColumn}, in(col("f"), i(1), i(3)), -1, "index(f) probes=2"},
		{"column twice", []string{"k", RowIDColumn, "k"}, in(col("k"), i(1), i(7)), -1, "index(k) probes=2"},
		{"LIMIT", rowidK, in(col("k"), i(1), i(2), i(3)), 7, "index(k) probes=3"},
		{"LIMIT 0", rowidK, in(col("k"), i(1), i(2)), 0, "index(k) probes=2"},
		// The conjunct is re-checked, or the index lacks a column.
		{"NULL in the list", rowidK, in(col("k"), i(1), null, i(2)), -1, "index(k) probes=3"},
		{"k = NULL", rowidK, eq(col("k"), null), -1, "index(k) probes=1"},
		{"another conjunct", rowidK, and(eq(col("k"), i(3)), eq(col("y"), i(7))), -1, "index(k) probes=1"},
		{"an id set beside it", rowidK, and(in(col("k"), i(1), i(2)), &RowIDInSet{Set: idSet{}, Not: true}), -1, "index(k) probes=2"},
		{"another column", []string{"k", "y"}, eq(col("k"), i(3)), -1, "index(k) probes=1"},
		{"the other indexed column", []string{"f"}, eq(col("k"), i(3)), -1, "index(k) probes=1"},
		{"SELECT *", nil, eq(col("k"), i(3)), -1, "index(k) probes=1"},
		{"beyond exact floats", rowidK, in(col("k"), f(1<<53), i(1)), -1, "scan"},
	} {
		st := &SelectStmt{Columns: tc.cols, Table: "R", Where: tc.where, Limit: tc.limit}
		got, plan := explainedStmt(t, e, st)
		if plan != tc.plan {
			t.Errorf("%s: EXPLAIN says %q, want %q", tc.name, plan, tc.plan)
		}
		cols := tc.cols
		if cols == nil {
			cols = rel.Schema().ColumnNames()
		}
		wantIDs, wantRows, err := refSelectRows(rel, tc.where, cols)
		if err != nil {
			t.Fatal(err)
		}
		if tc.limit >= 0 && len(wantIDs) > tc.limit {
			wantIDs, wantRows = wantIDs[:tc.limit], wantRows[:tc.limit]
		}
		if len(wantIDs) == 0 {
			wantIDs, wantRows = nil, nil
		}
		if !reflect.DeepEqual(got.RowIDs, wantIDs) || !reflect.DeepEqual(values(got.Rows), wantRows) {
			t.Errorf("%s:\n got  %v %v\n want %v %v", tc.name, got.RowIDs, values(got.Rows), wantIDs, wantRows)
		}
		// The same statement with an always-true second conjunct does the
		// same counted work.
		read := *st
		read.Where = and(tc.where, &RowIDInSet{Set: idSet{}, Not: true})
		if via, err := e.ExecStmt(&read); err != nil || via.Stats != got.Stats {
			t.Errorf("%s: stats %+v, with a second conjunct %+v (%v)", tc.name, got.Stats, via.Stats, err)
		}
	}
	if res := e.MustExec("SELECT rowid, k FROM R WHERE k IN (1, 2)"); len(res.Rows) == 0 || res.Rows[0].Value(1).Kind() != storage.KindInt {
		t.Fatalf("fixture has no k in (1, 2): %v", values(res.Rows))
	}

	// ORDER BY may name a column the index lacks; DISTINCT and OFFSET are
	// applied to the probe's rows.
	if plan := e.MustExec("EXPLAIN SELECT k FROM R WHERE k IN (1, 2) ORDER BY y").Rows[0].Value(0).AsString(); plan != "index(k) probes=2" {
		t.Errorf("ORDER BY y: EXPLAIN says %q", plan)
	}
	if got := e.MustExec("SELECT DISTINCT k FROM R WHERE k IN (2, 1)"); len(got.Rows) != 2 {
		t.Errorf("DISTINCT k over two keys returned %v", values(got.Rows))
	}
	all, tail := e.MustExec("SELECT rowid, k FROM R WHERE k IN (1, 2)"), e.MustExec("SELECT rowid, k FROM R WHERE k IN (1, 2) LIMIT 3 OFFSET 2")
	if !reflect.DeepEqual(values(tail.Rows), values(all.Rows[2:5])) || !reflect.DeepEqual(tail.RowIDs, all.RowIDs[2:5]) {
		t.Errorf("LIMIT 3 OFFSET 2: %v, want %v", values(tail.Rows), values(all.Rows[2:5]))
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
	after := e.MustExec("SELECT rowid, k FROM R WHERE k IN (1, 2)")
	if !reflect.DeepEqual(after.RowIDs, all.RowIDs[2:]) {
		t.Errorf("after a delete and an update away: %v, want %v", after.RowIDs, all.RowIDs[2:])
	}
	_, wantRows, _ := refSelectRows(rel, eq(col("k"), i(6)), rowidK)
	if six := e.MustExec("SELECT rowid, k FROM R WHERE k = 6"); !reflect.DeepEqual(values(six.Rows), wantRows) || !slices.Contains(six.RowIDs, moved) {
		t.Errorf("k = 6 after the update: %v, want %v", values(six.Rows), wantRows)
	}
}

// TestRowIDListEntries pins what a rowid list does with entries a scan would
// treat differently: it is visited in list order, a repeated id is emitted
// each time, and entries that are not integers name no tuple.
func TestRowIDListEntries(t *testing.T) {
	e := planEngine(t)
	all := e.MustExec("SELECT rowid, id FROM R")
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
	all := e.MustExec("SELECT rowid, id FROM R")
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

// TestMalformedPredicateRejectedUpFront: a hand-built AST with a scalar in
// boolean position (the parser cannot produce one) fails when the statement
// is compiled, not at the first tuple it happens to reach.
func TestMalformedPredicateRejectedUpFront(t *testing.T) {
	e := planEngine(t)
	for _, where := range []Expr{
		col("k"),
		and(eq(col("k"), storage.Int(-1)), &Literal{Value: storage.Bool(true)}),
		&Compare{Op: OpEq, Left: eq(col("k"), storage.Int(1)), Right: col("k")},
	} {
		if _, err := e.ExecStmt(&SelectStmt{Table: "R", Where: where, Limit: -1}); err == nil {
			t.Errorf("WHERE %s accepted", exprString(where))
		}
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
	e := NewEngine(db)
	e.MustExec("CREATE TABLE W (id INT, k INT, f FLOAT, PRIMARY KEY (id))")
	for i := 0; i < 700; i++ {
		k, f := fmt.Sprint(i%130), fmt.Sprint(i%130)
		switch i % 7 {
		case 0, 1, 2:
			f += ".0" // i%130 meets every residue of 7: each value sits under both keys
		case 3:
			f += ".5"
		case 4:
			k, f = "NULL", "NULL"
		}
		e.MustExec(fmt.Sprintf("INSERT INTO W VALUES (%d, %s, %s)", i, k, f))
	}
	e.MustExec("CREATE INDEX ON W (k)")
	e.MustExec("CREATE INDEX ON W (f)")
	rel := db.Relation("W")
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
