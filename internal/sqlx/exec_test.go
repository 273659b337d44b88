package sqlx

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"precis/internal/storage"
)

// query runs SELECT cols FROM table WHERE where LIMIT limit — nil cols: *,
// nil where: every tuple, limit < 0: no limit — and fails the test on an
// error.
func query(t testing.TB, e *Engine, cols []string, table string, where Expr, limit int) *Result {
	t.Helper()
	res, err := e.ExecStmt(&SelectStmt{Columns: cols, Table: table, Where: where, Limit: limit})
	if err != nil {
		t.Fatalf("SELECT %v FROM %s WHERE %s: %v", cols, table, exprString(where), err)
	}
	return res
}

// testEngine builds a MOVIE table with a PK and an index on did.
func testEngine(t *testing.T) *Engine {
	t.Helper()
	db := storage.NewDatabase("test")
	rel := db.MustCreateRelation(storage.MustSchema("MOVIE", "mid",
		storage.Column{Name: "mid", Type: storage.TypeInt}, storage.Column{Name: "title", Type: storage.TypeString},
		storage.Column{Name: "year", Type: storage.TypeInt}, storage.Column{Name: "did", Type: storage.TypeInt}))
	i, s := storage.Int, storage.String
	for _, row := range [][]storage.Value{
		{i(1), s("Match Point"), i(2005), i(1)},
		{i(2), s("Melinda and Melinda"), i(2004), i(1)},
		{i(3), s("Anything Else"), i(2003), i(1)},
		{i(4), s("Alien"), i(1979), i(2)},
		{i(5), s("Blade Runner"), i(1982), i(2)},
		{i(6), s("Unknown"), i(2000), storage.Null},
	} {
		if _, err := db.Insert("MOVIE", row...); err != nil {
			t.Fatal(err)
		}
	}
	if err := rel.CreateIndex("did"); err != nil {
		t.Fatal(err)
	}
	return NewEngine(db)
}

func titles(res *Result) []string {
	var out []string
	ti := -1
	for i, c := range res.Columns {
		if c == "title" {
			ti = i
		}
	}
	for _, row := range res.Rows {
		out = append(out, row.Value(ti).AsString())
	}
	return out
}

func TestSelectAll(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, nil, "MOVIE", nil, -1)
	if len(res.Rows) != 6 || len(res.Columns) != 4 {
		t.Fatalf("rows=%d cols=%v", len(res.Rows), res.Columns)
	}
	if len(res.RowIDs) != 6 {
		t.Fatalf("RowIDs = %v", res.RowIDs)
	}
}

func TestSelectProjection(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, []string{"title", "year"}, "MOVIE", eq(col("mid"), storage.Int(1)), -1)
	if !reflect.DeepEqual(res.Columns, []string{"title", "year"}) {
		t.Errorf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 1 || res.Rows[0].Value(0).AsString() != "Match Point" {
		t.Errorf("rows = %v", values(res.Rows))
	}
}

func TestSelectRowIDPseudoColumn(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, []string{RowIDColumn, "title"}, "MOVIE", eq(col("year"), storage.Int(1979)), -1)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", values(res.Rows))
	}
	if res.Rows[0].Value(0).AsInt() != int64(res.RowIDs[0]) {
		t.Error("rowid column disagrees with RowIDs")
	}
}

func TestSelectByRowID(t *testing.T) {
	e := testEngine(t)
	all := query(t, e, []string{RowIDColumn}, "MOVIE", nil, -1)
	res := query(t, e, []string{"title"}, "MOVIE", eq(col(RowIDColumn), all.Rows[2].Value(0)), -1)
	if len(res.Rows) != 1 || res.RowIDs[0] != all.RowIDs[2] {
		t.Fatalf("rows = %v", values(res.Rows))
	}
	// rowid access path should not scan.
	if res.Stats.Scanned != 0 {
		t.Errorf("rowid access scanned %d tuples", res.Stats.Scanned)
	}
}

func TestSelectInListUsesIndex(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, []string{"title"}, "MOVIE", in(col("did"), storage.Int(1), storage.Int(2)), -1)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %v", titles(res))
	}
	if res.Stats.IndexLookups != 2 {
		t.Errorf("IndexLookups = %d, want 2", res.Stats.IndexLookups)
	}
	if res.Stats.Scanned != 0 {
		t.Errorf("Scanned = %d, want 0 (index path)", res.Stats.Scanned)
	}
}

func TestSelectUnindexedScans(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, []string{"title"}, "MOVIE", &Compare{Op: OpGt, Left: col("year"), Right: &Literal{Value: storage.Int(2000)}}, -1)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", titles(res))
	}
	if res.Stats.Scanned == 0 {
		t.Error("expected a scan for unindexed predicate")
	}
}

func TestNullComparisonsNeverMatch(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, []string{"title"}, "MOVIE", eq(col("did"), storage.Null), -1)
	if len(res.Rows) != 0 {
		t.Errorf("did = NULL matched %v", titles(res))
	}
	res = query(t, e, []string{"title"}, "MOVIE", &Compare{Op: OpNe, Left: col("did"), Right: &Literal{Value: storage.Int(1)}}, -1)
	// NULL did row must not match <> either.
	if len(res.Rows) != 2 {
		t.Errorf("did <> 1 matched %v", titles(res))
	}
}

func TestEarlyLimitStopsScan(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, []string{"title"}, "MOVIE", nil, 2)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Stats.Scanned > 2 {
		t.Errorf("scanned %d tuples despite LIMIT 2", res.Stats.Scanned)
	}
}

func TestExecErrors(t *testing.T) {
	e := testEngine(t)
	for _, tc := range []struct {
		name string
		st   Stmt
	}{
		{"unknown table", &SelectStmt{Table: "NOPE", Limit: -1}},
		{"unknown projected column", &SelectStmt{Columns: []string{"nope"}, Table: "MOVIE", Limit: -1}},
		{"unknown where column", &SelectStmt{Table: "MOVIE", Where: eq(col("nope"), storage.Int(1)), Limit: -1}},
		{"nil statement", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := e.ExecStmt(tc.st); err == nil {
				t.Errorf("ExecStmt(%+v) accepted", tc.st)
			}
		})
	}
}

func TestCumulativeStats(t *testing.T) {
	e := testEngine(t)
	for _, where := range []Expr{in(col("did"), storage.Int(1), storage.Int(2)), eq(col("did"), storage.Int(1))} {
		e.AccumulateStats(query(t, e, nil, "MOVIE", where, -1).Stats)
	}
	total := e.TotalStats()
	if total.IndexLookups != 3 {
		t.Errorf("cumulative IndexLookups = %d, want 3", total.IndexLookups)
	}
	if total.TupleReads != 8 {
		t.Errorf("cumulative TupleReads = %d, want 8", total.TupleReads)
	}
	if e.ResetStats(); e.TotalStats() != (Stats{}) {
		t.Errorf("after ResetStats: %+v", e.TotalStats())
	}
}

// TestAccessPlan: planAccess takes a rowid conjunct over an indexed one, an
// indexed equality or IN list over a scan, whatever sits beside it.
func TestAccessPlan(t *testing.T) {
	e := testEngine(t)
	rel := e.Database().Relation("MOVIE")
	after2000 := &Compare{Op: OpGt, Left: col("year"), Right: &Literal{Value: storage.Int(2000)}}
	for _, tc := range []struct {
		where Expr
		kind  accessKind
		col   string
	}{
		{in(col("did"), storage.Int(1), storage.Int(2)), accessIndex, "did"},
		{eq(col(RowIDColumn), storage.Int(3)), accessRowID, ""},
		{and(eq(col("did"), storage.Int(1)), eq(col(RowIDColumn), storage.Int(3))), accessRowID, ""},
		{after2000, accessScan, ""},
		{and(after2000, eq(col("did"), storage.Int(1))), accessIndex, "did"},
		{or(after2000, eq(col("did"), storage.Int(1))), accessScan, ""},
	} {
		t.Run(exprString(tc.where), func(t *testing.T) {
			if plan := planAccess(rel, &SelectStmt{Table: "MOVIE", Where: tc.where}); plan.kind != tc.kind || plan.col != tc.col {
				t.Errorf("WHERE %s: plan %d on %q, want %d on %q", exprString(tc.where), plan.kind, plan.col, tc.kind, tc.col)
			}
		})
	}
}

// TestLimit cuts every access path's rows at the limit, in the order the path
// returns them: none for LIMIT 0, all of them for a limit past the end.
func TestLimit(t *testing.T) {
	e := testEngine(t)
	all := query(t, e, nil, "MOVIE", nil, -1)
	for _, path := range []struct {
		name  string
		where Expr
		want  []string
	}{
		{"scan", &Compare{Op: OpLt, Left: col("year"), Right: &Literal{Value: storage.Int(2005)}},
			[]string{"Melinda and Melinda", "Anything Else", "Alien", "Blade Runner", "Unknown"}},
		{"index", in(col("did"), storage.Int(2), storage.Int(1)),
			[]string{"Match Point", "Melinda and Melinda", "Anything Else", "Alien", "Blade Runner"}},
		{"rowid", &RowIDIn{IDs: []storage.TupleID{all.RowIDs[4], all.RowIDs[0], all.RowIDs[5]}},
			[]string{"Blade Runner", "Match Point", "Unknown"}},
	} {
		for _, limit := range []int{0, 2, 10} {
			t.Run(fmt.Sprintf("%s/LIMIT %d", path.name, limit), func(t *testing.T) {
				want := path.want[:min(limit, len(path.want))]
				res := query(t, e, []string{"title"}, "MOVIE", path.where, limit)
				if got := titles(res); !slices.Equal(got, want) || len(res.RowIDs) != len(want) {
					t.Errorf("WHERE %s LIMIT %d: %v (%d ids), want %v", exprString(path.where), limit, got, len(res.RowIDs), want)
				}
			})
		}
	}
}

// TestExprString pins the rendering error messages and tests print for every
// node kind, nested as the where trees nest them.
func TestExprString(t *testing.T) {
	i := storage.Int
	for _, tc := range []struct {
		name string
		e    Expr
		want string
	}{
		{"column", col("title"), "title"},
		{"string literal", &Literal{Value: storage.String("it's")}, "'it''s'"},
		{"NULL literal", &Literal{Value: storage.Null}, "NULL"},
		{"comparison", &Compare{Op: OpGe, Left: col("year"), Right: &Literal{Value: i(2000)}}, "year >= 2000"},
		{"IN list", in(col("did"), i(1), storage.String("x")), "did IN (1, 'x')"},
		{"NOT IN list", &InList{Left: col("did"), Values: []storage.Value{i(2)}, Not: true}, "did NOT IN (2)"},
		{"id set", &RowIDInSet{Set: idSet{}}, "rowid IN <id set>"},
		{"id list", &RowIDIn{IDs: []storage.TupleID{4, 2}}, "rowid IN <2 ids>"},
		{"AND under OR", or(and(eq(col("a"), i(1)), eq(col("b"), i(2))), eq(col("c"), i(3))), "((a = 1 AND b = 2) OR c = 3)"},
		{"NOT", &Not{Inner: or(eq(col("a"), i(1)), &RowIDInSet{Set: idSet{}, Not: true})}, "NOT ((a = 1 OR rowid NOT IN <id set>))"},
		{"nil", nil, "?"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := exprString(tc.e); got != tc.want {
				t.Errorf("exprString = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestDelete: a tuple deleted from the database leaves every access path — the
// scan, the rowid fetch and the hash probe.
func TestDelete(t *testing.T) {
	e := testEngine(t)
	gone := query(t, e, nil, "MOVIE", eq(col("did"), storage.Int(2)), -1).RowIDs
	for _, id := range gone {
		if ok, err := e.Database().Delete("MOVIE", id); !ok || err != nil {
			t.Fatalf("Delete(%d) = %v, %v", id, ok, err)
		}
	}
	if left := query(t, e, nil, "MOVIE", nil, -1); len(left.Rows) != 4 {
		t.Errorf("remaining = %v", titles(left))
	}
	if res := query(t, e, nil, "MOVIE", &RowIDIn{IDs: gone}, -1); len(res.Rows) != 0 {
		t.Errorf("rowid fetch of deleted tuples: %v", titles(res))
	}
	res := query(t, e, nil, "MOVIE", in(col("did"), storage.Int(1), storage.Int(2)), -1)
	if want := []string{"Match Point", "Melinda and Melinda", "Anything Else"}; !slices.Equal(titles(res), want) || res.Stats.Scanned != 0 {
		t.Errorf("probe after delete: %v %+v, want %v from the index", titles(res), res.Stats, want)
	}
}

// TestUpdateMaintainsIndexes: an update through the database moves the tuple
// between posting lists; the probe finds it under its new value only.
func TestUpdateMaintainsIndexes(t *testing.T) {
	e := testEngine(t)
	rel := e.Database().Relation("MOVIE")
	id := query(t, e, nil, "MOVIE", eq(col("mid"), storage.Int(1)), -1).RowIDs[0]
	old, _ := rel.Get(id)
	vals := append([]storage.Value(nil), old.Values...)
	vals[rel.Schema().ColumnIndex("did")] = storage.Int(2)
	if err := e.Database().Update("MOVIE", id, vals); err != nil {
		t.Fatal(err)
	}
	res := query(t, e, []string{"title"}, "MOVIE", eq(col("did"), storage.Int(2)), -1)
	if want := []string{"Match Point", "Alien", "Blade Runner"}; !slices.Equal(titles(res), want) {
		t.Errorf("did = 2: %v, want %v", titles(res), want)
	}
	if res.Stats.Scanned != 0 {
		t.Error("index not used after update")
	}
	res = query(t, e, []string{"title"}, "MOVIE", eq(col("did"), storage.Int(1)), -1)
	if want := []string{"Melinda and Melinda", "Anything Else"}; !slices.Equal(titles(res), want) {
		t.Errorf("did = 1 after the update: %v, want %v (stale posting)", titles(res), want)
	}
}

// TestCreateIndexServesProbes: an index created on a loaded relation turns the
// scan of an equality on its column into a probe with the same rows; one on a
// column the relation lacks is refused.
func TestCreateIndexServesProbes(t *testing.T) {
	e := testEngine(t)
	where := eq(col("year"), storage.Int(2005))
	before := query(t, e, []string{"title"}, "MOVIE", where, -1)
	if before.Stats.Scanned == 0 {
		t.Fatalf("year is indexed before CreateIndex: %+v", before.Stats)
	}
	rel := e.Database().Relation("MOVIE")
	if err := rel.CreateIndex("year"); err != nil {
		t.Fatal(err)
	}
	res := query(t, e, []string{"title"}, "MOVIE", where, -1)
	if res.Stats.Scanned != 0 || res.Stats.IndexLookups != 1 || !slices.Equal(titles(res), titles(before)) {
		t.Errorf("after CreateIndex: %v %+v, want %v from one probe", titles(res), res.Stats, titles(before))
	}
	if err := rel.CreateIndex("nope"); err == nil {
		t.Error("index on missing column accepted")
	}
}

// TestPlannerEquivalence: for random predicates over a table indexed on one
// column, the index path and a forced scan return the same multiset of rows.
func TestPlannerEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	db := storage.NewDatabase("prop")
	cols := []storage.Column{{Name: "id", Type: storage.TypeInt}, {Name: "k", Type: storage.TypeInt}, {Name: "s", Type: storage.TypeString}}
	db.MustCreateRelation(storage.MustSchema("R", "id", cols...))
	// An identical unindexed table forces scans.
	db.MustCreateRelation(storage.MustSchema("RS", "", cols...))
	for i := 0; i < 300; i++ {
		row := []storage.Value{storage.Int(int64(i)), storage.Int(int64(r.Intn(10))), storage.String(string(rune('a' + r.Intn(5))))}
		for _, table := range []string{"R", "RS"} {
			if _, err := db.Insert(table, row...); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Relation("R").CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db)
	for trial := 0; trial < 100; trial++ {
		k1, k2 := storage.Int(int64(r.Intn(10))), storage.Int(int64(r.Intn(10)))
		where := and(in(col("k"), k1, k2), eq(col("s"), storage.String(string(rune('a'+r.Intn(5))))))
		a := query(t, e, []string{"id"}, "R", where, -1)
		b := query(t, e, []string{"id"}, "RS", where, -1)
		if !reflect.DeepEqual(values(a.Rows), values(b.Rows)) {
			t.Fatalf("trial %d: index path %v != scan path %v", trial, values(a.Rows), values(b.Rows))
		}
		if a.Stats.Scanned != 0 {
			t.Fatalf("trial %d: expected index path, scanned %d", trial, a.Stats.Scanned)
		}
	}
}
