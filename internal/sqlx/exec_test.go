package sqlx

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"precis/internal/storage"
)

// query runs st and fails the test on an error.
func query(t testing.TB, e *Engine, st *SelectStmt) *Result {
	t.Helper()
	res, err := e.ExecStmt(st)
	if err != nil {
		t.Fatalf("%+v: %v", *st, err)
	}
	return res
}

// in is SELECT cols FROM MOVIE WHERE col IN (vals); nil cols is *.
func in(cols []string, col string, vals ...storage.Value) *SelectStmt {
	return &SelectStmt{Columns: cols, Table: "MOVIE", Col: col, Values: vals, Limit: -1}
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
	res := query(t, e, &SelectStmt{Table: "MOVIE", Limit: -1})
	if len(res.Rows) != 6 || len(res.Columns) != 4 {
		t.Fatalf("rows=%d cols=%v", len(res.Rows), res.Columns)
	}
	if len(res.RowIDs) != 6 {
		t.Fatalf("RowIDs = %v", res.RowIDs)
	}
}

func TestSelectProjection(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, in([]string{"title", "year"}, "mid", storage.Int(1)))
	if !reflect.DeepEqual(res.Columns, []string{"title", "year"}) {
		t.Errorf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 1 || res.Rows[0].Value(0).AsString() != "Match Point" {
		t.Errorf("rows = %v", values(res.Rows))
	}
	// No column: the ids alone.
	res = query(t, e, in([]string{}, "did", storage.Int(2)))
	if len(res.Columns) != 0 || len(res.RowIDs) != 2 || res.Rows[0].Len() != 0 {
		t.Errorf("no column: %v %v %v", res.Columns, res.RowIDs, values(res.Rows))
	}
}

func TestSelectByRowID(t *testing.T) {
	e := testEngine(t)
	all := query(t, e, &SelectStmt{Columns: []string{}, Table: "MOVIE", Limit: -1})
	res := query(t, e, &SelectStmt{Columns: []string{"title"}, Table: "MOVIE", IDs: all.RowIDs[2:3], Limit: -1})
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
	res := query(t, e, in([]string{"title"}, "did", storage.Int(1), storage.Int(2)))
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
	res := query(t, e, in([]string{"title"}, "year", storage.Int(2005), storage.Int(1979), storage.Int(1900)))
	if want := []string{"Match Point", "Alien"}; !slices.Equal(titles(res), want) {
		t.Fatalf("rows = %v, want %v", titles(res), want)
	}
	if res.Stats.Scanned != 6 || res.Stats.IndexLookups != 0 {
		t.Errorf("expected a scan for an unindexed column: %+v", res.Stats)
	}
}

func TestNullComparisonsNeverMatch(t *testing.T) {
	e := testEngine(t)
	for _, col := range []string{"did", "year"} { // indexed, scanned
		if res := query(t, e, in([]string{"title"}, col, storage.Null)); len(res.Rows) != 0 {
			t.Errorf("%s = NULL matched %v", col, titles(res))
		}
	}
}

func TestEarlyLimitStopsScan(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, &SelectStmt{Columns: []string{"title"}, Table: "MOVIE", Limit: 2})
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Stats.Scanned > 2 {
		t.Errorf("scanned %d tuples despite LIMIT 2", res.Stats.Scanned)
	}
}

// TestExecErrors: a statement naming a table or a column the database lacks
// is refused up front, whatever the rest of it would have read — no tuple at
// all under LIMIT 0, an empty id list, no values or an id set excluding every
// tuple.
func TestExecErrors(t *testing.T) {
	e := testEngine(t)
	everything := e.Database().Relation("MOVIE")
	one := []storage.Value{storage.Int(1)}
	for _, tc := range []struct {
		name string
		st   Stmt
	}{
		{"unknown table", &SelectStmt{Table: "NOPE", Limit: -1}},
		{"no table", &SelectStmt{Limit: -1}},
		{"unknown projected column", &SelectStmt{Columns: []string{"nope"}, Table: "MOVIE", Limit: -1}},
		{"unknown probed column", in(nil, "nope", storage.Int(1))},
		{"unknown column beside ids", &SelectStmt{Table: "MOVIE", IDs: []storage.TupleID{1}, Col: "nope", Limit: -1}},
		{"nil statement", nil},
		{"unknown projected column under LIMIT 0", &SelectStmt{Columns: []string{"nope"}, Table: "MOVIE", Limit: 0}},
		{"unknown projected column beside no ids", &SelectStmt{Columns: []string{"title", "nope"}, Table: "MOVIE", IDs: []storage.TupleID{}, Limit: -1}},
		{"unknown projected column beside a probe", &SelectStmt{Columns: []string{"nope"}, Table: "MOVIE", Col: "did", Values: one, Limit: -1}},
		{"unknown probed column without values", &SelectStmt{Table: "MOVIE", Col: "nope", Limit: -1}},
		{"unknown probed column excluding every tuple", &SelectStmt{Table: "MOVIE", Col: "nope", Values: one, Exclude: everything, Limit: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := e.ExecStmt(tc.st); err == nil {
				t.Errorf("ExecStmt(%+v) accepted", tc.st)
			}
		})
	}
}

// TestInListStats: an IN list on an indexed column costs an index lookup per
// value and a tuple read per tuple found, statement by statement.
func TestInListStats(t *testing.T) {
	e := testEngine(t)
	for _, tc := range []struct {
		st   *SelectStmt
		want Stats
	}{
		{in(nil, "did", storage.Int(1), storage.Int(2)), Stats{IndexLookups: 2, TupleReads: 5}},
		{in(nil, "did", storage.Int(1)), Stats{IndexLookups: 1, TupleReads: 3}},
	} {
		if got := query(t, e, tc.st).Stats; got != tc.want {
			t.Errorf("%v: %+v, want %+v", tc.st.Values, got, tc.want)
		}
	}
}

// TestAccessPlan: planAccess takes the listed ids over an indexed column, an
// indexed column over a scan.
func TestAccessPlan(t *testing.T) {
	e := testEngine(t)
	rel := e.Database().Relation("MOVIE")
	ids := []storage.TupleID{3}
	for _, tc := range []struct {
		name string
		st   *SelectStmt
		kind accessKind
	}{
		{"indexed column", in(nil, "did", storage.Int(1), storage.Int(2)), accessIndex},
		{"ids", &SelectStmt{IDs: ids}, accessRowID},
		{"no ids", &SelectStmt{IDs: []storage.TupleID{}}, accessRowID},
		{"ids beside an indexed column", &SelectStmt{IDs: ids, Col: "did", Values: []storage.Value{storage.Int(1)}}, accessRowID},
		{"unindexed column", in(nil, "year", storage.Int(2000)), accessScan},
		{"neither", &SelectStmt{}, accessScan},
		{"a float at 2^53, converted by the index", in(nil, "did", storage.Float(1<<53)), accessIndex},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if plan := planAccess(rel, tc.st); plan != tc.kind {
				t.Errorf("plan %d, want %d", plan, tc.kind)
			}
		})
	}
}

// TestLimit cuts every access path's rows at the limit, in the order the path
// returns them: none for LIMIT 0, all of them for a limit past the end.
func TestLimit(t *testing.T) {
	e := testEngine(t)
	all := query(t, e, &SelectStmt{Table: "MOVIE", Limit: -1})
	i := storage.Int
	for _, path := range []struct {
		name string
		st   *SelectStmt
		want []string
	}{
		{"scan", in([]string{"title"}, "year", i(2004), i(2003), i(1979), i(1982), i(2000)),
			[]string{"Melinda and Melinda", "Anything Else", "Alien", "Blade Runner", "Unknown"}},
		{"index", in([]string{"title"}, "did", i(2), i(1)),
			[]string{"Match Point", "Melinda and Melinda", "Anything Else", "Alien", "Blade Runner"}},
		{"rowid", &SelectStmt{Columns: []string{"title"}, Table: "MOVIE", IDs: []storage.TupleID{all.RowIDs[4], all.RowIDs[0], all.RowIDs[5]}},
			[]string{"Blade Runner", "Match Point", "Unknown"}},
	} {
		for _, limit := range []int{0, 2, 10} {
			t.Run(fmt.Sprintf("%s/LIMIT %d", path.name, limit), func(t *testing.T) {
				want := path.want[:min(limit, len(path.want))]
				st := *path.st
				st.Limit = limit
				res := query(t, e, &st)
				if got := titles(res); !slices.Equal(got, want) || len(res.RowIDs) != len(want) {
					t.Errorf("%s LIMIT %d: %v (%d ids), want %v", path.name, limit, got, len(res.RowIDs), want)
				}
			})
		}
	}
}

// TestDelete: a tuple deleted from the database leaves every access path — the
// scan, the rowid fetch and the hash probe.
func TestDelete(t *testing.T) {
	e := testEngine(t)
	gone := query(t, e, in(nil, "did", storage.Int(2))).RowIDs
	for _, id := range gone {
		if ok, err := e.Database().Delete("MOVIE", id); !ok || err != nil {
			t.Fatalf("Delete(%d) = %v, %v", id, ok, err)
		}
	}
	if left := query(t, e, &SelectStmt{Table: "MOVIE", Limit: -1}); len(left.Rows) != 4 {
		t.Errorf("remaining = %v", titles(left))
	}
	if res := query(t, e, &SelectStmt{Table: "MOVIE", IDs: gone, Limit: -1}); len(res.Rows) != 0 {
		t.Errorf("rowid fetch of deleted tuples: %v", titles(res))
	}
	res := query(t, e, in(nil, "did", storage.Int(1), storage.Int(2)))
	if want := []string{"Match Point", "Melinda and Melinda", "Anything Else"}; !slices.Equal(titles(res), want) || res.Stats.Scanned != 0 {
		t.Errorf("probe after delete: %v %+v, want %v from the index", titles(res), res.Stats, want)
	}
}

// TestUpdateMaintainsIndexes: an update through the database moves the tuple
// between posting lists; the probe finds it under its new value only.
func TestUpdateMaintainsIndexes(t *testing.T) {
	e := testEngine(t)
	rel := e.Database().Relation("MOVIE")
	id := query(t, e, in(nil, "mid", storage.Int(1))).RowIDs[0]
	old, _ := rel.Get(id)
	vals := append([]storage.Value(nil), old.Values...)
	vals[rel.Schema().ColumnIndex("did")] = storage.Int(2)
	if err := e.Database().Update("MOVIE", id, vals); err != nil {
		t.Fatal(err)
	}
	res := query(t, e, in([]string{"title"}, "did", storage.Int(2)))
	if want := []string{"Match Point", "Alien", "Blade Runner"}; !slices.Equal(titles(res), want) {
		t.Errorf("did = 2: %v, want %v", titles(res), want)
	}
	if res.Stats.Scanned != 0 {
		t.Error("index not used after update")
	}
	res = query(t, e, in([]string{"title"}, "did", storage.Int(1)))
	if want := []string{"Melinda and Melinda", "Anything Else"}; !slices.Equal(titles(res), want) {
		t.Errorf("did = 1 after the update: %v, want %v (stale posting)", titles(res), want)
	}
}

// TestCreateIndexServesProbes: an index created on a loaded relation turns the
// scan of an equality on its column into a probe with the same rows; one on a
// column the relation lacks is refused.
func TestCreateIndexServesProbes(t *testing.T) {
	e := testEngine(t)
	st := in([]string{"title"}, "year", storage.Int(2005))
	before := query(t, e, st)
	if before.Stats.Scanned == 0 {
		t.Fatalf("year is indexed before CreateIndex: %+v", before.Stats)
	}
	rel := e.Database().Relation("MOVIE")
	if err := rel.CreateIndex("year"); err != nil {
		t.Fatal(err)
	}
	res := query(t, e, st)
	if res.Stats.Scanned != 0 || res.Stats.IndexLookups != 1 || !slices.Equal(titles(res), titles(before)) {
		t.Errorf("after CreateIndex: %v %+v, want %v from one probe", titles(res), res.Stats, titles(before))
	}
	if err := rel.CreateIndex("nope"); err == nil {
		t.Error("index on missing column accepted")
	}
}

// TestPlannerEquivalence: for random probes with random exclusions over a
// table indexed on one column, the index path and a forced scan return the
// same rows.
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
		m := storage.TupleID(2 + r.Intn(4))
		exclude := idSet{}
		for id := storage.TupleID(1); id <= 600; id++ {
			exclude[id] = (id-1)/2%m == 0 // R's tuple and its RS twin alike
		}
		st := &SelectStmt{Columns: []string{"id"}, Col: "k", Values: []storage.Value{k1, k2}, Exclude: exclude, Limit: -1}
		st.Table = "R"
		a := query(t, e, st)
		scan := *st
		scan.Table = "RS"
		b := query(t, e, &scan)
		if !reflect.DeepEqual(values(a.Rows), values(b.Rows)) {
			t.Fatalf("trial %d: index path %v != scan path %v", trial, values(a.Rows), values(b.Rows))
		}
		if a.Stats.Scanned != 0 {
			t.Fatalf("trial %d: expected index path, scanned %d", trial, a.Stats.Scanned)
		}
	}
}
