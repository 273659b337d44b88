package sqlx

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"precis/internal/storage"
)

// testEngine builds a MOVIE table with a PK and an index on did.
func testEngine(t *testing.T) *Engine {
	t.Helper()
	db := storage.NewDatabase("test")
	e := NewEngine(db)
	e.MustExec("CREATE TABLE MOVIE (mid INT, title TEXT, year INT, did INT, PRIMARY KEY (mid))")
	rows := []string{
		"INSERT INTO MOVIE VALUES (1, 'Match Point', 2005, 1)",
		"INSERT INTO MOVIE VALUES (2, 'Melinda and Melinda', 2004, 1)",
		"INSERT INTO MOVIE VALUES (3, 'Anything Else', 2003, 1)",
		"INSERT INTO MOVIE VALUES (4, 'Alien', 1979, 2)",
		"INSERT INTO MOVIE VALUES (5, 'Blade Runner', 1982, 2)",
		"INSERT INTO MOVIE VALUES (6, 'Unknown', 2000, NULL)",
	}
	for _, r := range rows {
		e.MustExec(r)
	}
	if err := db.Relation("MOVIE").CreateIndex("did"); err != nil {
		t.Fatal(err)
	}
	return e
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
		out = append(out, row[ti].AsString())
	}
	return out
}

func TestSelectAll(t *testing.T) {
	e := testEngine(t)
	res := e.MustExec("SELECT * FROM MOVIE")
	if len(res.Rows) != 6 || len(res.Columns) != 4 {
		t.Fatalf("rows=%d cols=%v", len(res.Rows), res.Columns)
	}
	if len(res.RowIDs) != 6 {
		t.Fatalf("RowIDs = %v", res.RowIDs)
	}
}

func TestSelectProjection(t *testing.T) {
	e := testEngine(t)
	res := e.MustExec("SELECT title, year FROM MOVIE WHERE mid = 1")
	if !reflect.DeepEqual(res.Columns, []string{"title", "year"}) {
		t.Errorf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "Match Point" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestSelectRowIDPseudoColumn(t *testing.T) {
	e := testEngine(t)
	res := e.MustExec("SELECT rowid, title FROM MOVIE WHERE year = 1979")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].AsInt() != int64(res.RowIDs[0]) {
		t.Error("rowid column disagrees with RowIDs")
	}
}

func TestSelectByRowID(t *testing.T) {
	e := testEngine(t)
	all := e.MustExec("SELECT rowid FROM MOVIE")
	id := all.Rows[2][0].AsInt()
	res := e.MustExec("SELECT title FROM MOVIE WHERE rowid = " + all.Rows[2][0].String())
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// rowid access path should not scan.
	if res.Stats.Scanned != 0 {
		t.Errorf("rowid access scanned %d tuples", res.Stats.Scanned)
	}
	_ = id
}

func TestSelectInListUsesIndex(t *testing.T) {
	e := testEngine(t)
	res := e.MustExec("SELECT title FROM MOVIE WHERE did IN (1, 2)")
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
	res := e.MustExec("SELECT title FROM MOVIE WHERE year > 2000")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", titles(res))
	}
	if res.Stats.Scanned == 0 {
		t.Error("expected a scan for unindexed predicate")
	}
}

func TestSelectLike(t *testing.T) {
	e := testEngine(t)
	res := e.MustExec("SELECT title FROM MOVIE WHERE title LIKE '%Melinda%'")
	if got := titles(res); !reflect.DeepEqual(got, []string{"Melinda and Melinda"}) {
		t.Errorf("titles = %v", got)
	}
	res = e.MustExec("SELECT title FROM MOVIE WHERE title NOT LIKE '%a%' AND title NOT LIKE '%A%'")
	for _, title := range titles(res) {
		if strings.ContainsAny(title, "aA") {
			t.Errorf("NOT LIKE returned %q", title)
		}
	}
}

func TestSelectIsNull(t *testing.T) {
	e := testEngine(t)
	res := e.MustExec("SELECT title FROM MOVIE WHERE did IS NULL")
	if got := titles(res); !reflect.DeepEqual(got, []string{"Unknown"}) {
		t.Errorf("titles = %v", got)
	}
	res = e.MustExec("SELECT title FROM MOVIE WHERE did IS NOT NULL")
	if len(res.Rows) != 5 {
		t.Errorf("IS NOT NULL rows = %d", len(res.Rows))
	}
}

func TestNullComparisonsNeverMatch(t *testing.T) {
	e := testEngine(t)
	res := e.MustExec("SELECT title FROM MOVIE WHERE did = NULL")
	if len(res.Rows) != 0 {
		t.Errorf("did = NULL matched %v", titles(res))
	}
	res = e.MustExec("SELECT title FROM MOVIE WHERE did <> 1")
	// NULL did row must not match <> either.
	if len(res.Rows) != 2 {
		t.Errorf("did <> 1 matched %v", titles(res))
	}
}

func TestOrderByAndLimit(t *testing.T) {
	e := testEngine(t)
	res := e.MustExec("SELECT title, year FROM MOVIE ORDER BY year DESC LIMIT 2")
	if got := titles(res); !reflect.DeepEqual(got, []string{"Match Point", "Melinda and Melinda"}) {
		t.Errorf("titles = %v", got)
	}
	res = e.MustExec("SELECT title FROM MOVIE ORDER BY did DESC, year ASC")
	_ = res
}

func TestOrderByRowID(t *testing.T) {
	e := testEngine(t)
	res := e.MustExec("SELECT title FROM MOVIE ORDER BY rowid DESC LIMIT 1")
	if got := titles(res); !reflect.DeepEqual(got, []string{"Unknown"}) {
		t.Errorf("titles = %v", got)
	}
}

func TestEarlyLimitStopsScan(t *testing.T) {
	e := testEngine(t)
	res := e.MustExec("SELECT title FROM MOVIE LIMIT 2")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Stats.Scanned > 2 {
		t.Errorf("scanned %d tuples despite LIMIT 2", res.Stats.Scanned)
	}
}

func TestDistinct(t *testing.T) {
	e := testEngine(t)
	res := e.MustExec("SELECT DISTINCT did FROM MOVIE WHERE did IS NOT NULL ORDER BY did")
	if len(res.Rows) != 2 || res.Rows[0][0].AsInt() != 1 || res.Rows[1][0].AsInt() != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestDelete(t *testing.T) {
	e := testEngine(t)
	res := e.MustExec("DELETE FROM MOVIE WHERE did = 2")
	if res.Affected != 2 {
		t.Fatalf("Affected = %d", res.Affected)
	}
	left := e.MustExec("SELECT * FROM MOVIE")
	if len(left.Rows) != 4 {
		t.Errorf("remaining = %d", len(left.Rows))
	}
}

func TestInsertTypeError(t *testing.T) {
	e := testEngine(t)
	if _, err := e.Exec("INSERT INTO MOVIE VALUES ('x', 'y', 1, 1)"); err == nil {
		t.Error("type error accepted")
	}
	if _, err := e.Exec("INSERT INTO MOVIE VALUES (1, 'dup pk', 2000, 1)"); err == nil {
		t.Error("duplicate PK accepted")
	}
}

func TestExecErrors(t *testing.T) {
	e := testEngine(t)
	bad := []string{
		"SELECT * FROM NOPE",
		"SELECT nope FROM MOVIE",
		"SELECT * FROM MOVIE WHERE nope = 1",
		"SELECT * FROM MOVIE ORDER BY nope",
		"DELETE FROM NOPE",
		"CREATE TABLE MOVIE (x INT)",
	}
	for _, src := range bad {
		if _, err := e.Exec(src); err == nil {
			t.Errorf("Exec(%q) accepted", src)
		}
	}
}

func TestCumulativeStats(t *testing.T) {
	e := testEngine(t)
	e.ResetStats()
	e.MustExec("SELECT * FROM MOVIE WHERE did IN (1, 2)")
	e.MustExec("SELECT * FROM MOVIE WHERE did = 1")
	total := e.TotalStats()
	if total.IndexLookups != 3 {
		t.Errorf("cumulative IndexLookups = %d, want 3", total.IndexLookups)
	}
	if total.TupleReads != 8 {
		t.Errorf("cumulative TupleReads = %d, want 8", total.TupleReads)
	}
}

// TestPlannerEquivalence: for random predicates over a table indexed on one
// column, the index path and a forced scan return the same multiset of rows.
func TestPlannerEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	db := storage.NewDatabase("prop")
	e := NewEngine(db)
	e.MustExec("CREATE TABLE R (id INT, k INT, s TEXT, PRIMARY KEY (id))")
	for i := 0; i < 300; i++ {
		k := r.Intn(10)
		s := string(rune('a' + r.Intn(5)))
		e.MustExec("INSERT INTO R VALUES (" +
			storage.Int(int64(i)).SQL() + ", " +
			storage.Int(int64(k)).SQL() + ", " +
			storage.String(s).SQL() + ")")
	}
	if err := db.Relation("R").CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	// Build an identical unindexed table to force scans.
	e.MustExec("CREATE TABLE RS (id INT, k INT, s TEXT)")
	base := e.MustExec("SELECT id, k, s FROM R")
	for _, row := range base.Rows {
		e.MustExec("INSERT INTO RS VALUES (" + row[0].SQL() + ", " + row[1].SQL() + ", " + row[2].SQL() + ")")
	}
	for trial := 0; trial < 100; trial++ {
		k1 := r.Intn(10)
		k2 := r.Intn(10)
		s := string(rune('a' + r.Intn(5)))
		where := " WHERE k IN (" + storage.Int(int64(k1)).SQL() + ", " + storage.Int(int64(k2)).SQL() +
			") AND s = " + storage.String(s).SQL()
		a := e.MustExec("SELECT id FROM R" + where + " ORDER BY id")
		b := e.MustExec("SELECT id FROM RS" + where + " ORDER BY id")
		if !reflect.DeepEqual(a.Rows, b.Rows) {
			t.Fatalf("trial %d: index path %v != scan path %v", trial, a.Rows, b.Rows)
		}
		if a.Stats.Scanned != 0 {
			t.Fatalf("trial %d: expected index path, scanned %d", trial, a.Stats.Scanned)
		}
	}
}
