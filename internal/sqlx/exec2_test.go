package sqlx

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"precis/internal/storage"
)

func TestUpdate(t *testing.T) {
	e := testEngine(t)
	res := e.MustExec("UPDATE MOVIE SET year = 2010 WHERE did = 1")
	if res.Affected != 3 {
		t.Fatalf("Affected = %d", res.Affected)
	}
	check := e.MustExec("SELECT title FROM MOVIE WHERE year = 2010 ORDER BY title")
	if len(check.Rows) != 3 {
		t.Errorf("updated rows = %v", titles(check))
	}
	// Multi-column set.
	e.MustExec("UPDATE MOVIE SET title = 'Renamed', year = 1999 WHERE mid = 4")
	got := e.MustExec("SELECT title, year FROM MOVIE WHERE mid = 4")
	if got.Rows[0].Value(0).AsString() != "Renamed" || got.Rows[0].Value(1).AsInt() != 1999 {
		t.Errorf("row = %v", got.Rows[0])
	}
	// Update with no WHERE hits everything.
	res = e.MustExec("UPDATE MOVIE SET did = NULL")
	if res.Affected != 6 {
		t.Errorf("Affected = %d", res.Affected)
	}
}

func TestUpdateMaintainsIndexes(t *testing.T) {
	e := testEngine(t)
	e.MustExec("UPDATE MOVIE SET did = 2 WHERE mid = 1")
	res := e.MustExec("SELECT title FROM MOVIE WHERE did = 2 ORDER BY title")
	want := []string{"Alien", "Blade Runner", "Match Point"}
	if got := titles(res); !reflect.DeepEqual(got, want) {
		t.Errorf("titles = %v", got)
	}
	if res.Stats.Scanned != 0 {
		t.Error("index not used after update")
	}
	// The old posting is gone.
	res = e.MustExec("SELECT title FROM MOVIE WHERE did = 1 ORDER BY title")
	for _, title := range titles(res) {
		if title == "Match Point" {
			t.Error("stale index entry after update")
		}
	}
}

func TestUpdatePrimaryKeyRules(t *testing.T) {
	e := testEngine(t)
	if _, err := e.Exec("UPDATE MOVIE SET mid = 2 WHERE mid = 1"); err == nil {
		t.Error("duplicate key update accepted")
	}
	if _, err := e.Exec("UPDATE MOVIE SET mid = NULL WHERE mid = 1"); err == nil {
		t.Error("NULL key update accepted")
	}
	// Updating a key to a fresh value is fine.
	if _, err := e.Exec("UPDATE MOVIE SET mid = 100 WHERE mid = 1"); err != nil {
		t.Errorf("fresh key update rejected: %v", err)
	}
	// No-op key update (same value) is fine too.
	if _, err := e.Exec("UPDATE MOVIE SET mid = 100, year = 2011 WHERE mid = 100"); err != nil {
		t.Errorf("same-key update rejected: %v", err)
	}
}

func TestUpdateErrors(t *testing.T) {
	e := testEngine(t)
	for _, q := range []string{
		"UPDATE NOPE SET a = 1",
		"UPDATE MOVIE SET nope = 1",
		"UPDATE MOVIE SET title = 5",
		"UPDATE MOVIE SET year = 1 WHERE nope = 2",
	} {
		if _, err := e.Exec(q); err == nil {
			t.Errorf("Exec(%q) accepted", q)
		}
	}
}

func TestDropTable(t *testing.T) {
	e := testEngine(t)
	if _, err := e.Exec("DROP TABLE MOVIE"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec("SELECT * FROM MOVIE"); err == nil {
		t.Error("dropped table still queryable")
	}
	if _, err := e.Exec("DROP TABLE MOVIE"); err == nil {
		t.Error("double drop accepted")
	}
	// Recreate under the same name works.
	if _, err := e.Exec("CREATE TABLE MOVIE (x INT)"); err != nil {
		t.Errorf("recreate: %v", err)
	}
}

func TestLimitOffset(t *testing.T) {
	e := testEngine(t)
	res := e.MustExec("SELECT title FROM MOVIE ORDER BY mid LIMIT 2 OFFSET 1")
	want := []string{"Melinda and Melinda", "Anything Else"}
	if got := titles(res); !reflect.DeepEqual(got, want) {
		t.Errorf("titles = %v", got)
	}
	// Offset past the end yields nothing.
	res = e.MustExec("SELECT title FROM MOVIE LIMIT 5 OFFSET 100")
	if len(res.Rows) != 0 {
		t.Errorf("rows = %v", titles(res))
	}
	// Early-limit path must account for the offset.
	res = e.MustExec("SELECT title FROM MOVIE LIMIT 2 OFFSET 2")
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", titles(res))
	}
	if _, err := e.Exec("SELECT * FROM MOVIE LIMIT 2 OFFSET -1"); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := e.Exec("SELECT * FROM MOVIE LIMIT 2 OFFSET x"); err == nil {
		t.Error("non-integer offset accepted")
	}
}

func TestExplain(t *testing.T) {
	e := testEngine(t)
	plan := func(q string) string {
		res := e.MustExec(q)
		if len(res.Rows) != 1 || res.Columns[0] != "plan" {
			t.Fatalf("explain result = %+v", res)
		}
		return res.Rows[0].Value(0).AsString()
	}
	if got := plan("EXPLAIN SELECT * FROM MOVIE WHERE did IN (1, 2)"); !strings.Contains(got, "index(did) probes=2") {
		t.Errorf("plan = %q", got)
	}
	if got := plan("EXPLAIN SELECT * FROM MOVIE WHERE rowid = 3"); !strings.Contains(got, "rowid") {
		t.Errorf("plan = %q", got)
	}
	if got := plan("EXPLAIN SELECT * FROM MOVIE WHERE year > 2000"); got != "scan" {
		t.Errorf("plan = %q", got)
	}
	// Conjunct with an indexed equality beats the scan.
	if got := plan("EXPLAIN SELECT * FROM MOVIE WHERE year > 2000 AND did = 1"); !strings.Contains(got, "index(did)") {
		t.Errorf("plan = %q", got)
	}
	if _, err := e.Exec("EXPLAIN SELECT * FROM NOPE"); err == nil {
		t.Error("explain of missing table accepted")
	}
	if _, err := e.Exec("EXPLAIN SELECT nope FROM MOVIE WHERE nope = 1"); err == nil {
		t.Error("explain of invalid predicate accepted")
	}
	if _, err := e.Exec("EXPLAIN DELETE FROM MOVIE"); err == nil {
		t.Error("EXPLAIN of non-SELECT accepted")
	}
}

func TestParseUpdateDropForms(t *testing.T) {
	bad := []string{
		"UPDATE",
		"UPDATE R",
		"UPDATE R SET",
		"UPDATE R SET a",
		"UPDATE R SET a =",
		"UPDATE R SET a = b", // non-literal rhs
		"DROP",
		"DROP R",
		"DROP TABLE",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) accepted", q)
		}
	}
	st, err := Parse("update movie set year = 2000, title = 'x' where mid = 1")
	if err != nil {
		t.Fatal(err)
	}
	up := st.(*UpdateStmt)
	if up.Table != "movie" || len(up.Set) != 2 || up.Where == nil {
		t.Errorf("update = %+v", up)
	}
}

func TestCreateIndexStatements(t *testing.T) {
	e := testEngine(t)
	if _, err := e.Exec("CREATE INDEX ON MOVIE (year)"); err != nil {
		t.Fatal(err)
	}
	res := e.MustExec("SELECT title FROM MOVIE WHERE year = 2005")
	if res.Stats.Scanned != 0 || res.Stats.IndexLookups != 1 {
		t.Errorf("hash index unused: %+v", res.Stats)
	}
	if _, err := e.Exec("CREATE INDEX ON NOPE (x)"); err == nil {
		t.Error("index on missing table accepted")
	}
	if _, err := e.Exec("CREATE INDEX ON MOVIE (nope)"); err == nil {
		t.Error("index on missing column accepted")
	}
	if _, err := e.Exec("CREATE ORDERED INDEX ON MOVIE (nope)"); err == nil {
		t.Error("ordered index on missing column accepted")
	}
}

func TestRangePlanUsesOrderedIndex(t *testing.T) {
	e := testEngine(t)
	e.MustExec("CREATE ORDERED INDEX ON MOVIE (year)")
	res := e.MustExec("SELECT title FROM MOVIE WHERE year > 2002 ORDER BY title")
	want := []string{"Anything Else", "Match Point", "Melinda and Melinda"}
	if got := titles(res); !reflect.DeepEqual(got, want) {
		t.Errorf("titles = %v", got)
	}
	if res.Stats.Scanned != 0 {
		t.Errorf("range query scanned %d tuples", res.Stats.Scanned)
	}
	// Combined bounds tighten the range.
	res = e.MustExec("SELECT title FROM MOVIE WHERE year >= 2003 AND year < 2005")
	if got := titles(res); len(got) != 2 {
		t.Errorf("titles = %v", got)
	}
	if res.Stats.Scanned != 0 {
		t.Error("combined range scanned")
	}
	// Flipped operand order still plans a range.
	res = e.MustExec("SELECT title FROM MOVIE WHERE 2002 < year")
	if len(res.Rows) != 3 || res.Stats.Scanned != 0 {
		t.Errorf("flipped range: rows=%d scanned=%d", len(res.Rows), res.Stats.Scanned)
	}
	// EXPLAIN shows the range plan.
	ex := e.MustExec("EXPLAIN SELECT title FROM MOVIE WHERE year > 2002")
	if got := ex.Rows[0].Value(0).AsString(); got != "range(year)" {
		t.Errorf("plan = %q", got)
	}
	// Residual predicates still apply after the range fetch.
	res = e.MustExec("SELECT title FROM MOVIE WHERE year > 2002 AND title LIKE 'M%'")
	if got := titles(res); len(got) != 2 {
		t.Errorf("residual filter: %v", got)
	}
}

func TestRangePlanEquivalence(t *testing.T) {
	// Random comparisons agree between range-indexed and unindexed tables.
	r := rand.New(rand.NewSource(77))
	db := storage.NewDatabase("prop")
	e := NewEngine(db)
	e.MustExec("CREATE TABLE A (id INT, k INT, PRIMARY KEY (id))")
	e.MustExec("CREATE TABLE B (id INT, k INT, PRIMARY KEY (id))")
	for i := 0; i < 400; i++ {
		k := r.Intn(50)
		e.MustExec(fmt.Sprintf("INSERT INTO A VALUES (%d, %d)", i, k))
		e.MustExec(fmt.Sprintf("INSERT INTO B VALUES (%d, %d)", i, k))
	}
	e.MustExec("CREATE ORDERED INDEX ON A (k)")
	ops := []string{"<", "<=", ">", ">="}
	for trial := 0; trial < 120; trial++ {
		op := ops[r.Intn(len(ops))]
		v := r.Intn(50)
		q := fmt.Sprintf(" WHERE k %s %d ORDER BY id", op, v)
		a := e.MustExec("SELECT id FROM A" + q)
		b := e.MustExec("SELECT id FROM B" + q)
		if !reflect.DeepEqual(values(a.Rows), values(b.Rows)) {
			t.Fatalf("trial %d (%s %d): indexed %d rows != scan %d rows", trial, op, v, len(a.Rows), len(b.Rows))
		}
		if a.Stats.Scanned != 0 {
			t.Fatalf("trial %d: indexed query scanned", trial)
		}
	}
}

func TestOrderByServedByOrderedIndex(t *testing.T) {
	e := testEngine(t)
	e.MustExec("CREATE ORDERED INDEX ON MOVIE (year)")
	res := e.MustExec("SELECT title FROM MOVIE ORDER BY year LIMIT 2")
	want := []string{"Alien", "Blade Runner"}
	if got := titles(res); !reflect.DeepEqual(got, want) {
		t.Errorf("asc = %v", got)
	}
	if res.Stats.Scanned != 0 {
		t.Errorf("scanned %d tuples for index-ordered query", res.Stats.Scanned)
	}
	res = e.MustExec("SELECT title FROM MOVIE ORDER BY year DESC LIMIT 2")
	want = []string{"Match Point", "Melinda and Melinda"}
	if got := titles(res); !reflect.DeepEqual(got, want) {
		t.Errorf("desc = %v", got)
	}
	// OFFSET composes with the index order.
	res = e.MustExec("SELECT title FROM MOVIE ORDER BY year LIMIT 2 OFFSET 2")
	if got := titles(res); !reflect.DeepEqual(got, []string{"Unknown", "Anything Else"}) {
		t.Errorf("offset = %v", got)
	}
	// A residual predicate still applies on the ordered stream.
	res = e.MustExec("SELECT title FROM MOVIE WHERE title LIKE '%e%' ORDER BY year LIMIT 2")
	for _, title := range titles(res) {
		if !strings.Contains(title, "e") {
			t.Errorf("predicate leaked %q", title)
		}
	}
}

func TestOrderByIndexSkippedWhenNulls(t *testing.T) {
	e := testEngine(t)
	e.MustExec("CREATE ORDERED INDEX ON MOVIE (did)")
	// MOVIE.did has a NULL: the ordered index cannot cover the relation,
	// so the sort path must be used and the NULL row kept (sorting first).
	res := e.MustExec("SELECT title FROM MOVIE ORDER BY did LIMIT 1")
	if got := titles(res); !reflect.DeepEqual(got, []string{"Unknown"}) {
		t.Errorf("NULL row lost: %v", got)
	}
	if len(e.MustExec("SELECT title FROM MOVIE ORDER BY did").Rows) != 6 {
		t.Error("row count changed")
	}
}

// TestOrderByIndexEquivalence: with and without the ordered index, ORDER BY
// returns identical sequences on a NULL-free column.
func TestOrderByIndexEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	db := storage.NewDatabase("prop")
	e := NewEngine(db)
	e.MustExec("CREATE TABLE A (id INT, k INT, PRIMARY KEY (id))")
	e.MustExec("CREATE TABLE B (id INT, k INT, PRIMARY KEY (id))")
	for i := 0; i < 300; i++ {
		k := r.Intn(40)
		e.MustExec(fmt.Sprintf("INSERT INTO A VALUES (%d, %d)", i, k))
		e.MustExec(fmt.Sprintf("INSERT INTO B VALUES (%d, %d)", i, k))
	}
	e.MustExec("CREATE ORDERED INDEX ON A (k)")
	for _, q := range []string{
		" ORDER BY k", " ORDER BY k DESC", " ORDER BY k LIMIT 7",
		" ORDER BY k DESC LIMIT 5 OFFSET 3",
	} {
		a := e.MustExec("SELECT k FROM A" + q)
		b := e.MustExec("SELECT k FROM B" + q)
		if len(a.Rows) != len(b.Rows) {
			t.Fatalf("%q: %d vs %d rows", q, len(a.Rows), len(b.Rows))
		}
		for i := range a.Rows {
			// Ties may order differently between the two paths (index
			// breaks ties by id; stable sort by input order, also id);
			// the sort keys themselves must agree position by position.
			if !a.Rows[i].Value(0).Equal(b.Rows[i].Value(0)) {
				t.Fatalf("%q row %d: %v vs %v", q, i, a.Rows[i].Value(0), b.Rows[i].Value(0))
			}
		}
	}
}

func TestDistinctWithOrderByUnprojectedKey(t *testing.T) {
	e := testEngine(t)
	// DISTINCT on a projected column ordered by an unprojected one: the
	// dedupe must not desynchronize the sort keys.
	res := e.MustExec("SELECT DISTINCT did FROM MOVIE WHERE did IS NOT NULL ORDER BY year DESC")
	// Years desc: 2005(did 1), 2004(1), 2003(1), 1982(2), 1979(2) ->
	// distinct dids in that order: 1, 2.
	if len(res.Rows) != 2 || res.Rows[0].Value(0).AsInt() != 1 || res.Rows[1].Value(0).AsInt() != 2 {
		t.Errorf("rows = %v", values(res.Rows))
	}
}
