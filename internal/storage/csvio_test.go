package storage

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// exportFixture builds a database exercising every type, NULLs, tricky
// strings, a primary key, a foreign key and an extra index.
func exportFixture(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("fixture")
	db.MustCreateRelation(MustSchema("P", "id",
		Column{"id", TypeInt},
		Column{"name", TypeString},
		Column{"score", TypeFloat},
		Column{"active", TypeBool}))
	db.MustCreateRelation(MustSchema("C", "",
		Column{"pid", TypeInt},
		Column{"note", TypeString}))
	if err := db.AddForeignKey(ForeignKey{"C", "pid", "P", "id"}); err != nil {
		t.Fatal(err)
	}
	ins := func(rel string, vals ...Value) {
		if _, err := db.Insert(rel, vals...); err != nil {
			t.Fatal(err)
		}
	}
	ins("P", Int(1), String("plain"), Float(1.5), Bool(true))
	ins("P", Int(2), String("with, comma and \"quotes\""), Float(-0.25), Bool(false))
	ins("P", Int(3), String(`\N literal backslash-N`), Null, Null)
	ins("P", Int(4), Null, Float(0), Bool(true))
	ins("P", Int(5), String("newline\ninside"), Float(3), Bool(false))
	ins("C", Int(1), String("child of one"))
	ins("C", Int(3), Null)
	if err := db.Relation("C").CreateIndex("pid"); err != nil {
		t.Fatal(err)
	}
	return db
}

// assertDatabasesEqual compares schemas, keys, indexes, foreign keys and
// every tuple (including ids).
func assertDatabasesEqual(t *testing.T, a, b *Database) {
	t.Helper()
	if !reflect.DeepEqual(a.RelationNames(), b.RelationNames()) {
		t.Fatalf("relations: %v vs %v", a.RelationNames(), b.RelationNames())
	}
	if !reflect.DeepEqual(a.ForeignKeys(), b.ForeignKeys()) {
		t.Fatalf("foreign keys differ")
	}
	for _, name := range a.RelationNames() {
		ra, rb := a.Relation(name), b.Relation(name)
		if ra.Schema().String() != rb.Schema().String() {
			t.Fatalf("%s schema: %s vs %s", name, ra.Schema(), rb.Schema())
		}
		if !reflect.DeepEqual(ra.IndexedColumns(), rb.IndexedColumns()) {
			t.Fatalf("%s indexes: %v vs %v", name, ra.IndexedColumns(), rb.IndexedColumns())
		}
		ta, tb := ra.Tuples(), rb.Tuples()
		if len(ta) != len(tb) {
			t.Fatalf("%s: %d vs %d tuples", name, len(ta), len(tb))
		}
		for i := range ta {
			if ta[i].ID != tb[i].ID {
				t.Fatalf("%s tuple %d: id %d vs %d", name, i, ta[i].ID, tb[i].ID)
			}
			for j := range ta[i].Values {
				va, vb := ta[i].Values[j], tb[i].Values[j]
				if va.IsNull() != vb.IsNull() || (!va.IsNull() && !va.Equal(vb)) {
					t.Fatalf("%s tuple %d col %d: %v vs %v", name, i, j, va, vb)
				}
			}
		}
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	db := exportFixture(t)
	dir := t.TempDir()
	if err := Export(db, dir); err != nil {
		t.Fatal(err)
	}
	// The expected files exist.
	for _, f := range []string{"manifest.json", "P.csv", "C.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
	}
	back, err := Import(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertDatabasesEqual(t, db, back)
	// New inserts after import continue from fresh ids.
	id, err := back.Insert("C", Int(2), String("new child"))
	if err != nil {
		t.Fatal(err)
	}
	if id <= 7 {
		t.Errorf("post-import id %d collides with imported ids", id)
	}
}

func TestImportRejectsDanglingReferences(t *testing.T) {
	db := exportFixture(t)
	dir := t.TempDir()
	if err := Export(db, dir); err != nil {
		t.Fatal(err)
	}
	// Corrupt: point a child at a missing parent.
	path := filepath.Join(dir, "C.csv")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := strings.Replace(string(blob), ",1,", ",99,", 1)
	if corrupted == string(blob) {
		t.Fatal("corruption did not apply")
	}
	if err := os.WriteFile(path, []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Import(dir); err == nil {
		t.Error("dangling reference accepted")
	}
}

func TestImportErrors(t *testing.T) {
	if _, err := Import(t.TempDir()); err == nil {
		t.Error("empty dir accepted")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Import(dir); err == nil {
		t.Error("bad manifest accepted")
	}
	// Manifest naming a missing CSV.
	dir2 := t.TempDir()
	m := `{"name":"x","relations":[{"name":"R","columns":[{"name":"a","type":"INT"}]}]}`
	if err := os.WriteFile(filepath.Join(dir2, "manifest.json"), []byte(m), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Import(dir2); err == nil {
		t.Error("missing relation file accepted")
	}
	// Bad type name.
	dir3 := t.TempDir()
	m3 := `{"name":"x","relations":[{"name":"R","columns":[{"name":"a","type":"WIBBLE"}]}]}`
	if err := os.WriteFile(filepath.Join(dir3, "manifest.json"), []byte(m3), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Import(dir3); err == nil {
		t.Error("bad type accepted")
	}
}

func TestCellEncodingProperty(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 5000; i++ {
		v := randomValue(r)
		var ct ColType
		switch v.Kind() {
		case KindInt:
			ct = TypeInt
		case KindFloat:
			ct = TypeFloat
		case KindString:
			ct = TypeString
		case KindBool:
			ct = TypeBool
		default:
			ct = TypeString
		}
		got, err := decodeCell(encodeCell(v), ct)
		if err != nil {
			t.Fatalf("decode(encode(%v)): %v", v, err)
		}
		if v.IsNull() != got.IsNull() || (!v.IsNull() && !v.Equal(got)) {
			t.Fatalf("round trip %v -> %v", v, got)
		}
	}
	// The tricky literals.
	for _, s := range []string{`\N`, `\\N`, `\`, "", "plain"} {
		got, err := decodeCell(encodeCell(String(s)), TypeString)
		if err != nil {
			t.Fatal(err)
		}
		if got.AsString() != s {
			t.Errorf("string %q round-tripped to %q", s, got.AsString())
		}
	}
}

// TestImportMalformedRowDiagnostics pins the loader's error reporting: every
// malformation names the file, the 1-based csv line, and the offending
// column — the difference between a five-second fix and a binary search
// over a fixture. One sub-test per malformation class.
func TestImportMalformedRowDiagnostics(t *testing.T) {
	// A minimal two-column relation: id INT key, plus name TEXT, year INT.
	const manifest = `{"name":"x","relations":[{"name":"R","columns":[` +
		`{"name":"name","type":"TEXT"},{"name":"year","type":"INT"}],"key":""}]}`
	cases := []struct {
		name string
		csv  string
		want []string // substrings the error must contain
	}{
		{
			name: "bad-int-cell",
			csv:  "__id,name,year\n1,alpha,1999\n2,beta,not-a-year\n",
			want: []string{"R.csv:3", `column year`, "field 3", `"not-a-year"`},
		},
		{
			name: "bad-tuple-id",
			csv:  "__id,name,year\nxx,alpha,1999\n",
			want: []string{"R.csv:2", "column __id", `bad tuple id "xx"`},
		},
		{
			name: "row-too-short",
			csv:  "__id,name,year\n1,alpha,1999\n2,beta\n",
			want: []string{"R.csv:3", "2 fields", "wants 3", "name,year"},
		},
		{
			name: "row-too-long",
			csv:  "__id,name,year\n1,alpha,1999,extra\n",
			want: []string{"R.csv:2", "4 fields", "wants 3"},
		},
		{
			name: "header-mismatch",
			csv:  "__id,name,wrong\n1,alpha,1999\n",
			want: []string{"R.csv:1", `"wrong"`, `manifest says "year"`},
		},
		{
			name: "missing-header",
			csv:  "",
			want: []string{"R.csv", "missing header"},
		},
		{
			name: "duplicate-id",
			csv:  "__id,name,year\n1,alpha,1999\n1,beta,2000\n",
			want: []string{"R.csv:3"},
		},
		{
			// A quoted newline inside a cell occupies two physical lines;
			// the csv parser's line tracking must still point at the real
			// start of the bad row.
			name: "bad-cell-after-multiline-row",
			csv:  "__id,name,year\n1,\"two\nlines\",1999\n2,beta,oops\n",
			want: []string{"R.csv:4", "column year", `"oops"`},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(manifest), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "R.csv"), []byte(tc.csv), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Import(dir)
			if err == nil {
				t.Fatalf("malformed input accepted")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q\n  missing substring %q", err, w)
				}
			}
		})
	}
}
