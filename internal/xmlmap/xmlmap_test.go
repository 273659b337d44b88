package xmlmap

import (
	"sort"
	"strings"
	"testing"

	"precis"
	"precis/internal/storage"
)

const bibXML = `<?xml version="1.0"?>
<bibliography>
  <book year="1974" pages="341">
    <title>The Dispossessed</title>
    <publisher>Harper</publisher>
    <author>
      <name>Ursula K. Le Guin</name>
      <country>USA</country>
    </author>
    <keyword>anarchism</keyword>
    <keyword>utopia</keyword>
  </book>
  <book year="1972">
    <title>Invisible Cities</title>
    <publisher>Einaudi</publisher>
    <author>
      <name>Italo Calvino</name>
      <country>Italy</country>
    </author>
    <keyword>cities</keyword>
  </book>
</bibliography>`

func shred(t *testing.T, doc string) *Result {
	t.Helper()
	res, err := Shred(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestShredStructure(t *testing.T) {
	res := shred(t, bibXML)
	names := res.DB.RelationNames()
	sort.Strings(names)
	want := []string{"AUTHOR", "BIBLIOGRAPHY", "BOOK", "KEYWORD"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("relations = %v", names)
	}
	if res.Root != "BIBLIOGRAPHY" {
		t.Errorf("root = %q", res.Root)
	}
	// Single-occurrence leaf children folded into columns.
	book := res.DB.Relation("BOOK").Schema()
	for _, col := range []string{"title", "publisher", "year", "pages"} {
		if !book.HasColumn(col) {
			t.Errorf("BOOK lacks folded column %s (%s)", col, book)
		}
	}
	// Repeated leaf children become relations.
	if res.DB.Relation("KEYWORD").Len() != 3 {
		t.Errorf("KEYWORD tuples = %d", res.DB.Relation("KEYWORD").Len())
	}
	// Author name/country folded into AUTHOR.
	author := res.DB.Relation("AUTHOR").Schema()
	if !author.HasColumn("name") || !author.HasColumn("country") {
		t.Errorf("AUTHOR schema = %s", author)
	}
	// Referential integrity holds.
	if v := storage.CheckIntegrity(res.DB); len(v) != 0 {
		t.Errorf("violations: %v", v)
	}
	if err := res.Graph.Validate(res.DB); err != nil {
		t.Error(err)
	}
}

func TestShredValues(t *testing.T) {
	res := shred(t, bibXML)
	book := res.DB.Relation("BOOK")
	ti := book.Schema().ColumnIndex("title")
	yi := book.Schema().ColumnIndex("year")
	var titles []string
	book.Scan(func(tu storage.Tuple) bool {
		titles = append(titles, tu.Values[ti].AsString()+"/"+tu.Values[yi].AsString())
		return true
	})
	sort.Strings(titles)
	want := []string{"Invisible Cities/1972", "The Dispossessed/1974"}
	if strings.Join(titles, "|") != strings.Join(want, "|") {
		t.Errorf("titles = %v", titles)
	}
	// The second book has no pages attribute: NULL, not empty string.
	pi := book.Schema().ColumnIndex("pages")
	book.Scan(func(tu storage.Tuple) bool {
		if tu.Values[ti].AsString() == "Invisible Cities" && !tu.Values[pi].IsNull() {
			t.Errorf("pages = %v, want NULL", tu.Values[pi])
		}
		return true
	})
}

// TestPrecisOverXML is the headline: a précis query over an XML document
// through the standard pipeline.
func TestPrecisOverXML(t *testing.T) {
	res := shred(t, bibXML)
	eng, err := precis.New(res.DB, res.Graph)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Query([]string{"Le Guin"}, precis.Options{
		Degree:      precis.MinPathWeight(0.5),
		Cardinality: precis.MaxTuplesPerRelation(10),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The précis around the author includes her book and its keywords.
	if err := storage.VerifySubDatabase(res.DB, ans.Database); err != nil {
		t.Fatal(err)
	}
	book := ans.Database.Relation("BOOK")
	if book == nil || book.Len() != 1 {
		t.Fatalf("BOOK in answer = %v", ans.Database.RelationNames())
	}
	ti := book.Schema().ColumnIndex("title")
	if got := tuplesOf(book)[0].Values[ti].AsString(); got != "The Dispossessed" {
		t.Errorf("book = %q", got)
	}
	kw := ans.Database.Relation("KEYWORD")
	if kw == nil || kw.Len() != 2 {
		t.Errorf("keywords = %v", kw)
	}
	// Calvino's book must not leak in.
	if book.Len() != 1 {
		t.Error("unrelated book leaked")
	}
	// The narrative mentions the author and the book.
	if !strings.Contains(ans.Narrative, "Ursula K. Le Guin") ||
		!strings.Contains(ans.Narrative, "The Dispossessed") {
		t.Errorf("narrative = %q", ans.Narrative)
	}
}

func TestShredErrors(t *testing.T) {
	cases := []string{
		``,
		`<a><b></a>`,
		`<a/><b/>`,
		// Same element name under two parents.
		`<r><x><name>1</name><name>2</name></x><y><name>3</name><name>4</name></y></r>`,
	}
	for _, doc := range cases {
		if _, err := Shred(strings.NewReader(doc)); err == nil {
			t.Errorf("Shred(%q) accepted", doc)
		}
	}
}

func TestShredTextContent(t *testing.T) {
	res := shred(t, `<notes><note author="kim">remember the   milk</note><note>two</note></notes>`)
	note := res.DB.Relation("NOTE")
	if note.Len() != 2 {
		t.Fatalf("notes = %d", note.Len())
	}
	ti := note.Schema().ColumnIndex("text")
	ai := note.Schema().ColumnIndex("author")
	first := note.Tuples()[0]
	if first.Values[ti].AsString() != "remember the milk" {
		t.Errorf("text = %q", first.Values[ti])
	}
	if first.Values[ai].AsString() != "kim" {
		t.Errorf("author = %q", first.Values[ai])
	}
	// Heading prefers the text column.
	if res.Graph.Relation("NOTE").Heading != "text" {
		t.Errorf("heading = %q", res.Graph.Relation("NOTE").Heading)
	}
}

func TestColumnNameSanitizer(t *testing.T) {
	cases := map[string]string{
		"title":      "title",
		"pub-date":   "pub_date",
		"1bad":       "_bad",
		"ns:attr":    "ns_attr",
		"":           "x",
		"with space": "with_space",
	}
	for in, want := range cases {
		if got := columnName(in); got != want {
			t.Errorf("columnName(%q) = %q, want %q", in, got, want)
		}
	}
}

// scanTuples is Relation.Scan on any relation, a result relation included.
func scanTuples(rel storage.Table, fn func(storage.Tuple) bool) {
	rel.ScanRows(func(id storage.TupleID, row storage.Row) bool {
		return fn(storage.Tuple{ID: id, Values: row.Values()})
	})
}

// tuplesOf is Relation.Tuples on any relation.
func tuplesOf(rel storage.Table) []storage.Tuple {
	var out []storage.Tuple
	scanTuples(rel, func(tu storage.Tuple) bool {
		out = append(out, tu)
		return true
	})
	return out
}
