package web

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strconv"
	"strings"
	"testing"

	"precis"
	"precis/internal/core"
	"precis/internal/dataset"
	"precis/internal/schemagraph"
	"precis/internal/storage"
)

// nastyStrings are the inputs encoding/json treats specially: the HTML
// characters, the JavaScript line separators, every control byte, bytes that
// are not UTF-8, and surrogate halves encoded as if they were.
func nastyStrings() []string {
	out := []string{
		"", "plain", `q"uote\slash`, "<script>&amp;</script>",
		"line\u2028sep\u2029para", "\u2027\u202a", "\x7f", "\u00e9", "\u65e5\u672c\u8a9e", "\U0001F600",
		"\xff", "a\xc0b", "\xc0\xaf", "\xe2\x80", "tail\xe2",
		"\xed\xa0\x80", "\xed\xbf\xbf", "\xed\xa0\x80\xed\xb0\x80",
	}
	var ctl strings.Builder
	for c := 0; c < 0x20; c++ {
		out = append(out, string(rune(c)))
		ctl.WriteByte(byte(c))
		ctl.WriteByte('x')
	}
	return append(out, ctl.String())
}

// wantJSONString is what encoding/json writes for s.
func wantJSONString(t testing.TB, s string) string {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(want)
}

func TestAppendJSONString(t *testing.T) {
	for _, s := range append(nastyStrings(), wordBoundaryStrings()...) {
		if got, want := string(appendJSONString(nil, s)), wantJSONString(t, s); got != want {
			t.Errorf("%q: got %s, encoding/json %s", s, got, want)
		}
	}
	// It appends: what is in dst stays.
	if got := string(appendJSONString([]byte("x="), "a<b")); got != `x="a\u003cb"` {
		t.Errorf("appended %s", got)
	}
}

// wordBoundaryStrings put each byte the escaper must look at on either side of
// the first and second word boundary (offsets 6–9 and 14–17), and a line
// separator or a piece of invalid UTF-8 across one.
func wordBoundaryStrings() []string {
	var out []string
	for _, odd := range []string{`"`, `\`, "<", ">", "&", "\x00", "\n", "\x1f", "\x7f", "\xc3\xa9", "\xff"} {
		for _, at := range []int{6, 7, 8, 9, 14, 15, 16, 17} {
			out = append(out, strings.Repeat("a", at)+odd+strings.Repeat("z", 24-at))
		}
	}
	for _, odd := range []string{"\xe2\x80\xa8", "\xe2\x80\xa9", "\xe2\x80", "\xed\xa0\x80", "\xf0\x9f\x98\x80"} {
		for _, at := range []int{5, 6, 7, 13, 14, 15} {
			out = append(out, strings.Repeat("b", at)+odd+strings.Repeat("y", 20-at))
		}
	}
	return out
}

func FuzzAppendJSONString(f *testing.F) {
	for _, s := range append(nastyStrings(), wordBoundaryStrings()...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := string(appendJSONString(nil, s)), wantJSONString(t, s); got != want {
			t.Fatalf("%q: got %s, encoding/json %s", s, got, want)
		}
	})
}

// BenchmarkAppendJSONString encodes 16 KB of narrative (the synthetic
// dataset's first director at w=0.05, card=150, repeated to the size the
// benchmark's deep workload narrates), 16 KB of prose with an escape and a
// multi-byte rune every hundred bytes or so, a 12-byte name, the size of most
// values of a body, a 6-byte value and a 4-byte column name.
func BenchmarkAppendJSONString(b *testing.B) {
	eng := syntheticEngine(b)
	ans, err := eng.QueryString(`"`+aDirector(eng)+`"`, precis.Options{Degree: precis.MinPathWeight(0.05), Cardinality: precis.MaxTuplesPerRelation(150)})
	if err != nil || len(ans.Narrative) < 1<<10 {
		b.Fatalf("a %d-byte narrative: %v", len(ans.Narrative), err)
	}
	narrative := strings.Repeat(ans.Narrative+"\n\n", 16<<10/len(ans.Narrative)+1)
	prose := strings.Repeat("Woody Allen directed \"Match Point\" (2005), a Thriller; Am\xc3\xa9lie & others followed.\n", 200)
	for _, bm := range []struct{ name, s string }{
		{"narrative", narrative[:16<<10]}, {"escapes", prose[:16<<10]}, {"name", "Scarlett Joh"}, {"value", "Comedy"}, {"column", "year"},
	} {
		b.Run(bm.name, func(b *testing.B) {
			s := bm.s
			dst := make([]byte, 0, 2*len(s))
			b.SetBytes(int64(len(s)))
			for i := 0; i < b.N; i++ {
				dst = appendJSONString(dst[:0], s)
			}
		})
	}
}

// oracleBody is the /api/search body as encoding/json writes it from the
// model struct: what appendAnswer must reproduce byte for byte.
func oracleBody(t testing.TB, ans *precis.Answer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(buildAPIAnswer(ans)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameAsOracle holds appendAnswer to the oracle on one answer.
func sameAsOracle(t *testing.T, ans *precis.Answer) []byte {
	t.Helper()
	want := oracleBody(t, ans)
	got, err := appendAnswer([]byte("kept"), ans)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("kept")) || !bytes.Equal(got[4:], want) {
		t.Fatalf("appendAnswer differs from encoding/json\n--- got ---\n%s\n--- want ---\n%s", got[4:], want)
	}
	return want
}

// syntheticEngine is the annotated default synthetic dataset (2,000 films).
func syntheticEngine(t testing.TB) *precis.Engine {
	t.Helper()
	db, err := dataset.SyntheticMovies(dataset.DefaultSyntheticConfig())
	if err != nil {
		t.Fatal(err)
	}
	g, err := dataset.PaperGraph(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.AnnotateNarrative(g); err != nil {
		t.Fatal(err)
	}
	eng, err := precis.New(db, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range dataset.StandardMacros() {
		if err := eng.DefineMacro(def); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// aDirector is the name of the first director: a query that reaches every
// relation of the graph at w=0.05.
func aDirector(eng *precis.Engine) string {
	directors := eng.Database().Relation("DIRECTOR")
	name := ""
	directors.Scan(func(t storage.Tuple) bool {
		name = t.Values[directors.Schema().ColumnIndex("dname")].AsString()
		return false
	})
	return name
}

// searchClient fetches /api/search bodies over one keep-alive connection and
// records whether each request found that connection again.
type searchClient struct {
	t      *testing.T
	ts     *httptest.Server
	reused []bool
}

func (c *searchClient) get(kv ...string) (int, []byte) {
	c.t.Helper()
	req, err := http.NewRequest(http.MethodGet, query(c.ts.URL, "/api/search", kv...), nil)
	if err != nil {
		c.t.Fatal(err)
	}
	trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) { c.reused = append(c.reused, info.Reused) }}
	resp, err := c.ts.Client().Do(req.WithContext(httptrace.WithClientTrace(req.Context(), trace)))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) || len(resp.TransferEncoding) > 0 {
		c.t.Fatalf("Content-Length %q, transfer encoding %v, body of %d bytes", cl, resp.TransferEncoding, len(body))
	}
	return resp.StatusCode, body
}

// engineAnswer runs the query of a /api/search URL on the engine directly,
// with the options the server would parse from it.
func engineAnswer(t *testing.T, eng *precis.Engine, kv ...string) *precis.Answer {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, query("", "/api/search", kv...), nil)
	opts, err := parseOptions(r.URL.Query())
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.QueryStringContext(context.Background(), r.URL.Query().Get("q"), opts)
	if err != nil {
		t.Fatal(err)
	}
	return ans
}

// TestSearchBodyMatchesEncodingJSON is the differential oracle of the
// hand-written encoder: whatever the answer, /api/search must send the bytes
// json.NewEncoder(w).Encode(buildAPIAnswer(ans)) would, under a
// Content-Length, on a connection that stays usable.
func TestSearchBodyMatchesEncodingJSON(t *testing.T) {
	example := testEngine(t)
	synthetic := syntheticEngine(t)
	engines := []struct {
		name  string
		eng   *precis.Engine
		terms []string
	}{
		{"example-movies", example, []string{`"Woody Allen"`, `"Match Point" comedy`}},
		{"synthetic-movies", synthetic, []string{`"` + aDirector(synthetic) + `"`, "Drama"}},
	}
	for _, e := range engines {
		ts := httptest.NewServer(NewServer(e.eng).Handler())
		t.Cleanup(ts.Close)
		client := &searchClient{t: t, ts: ts}
		check := func(name, must string, kv ...string) {
			t.Run(e.name+"/"+name, func(t *testing.T) {
				want := sameAsOracle(t, engineAnswer(t, e.eng, kv...))
				code, got := client.get(kv...)
				if code != http.StatusOK || !bytes.Equal(got, want) {
					t.Fatalf("status %d, body differs from encoding/json\n--- got ---\n%s\n--- want ---\n%s", code, got, want)
				}
				if !bytes.Contains(got, []byte(must)) {
					t.Fatalf("no %s in the body, so the case is not covered\n%s", must, got)
				}
			})
		}
		for _, term := range e.terms {
			for _, strategy := range []string{"naiveq", "roundrobin"} {
				for _, w := range []string{"0.8", "0.05"} {
					for _, card := range []string{"1", "150"} {
						check(fmt.Sprintf("%s/%s/w=%s/card=%s", term, strategy, w, card), `"rows":[[`,
							"q", term, "strategy", strategy, "w", w, "card", card)
					}
				}
			}
		}
		// A partial answer ("partial", "truncation") and an unmatched term.
		check("partial", `"partial":true,"truncation":"step-budget"`, "q", e.terms[0], "w", "0.05", "maxsteps", "1")
		check("unmatched", `"unmatched":["zzznothing"]`, "q", e.terms[0]+" zzznothing")
		for i, reused := range client.reused {
			if i > 0 && !reused {
				t.Errorf("%s: request %d opened a new connection", e.name, i)
			}
		}
	}

	t.Run("trace", func(t *testing.T) {
		// Timings differ from run to run: one answer through both encoders.
		ans := engineAnswer(t, example, "q", `"Woody Allen"`, "trace", "1")
		if ans.Trace == nil || !bytes.Contains(sameAsOracle(t, ans), []byte(`"trace":{`)) {
			t.Fatal("no trace in the body")
		}
	})

	t.Run("from_cache", func(t *testing.T) {
		eng := testEngine(t)
		eng.EnableCache(precis.CacheConfig{MaxEntries: 4})
		ts := httptest.NewServer(NewServer(eng).Handler())
		defer ts.Close()
		client := &searchClient{t: t, ts: ts}
		kv := []string{"q", `"Woody Allen"`}
		_, miss := client.get(kv...)
		want := sameAsOracle(t, engineAnswer(t, eng, kv...)) // now a hit
		_, hit := client.get(kv...)
		if !bytes.Equal(hit, want) || !bytes.Contains(hit, []byte(`"from_cache":true`)) || bytes.Contains(miss, []byte("from_cache")) {
			t.Fatalf("cache hit body\n%s\nwant\n%s\nmiss\n%s", hit, want, miss)
		}
	})

	t.Run("hand-built", func(t *testing.T) {
		var bodies [][]byte
		for _, ans := range handBuiltAnswers(t) {
			bodies = append(bodies, sameAsOracle(t, ans))
		}
		for i, must := range []string{`{"name":"EMPTY","columns":["what"],"rows":null}`, `{"terms":[],"narrative":"","relations":null,`, `{"terms":null,`} {
			if !bytes.Contains(bodies[i], []byte(must)) || bytes.Contains(bodies[i], []byte("PLUMBING")) {
				t.Errorf("answer %d: want %s and no PLUMBING in\n%s", i, must, bodies[i])
			}
		}
	})
}

// handBuiltAnswers are answers the engine does not produce: an empty relation
// among the shown ones ("rows":null), a relation without a display column
// (left out), no relation shown at all ("relations":null), nil and empty
// term lists, every value kind, and the strings of nastyStrings as values,
// names and narrative.
func handBuiltAnswers(t *testing.T) []*precis.Answer {
	t.Helper()
	nasty := nastyStrings()
	db := storage.NewDatabase("handbuilt")
	col := func(name string, typ storage.ColType) storage.Column { return storage.Column{Name: name, Type: typ} }
	db.MustCreateRelation(storage.MustSchema("THING", "id", col("id", storage.TypeInt), col("na<me", storage.TypeString),
		col("ratio", storage.TypeFloat), col("ok", storage.TypeBool), col("hidden", storage.TypeString)))
	db.MustCreateRelation(storage.MustSchema("EMPTY", "", col("what", storage.TypeString)))
	db.MustCreateRelation(storage.MustSchema("PLUMBING", "", col("id", storage.TypeInt)))
	for i, s := range nasty {
		vals := []storage.Value{storage.Int(int64(i) - 3), storage.String(s), storage.Float(float64(i) / 3), storage.Bool(i%2 == 0), storage.String("no")}
		if i%7 == 0 {
			vals[2], vals[3] = storage.Null, storage.Null
		}
		if _, err := db.Insert("THING", vals...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Insert("PLUMBING", storage.Int(1)); err != nil {
		t.Fatal(err)
	}
	g := schemagraph.New()
	for _, rel := range []string{"THING", "EMPTY", "PLUMBING"} {
		g.AddRelation(rel)
	}
	for _, p := range [][2]string{{"THING", "na<me"}, {"THING", "id"}, {"THING", "ratio"}, {"THING", "ok"}, {"EMPTY", "what"}} {
		if _, err := g.AddProjection(p[0], p[1], 0.9); err != nil {
			t.Fatal(err)
		}
	}
	res := resultOf(db)
	shown := &core.ResultDatabase{DB: res, Schema: &core.ResultSchema{Graph: g}}

	bare := schemagraph.New()
	bare.AddRelation("PLUMBING")
	hidden := &core.ResultDatabase{DB: res, Schema: &core.ResultSchema{Graph: bare}}

	return []*precis.Answer{
		{Terms: nasty, Unmatched: nasty[:3], Narrative: strings.Join(nasty, "\n\n"), Result: shown, Database: res,
			Stats: core.GenStats{Queries: 12}, Partial: true, Truncation: precis.TruncationReason("byte-<budget>")},
		{Terms: []string{}, Unmatched: []string{}, Result: hidden, Database: res},
		{Result: hidden, Database: res, FromCache: true},
	}
}

// resultOf returns a result database holding every tuple of db.
func resultOf(db *storage.Database) *storage.Result {
	var schemas []*storage.Schema
	for _, name := range db.RelationNames() {
		schemas = append(schemas, db.Relation(name).Schema())
	}
	res := storage.NewResult(db.Name(), schemas, db.ForeignKeys())
	for _, name := range db.RelationNames() {
		var ids []storage.TupleID
		var rows []storage.Row
		db.Relation(name).ScanRows(func(id storage.TupleID, row storage.Row) bool {
			ids, rows = append(ids, id), append(rows, row)
			return true
		})
		res.Relation(name).Append(ids, rows)
	}
	return res
}
