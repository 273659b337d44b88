package web

import (
	"bytes"
	"encoding/json"
	"html/template"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"precis"
	"precis/internal/dataset"
	"precis/internal/profile"
	"precis/internal/storage"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	db, g, err := dataset.ExampleMovies()
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
	if err := eng.AddProfile(profile.Fan()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(eng).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// query builds a properly encoded URL from key/value pairs.
func query(base, path string, kv ...string) string {
	vals := url.Values{}
	for i := 0; i+1 < len(kv); i += 2 {
		vals.Set(kv[i], kv[i+1])
	}
	if len(vals) == 0 {
		return base + path
	}
	return base + path + "?" + vals.Encode()
}

func get(t *testing.T, target string) (int, string) {
	t.Helper()
	resp, err := http.Get(target)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, b.String()
}

func TestAPISearch(t *testing.T) {
	ts := testServer(t)
	code, body := get(t, query(ts.URL, "/api/search", "q", `"Woody Allen"`, "w", "0.9", "card", "3"))
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	var ans apiAnswer
	if err := json.Unmarshal([]byte(body), &ans); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if !strings.Contains(ans.Narrative, "Woody Allen was born on December 1, 1935") {
		t.Errorf("narrative = %q", ans.Narrative)
	}
	if ans.Stats.Relations != 5 {
		t.Errorf("relations = %d", ans.Stats.Relations)
	}
	foundMovie := false
	for _, rel := range ans.Relations {
		if rel.Name == "MOVIE" {
			foundMovie = true
			if len(rel.Rows) == 0 || len(rel.Columns) == 0 {
				t.Errorf("MOVIE = %+v", rel)
			}
			for _, c := range rel.Columns {
				if c == "mid" || c == "did" {
					t.Errorf("plumbing column %s leaked into API output", c)
				}
			}
		}
	}
	if !foundMovie {
		t.Error("MOVIE missing from answer")
	}
}

func TestAPISearchErrors(t *testing.T) {
	ts := testServer(t)
	if code, _ := get(t, ts.URL+"/api/search"); code != http.StatusBadRequest {
		t.Errorf("missing q: %d", code)
	}
	if code, _ := get(t, query(ts.URL, "/api/search", "q", "zzznothing")); code != http.StatusNotFound {
		t.Errorf("no matches: %d", code)
	}
	if code, _ := get(t, query(ts.URL, "/api/search", "q", "x", "w", "nope")); code != http.StatusBadRequest {
		t.Errorf("bad w: %d", code)
	}
	if code, _ := get(t, query(ts.URL, "/api/search", "q", "x", "w", "2")); code != http.StatusBadRequest {
		t.Errorf("out-of-range w: %d", code)
	}
	// NaN passes neither w < 0 nor w > 1; it used to answer 200 with a précis
	// stricter than w=1.
	for _, w := range []string{"NaN", "nan", "Inf", "-Inf"} {
		if code, body := get(t, query(ts.URL, "/api/search", "q", `"Woody Allen"`, "w", w)); code != http.StatusBadRequest || !strings.Contains(body, "bad w") {
			t.Errorf("w=%s: %d %s", w, code, body)
		}
		// The HTML form shares the parser; it reports errors in the page.
		if code, body := get(t, query(ts.URL, "/", "q", `"Woody Allen"`, "w", w)); code != http.StatusOK || !strings.Contains(body, "bad w") {
			t.Errorf("page with w=%s: %d %s", w, code, body)
		}
	}
	if code, body := get(t, query(ts.URL, "/api/search", "q", `"Woody Allen"`, "w", "-0")); code != http.StatusOK {
		t.Errorf("w=-0 is in [0,1]: %d %s", code, body)
	}
	if code, _ := get(t, query(ts.URL, "/api/search", "q", "x", "card", "-1")); code != http.StatusBadRequest {
		t.Errorf("bad card: %d", code)
	}
	if code, _ := get(t, query(ts.URL, "/api/search", "q", "x", "strategy", "wibble")); code != http.StatusBadRequest {
		t.Errorf("bad strategy: %d", code)
	}
	if code, body := get(t, query(ts.URL, "/api/search", "q", "Woody", "profile", "ghost")); code != http.StatusBadRequest {
		t.Errorf("bad profile: %d %s", code, body)
	}
}

func TestAPISearchWithProfile(t *testing.T) {
	ts := testServer(t)
	code, body := get(t, query(ts.URL, "/api/search", "q", `"Match Point"`, "profile", "fan"))
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	var ans apiAnswer
	if err := json.Unmarshal([]byte(body), &ans); err != nil {
		t.Fatal(err)
	}
	// The fan profile keeps answers short: w >= 0.9 excludes theatres.
	for _, rel := range ans.Relations {
		if rel.Name == "THEATRE" {
			t.Error("fan profile leaked THEATRE")
		}
	}
}

func TestAPISchema(t *testing.T) {
	ts := testServer(t)
	code, body := get(t, ts.URL+"/api/schema")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var rels []apiSchemaRelation
	if err := json.Unmarshal([]byte(body), &rels); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(rels) != 7 {
		t.Fatalf("relations = %d", len(rels))
	}
	byName := map[string]apiSchemaRelation{}
	for _, r := range rels {
		byName[r.Name] = r
	}
	if byName["MOVIE"].Heading != "title" {
		t.Errorf("MOVIE heading = %q", byName["MOVIE"].Heading)
	}
	if byName["THEATRE"].Projections["phone"] != 0.8 {
		t.Errorf("THEATRE.phone = %v", byName["THEATRE"].Projections["phone"])
	}
}

func TestGraphDOT(t *testing.T) {
	ts := testServer(t)
	code, body := get(t, ts.URL+"/graph.dot")
	if code != http.StatusOK || !strings.Contains(body, "digraph") {
		t.Errorf("dot: %d %q", code, body[:40])
	}
}

func TestHomePage(t *testing.T) {
	ts := testServer(t)
	code, body := get(t, ts.URL+"/")
	if code != http.StatusOK || !strings.Contains(body, "<form") {
		t.Errorf("home: %d", code)
	}
	code, body = get(t, query(ts.URL, "/", "q", `"Woody Allen"`, "w", "0.9", "card", "3"))
	if code != http.StatusOK {
		t.Fatalf("search page: %d", code)
	}
	if !strings.Contains(body, "Woody Allen was born on December 1, 1935") {
		t.Error("narrative missing from page")
	}
	if !strings.Contains(body, "<table>") {
		t.Error("result tables missing from page")
	}
	// Errors render inline.
	code, body = get(t, query(ts.URL, "/", "q", "zzznothing"))
	if code != http.StatusOK || !strings.Contains(body, "class=\"error\"") {
		t.Errorf("error rendering: %d", code)
	}
	// Unknown paths 404.
	if code, _ := get(t, ts.URL+"/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path: %d", code)
	}
}

// recordingWriter is a ResponseWriter that keeps what a handler did to it.
type recordingWriter struct {
	header http.Header
	codes  []int // every WriteHeader call
	body   bytes.Buffer
}

func (w *recordingWriter) Header() http.Header  { return w.header }
func (w *recordingWriter) WriteHeader(code int) { w.codes = append(w.codes, code) }
func (w *recordingWriter) Write(p []byte) (int, error) {
	if len(w.codes) == 0 {
		w.codes = append(w.codes, http.StatusOK)
	}
	return w.body.Write(p)
}

// TestHomePageFailsWhole: a template that fails half way used to have sent
// its first half under a 200 by then, with the error text appended. The page
// is executed into a buffer first, so the failure is a clean 500.
func TestHomePageFailsWhole(t *testing.T) {
	h := NewServer(testEngine(t)).Handler()
	page := func() *recordingWriter {
		w := &recordingWriter{header: http.Header{}}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, query("", "/", "q", `"Woody Allen"`), nil))
		return w
	}
	ok := page()
	if len(ok.codes) != 1 || ok.codes[0] != http.StatusOK || !strings.Contains(ok.body.String(), "Woody Allen was born") ||
		ok.header.Get("Content-Length") != strconv.Itoa(ok.body.Len()) {
		t.Fatalf("page: WriteHeader calls %v, Content-Length %q, %d bytes", ok.codes, ok.header.Get("Content-Length"), ok.body.Len())
	}

	defer func(old *template.Template) { homeTemplate = old }(homeTemplate)
	homeTemplate = template.Must(template.New("home").Parse(`<p>half a page for {{.Query}}</p>{{index .Query 999}}`))
	failed := page()
	if len(failed.codes) != 1 || failed.codes[0] != http.StatusInternalServerError {
		t.Errorf("WriteHeader calls %v, want one 500", failed.codes)
	}
	if body := failed.body.String(); strings.Contains(body, "half a page") || !strings.Contains(body, "index out of range") {
		t.Errorf("body of the failed page: %q", body)
	}
}

func TestHealthz(t *testing.T) {
	ts := testServer(t)
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("healthz: %d %q", code, body)
	}
}

// testEngine builds the example engine without wrapping it in a server, for
// tests that need custom server configuration.
func testEngine(t *testing.T) *precis.Engine {
	t.Helper()
	db, g, err := dataset.ExampleMovies()
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

func TestAPIStats(t *testing.T) {
	eng := testEngine(t)
	eng.EnableCache(precis.CacheConfig{MaxEntries: 16})
	ts := httptest.NewServer(NewServer(eng).Handler())
	t.Cleanup(ts.Close)

	// Two identical searches: one miss, one hit.
	for i := 0; i < 2; i++ {
		if code, body := get(t, query(ts.URL, "/api/search", "q", "Woody Allen")); code != http.StatusOK {
			t.Fatalf("search %d: code=%d body=%s", i, code, body)
		}
	}
	code, body := get(t, ts.URL+"/api/stats")
	if code != http.StatusOK {
		t.Fatalf("stats code=%d", code)
	}
	var out struct {
		Database  string `json:"database"`
		Relations int    `json:"relations"`
		Tuples    int    `json:"tuples"`
		Cache     *struct {
			Hits    uint64 `json:"hits"`
			Misses  uint64 `json:"misses"`
			Entries int    `json:"entries"`
		} `json:"cache"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad stats JSON: %v\n%s", err, body)
	}
	if out.Database != "movies" || out.Relations == 0 || out.Tuples == 0 {
		t.Fatalf("stats = %+v", out)
	}
	if out.Cache == nil || out.Cache.Hits != 1 || out.Cache.Misses != 1 || out.Cache.Entries != 1 {
		t.Fatalf("cache stats = %+v", out.Cache)
	}
}

func TestAPIStatsCacheDisabled(t *testing.T) {
	ts := testServer(t)
	code, body := get(t, ts.URL+"/api/stats")
	if code != http.StatusOK {
		t.Fatalf("code=%d", code)
	}
	if strings.Contains(body, `"cache"`) {
		t.Fatalf("disabled cache appears in stats: %s", body)
	}
}

func TestSearchWorkersParam(t *testing.T) {
	ts := testServer(t)
	if code, body := get(t, query(ts.URL, "/api/search", "q", "Woody Allen", "workers", "4")); code != http.StatusOK {
		t.Fatalf("workers=4: code=%d body=%s", code, body)
	}
	if code, _ := get(t, query(ts.URL, "/api/search", "q", "Woody Allen", "workers", "abc")); code != http.StatusBadRequest {
		t.Fatalf("bad workers accepted: code=%d", code)
	}
}

func TestSearchTimeout(t *testing.T) {
	eng := testEngine(t)
	ts := httptest.NewServer(NewServerWithConfig(eng, Config{QueryTimeout: time.Nanosecond}).Handler())
	t.Cleanup(ts.Close)
	code, body := get(t, query(ts.URL, "/api/search", "q", "Woody Allen"))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("code=%d body=%s, want 504", code, body)
	}
	if !strings.Contains(body, "time budget") {
		t.Fatalf("timeout body: %s", body)
	}
}

// TestAPIStatsLayout checks the counts behind the resident bytes on both
// topologies: a single engine reports its own index and storage, a sharded
// coordinator the sum over its shards, and a delete shows up as a tombstone.
func TestAPIStatsLayout(t *testing.T) {
	type layout struct {
		Tuples int `json:"tuples"`
		Index  struct {
			Tokens   int `json:"tokens"`
			Lists    int `json:"lists"`
			Postings int `json:"postings"`
		} `json:"index"`
		Storage struct {
			Slots        int `json:"slots"`
			DeadSlots    int `json:"dead_slots"`
			IndexEntries int `json:"index_entries"`
		} `json:"storage"`
	}
	stats := func(t *testing.T, url string) layout {
		t.Helper()
		code, body := get(t, url+"/api/stats")
		if code != http.StatusOK {
			t.Fatalf("stats code=%d", code)
		}
		var out layout
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatalf("bad stats JSON: %v\n%s", err, body)
		}
		return out
	}
	single := testEngine(t)
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := precis.NewSharded(db, g, precis.ShardedConfig{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	var first layout
	for _, topo := range []struct {
		name string
		eng  *precis.Engine
	}{{"single", single}, {"sharded", sharded}} {
		name, eng := topo.name, topo.eng
		ts := httptest.NewServer(NewServer(eng).Handler())
		t.Cleanup(ts.Close)
		before := stats(t, ts.URL)
		if before.Storage.Slots != before.Tuples || before.Storage.DeadSlots != 0 || before.Storage.IndexEntries == 0 {
			t.Fatalf("%s: storage layout %+v for %d tuples", name, before.Storage, before.Tuples)
		}
		if before.Index.Tokens == 0 || before.Index.Lists < before.Index.Tokens || before.Index.Postings < before.Index.Lists {
			t.Fatalf("%s: index layout %+v", name, before.Index)
		}
		// Every shard indexes its own tuples, so postings (one per token,
		// location and tuple) and slots sum to the single engine's.
		if first.Tuples == 0 {
			first = before
		} else if before.Index.Postings != first.Index.Postings || before.Storage.Slots != first.Storage.Slots {
			t.Fatalf("%s: %+v, other topology %+v", name, before, first)
		}
		id, err := eng.Insert("GENRE", storage.Int(1), storage.String("Layout Probe"))
		if err != nil {
			t.Fatal(err)
		}
		mid := stats(t, ts.URL)
		if mid.Storage.Slots != before.Storage.Slots+1 || mid.Index.Postings != before.Index.Postings+2 || mid.Index.Tokens != before.Index.Tokens+2 {
			t.Fatalf("%s: after insert %+v, before %+v", name, mid, before)
		}
		if ok, err := eng.Delete("GENRE", id); err != nil || !ok {
			t.Fatalf("%s: delete: %v %v", name, ok, err)
		}
		after := stats(t, ts.URL)
		if after.Storage.DeadSlots != 1 || after.Storage.Slots != mid.Storage.Slots || after.Index != before.Index || after.Tuples != before.Tuples {
			t.Fatalf("%s: after delete %+v, before %+v", name, after, before)
		}
	}
}
