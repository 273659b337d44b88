package web

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"precis"
	"precis/internal/dataset"
)

// obsServer builds a server with the answer cache enabled and an explicit
// config, returning the test server and the engine behind it.
func obsServer(t *testing.T, cfg Config) (*httptest.Server, *precis.Engine) {
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
	eng.EnableCache(precis.CacheConfig{MaxEntries: 16})
	ts := httptest.NewServer(NewServerWithConfig(eng, cfg).Handler())
	t.Cleanup(ts.Close)
	return ts, eng
}

// parseExposition parses Prometheus text format into name{labels} -> value,
// failing the test on any malformed line.
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("non-numeric sample %q: %v", line, err)
		}
		out[fields[0]] = v
	}
	return out
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _ := obsServer(t, Config{})
	// Two identical searches: one fresh pipeline run, one cache hit.
	for i := 0; i < 2; i++ {
		if code, body := get(t, query(ts.URL, "/api/search", "q", `"Woody Allen"`)); code != http.StatusOK {
			t.Fatalf("search status = %d: %s", code, body)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	_, body := get(t, ts.URL+"/metrics")
	samples := parseExposition(t, body)

	for name, want := range map[string]float64{
		"precis_queries_total":                       2,
		"precis_cache_hits_total":                    1,
		"precis_cache_misses_total":                  1,
		"precis_cache_entries":                       1,
		"precis_http_requests_served_total":          2,
		"precis_query_seconds_count":                 2,
		`precis_stage_seconds_count{stage="db_gen"}`: 1,
	} {
		if got, ok := samples[name]; !ok || got != want {
			t.Errorf("%s = %v (present=%t), want %v", name, got, ok, want)
		}
	}
	// Gauge callbacks report live engine state.
	if samples["precis_db_relations"] <= 0 || samples["precis_db_tuples"] <= 0 {
		t.Errorf("database gauges missing: relations=%v tuples=%v",
			samples["precis_db_relations"], samples["precis_db_tuples"])
	}
	// TYPE lines are emitted once per base name.
	if n := strings.Count(body, "# TYPE precis_stage_seconds histogram"); n != 1 {
		t.Errorf("TYPE precis_stage_seconds appears %d times", n)
	}
}

// TestStatsMetricsAgree asserts /api/stats and /metrics read the very same
// counters — the unification satellite's acceptance check.
func TestStatsMetricsAgree(t *testing.T) {
	ts, _ := obsServer(t, Config{})
	// A miss, two hits, an error and the HTML page: every search body counts.
	served := 0
	for _, target := range []string{
		query(ts.URL, "/api/search", "q", `"Woody Allen"`),
		query(ts.URL, "/api/search", "q", `"Woody Allen"`),
		query(ts.URL, "/api/search", "q", `"Woody Allen"`),
		query(ts.URL, "/api/search", "q", "zzznothing"),
		query(ts.URL, "/", "q", `"Match Point"`),
	} {
		_, body := get(t, target)
		served += len(body)
	}
	_, statsBody := get(t, ts.URL+"/api/stats")
	var stats apiEngineStats
	if err := json.Unmarshal([]byte(statsBody), &stats); err != nil {
		t.Fatalf("stats JSON: %v\n%s", err, statsBody)
	}
	_, metricsBody := get(t, ts.URL+"/metrics")
	samples := parseExposition(t, metricsBody)

	if got := samples[MetricHTTPServed]; got != float64(stats.Admission.Served) {
		t.Errorf("served: metrics=%v stats=%d", got, stats.Admission.Served)
	}
	if got := samples[MetricHTTPBytes]; got != float64(served) || stats.Admission.RespBytes != int64(served) {
		t.Errorf("response bytes: metrics=%v stats=%d, bodies served %d", got, stats.Admission.RespBytes, served)
	}
	if stats.Cache == nil {
		t.Fatal("no cache stats")
	}
	if got := samples["precis_cache_hits_total"]; got != float64(stats.Cache.Hits) {
		t.Errorf("cache hits: metrics=%v stats=%d", got, stats.Cache.Hits)
	}
	if got := samples["precis_cache_misses_total"]; got != float64(stats.Cache.Misses) {
		t.Errorf("cache misses: metrics=%v stats=%d", got, stats.Cache.Misses)
	}
	if got := samples["precis_cache_entries"]; got != float64(stats.Cache.Entries) {
		t.Errorf("cache entries: metrics=%v stats=%d", got, stats.Cache.Entries)
	}
}

func TestMetricsDisabled(t *testing.T) {
	ts, _ := obsServer(t, Config{DisableMetrics: true})
	if code, _ := get(t, ts.URL+"/metrics"); code != http.StatusNotFound {
		t.Errorf("/metrics with DisableMetrics: status = %d, want 404", code)
	}
}

func TestPprofGating(t *testing.T) {
	off, _ := obsServer(t, Config{})
	if code, _ := get(t, off.URL+"/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("pprof off: status = %d, want 404", code)
	}
	on, _ := obsServer(t, Config{Pprof: true})
	code, body := get(t, on.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof on: status = %d body %.80q", code, body)
	}
}

func TestTraceParam(t *testing.T) {
	ts, _ := obsServer(t, Config{})
	code, body := get(t, query(ts.URL, "/api/search", "q", `"Woody Allen"`, "trace", "1"))
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	var ans apiAnswer
	if err := json.Unmarshal([]byte(body), &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Trace == nil || len(ans.Trace.Spans) == 0 {
		t.Fatalf("trace=1 returned no trace: %s", body)
	}
	found := false
	for _, sp := range ans.Trace.Spans {
		if sp.Name == "db_gen" {
			found = true
		}
	}
	if !found {
		t.Errorf("trace lacks db_gen span: %+v", ans.Trace.Spans)
	}
	// Without the parameter the trace is omitted.
	_, body = get(t, query(ts.URL, "/api/search", "q", `"Woody Allen"`))
	if strings.Contains(body, `"trace"`) {
		t.Errorf("untraced answer carries a trace: %s", body)
	}
	// A cache hit is marked and still traceable (tokenize + cache_lookup).
	_, body = get(t, query(ts.URL, "/api/search", "q", `"Woody Allen"`, "trace", "1"))
	if err := json.Unmarshal([]byte(body), &ans); err != nil {
		t.Fatal(err)
	}
	if !ans.FromCache {
		t.Errorf("second identical search not marked from_cache: %s", body)
	}
	if ans.Trace == nil || ans.Trace.SpanDur("cache_lookup") == 0 {
		t.Errorf("cache hit trace lacks cache_lookup span: %s", body)
	}
}

func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	ts, _ := obsServer(t, Config{
		SlowQueryLog: time.Nanosecond, // every query is "slow"
		SlowLogger:   log.New(&buf, "", 0),
	})
	if code, body := get(t, query(ts.URL, "/api/search", "q", `"Woody Allen"`)); code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	line := buf.String()
	for _, want := range []string{"slow query:", `q="\"Woody Allen\""`, "elapsed=", "stages=", "db_gen=", "cached=false", "partial=false"} {
		if !strings.Contains(line, want) {
			t.Errorf("slow-query line missing %q: %s", want, line)
		}
	}
	// The forced internal trace must not leak into the response.
	_, body := get(t, query(ts.URL, "/api/search", "q", `"Woody Allen"`))
	if strings.Contains(body, `"trace"`) {
		t.Errorf("slow-query tracing leaked into the response: %s", body)
	}
	// The slow counter ticks and shows up in both views.
	_, metricsBody := get(t, ts.URL+"/metrics")
	if samples := parseExposition(t, metricsBody); samples[MetricHTTPSlow] < 2 {
		t.Errorf("%s = %v, want >= 2", MetricHTTPSlow, samples[MetricHTTPSlow])
	}
	_, statsBody := get(t, ts.URL+"/api/stats")
	var stats apiEngineStats
	if err := json.Unmarshal([]byte(statsBody), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Admission.Slow < 2 {
		t.Errorf("stats slow = %d, want >= 2", stats.Admission.Slow)
	}
}
