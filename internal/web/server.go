// Package web serves précis queries over HTTP — the paper's motivating
// deployment ("web accessible databases, which have emerged as libraries,
// museums, and other organizations publish their electronic contents on
// the Web", §1). It offers a small HTML search UI and a JSON API.
//
//	GET /                 search form (+ results when q is present)
//	GET /api/search?q=    JSON answer: narrative, result database, stats
//	GET /api/schema       JSON description of the schema graph
//	GET /api/stats        engine statistics: answer cache counters, sizes,
//	                      index and storage layout counts
//	GET /api/persist      persistence stats: recovery, WAL size, checkpoints
//	GET /api/repl         replication role and counters: follower lag, primary links
//	GET /metrics          Prometheus text exposition of every counter
//	GET /graph.dot        the schema graph in Graphviz dot syntax
//	GET /healthz          liveness probe
//	GET /debug/pprof/     runtime profiles (only when Config.Pprof is set)
//
// Query parameters for both search endpoints: q (required; quotes group
// phrases), w (min path weight), card (max tuples/relation), total (max
// total tuples), strategy (auto|naiveq|roundrobin), profile (stored
// profile name), trace (1 = include the per-stage timing trace in the JSON
// answer).
//
// Every search runs under a per-request timeout (Config.QueryTimeout);
// queries that exceed it are canceled mid-generation and answered with
// 504 Gateway Timeout.
//
// The server governs its own load: at most Config.MaxInFlight searches
// execute concurrently, at most Config.QueueDepth more wait for a slot, and
// anything beyond that is shed immediately with 503 Service Unavailable and
// a Retry-After header. A `deadline` query parameter turns the per-request
// time budget into graceful degradation instead: the engine returns the
// partial answer built when the deadline passed (marked `partial` in the
// JSON, with a truncation note in the narrative) rather than failing.
// /api/stats exposes the admission counters: in-flight, queued, served,
// shed, partial, internal errors.
package web

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"io"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"net/http/pprof"

	"precis"
	"precis/internal/obs"
	"precis/internal/storage"
)

// DefaultQueryTimeout bounds a single search when Config.QueryTimeout is
// zero. Précis answers are interactive (the paper's Formula 3 targets
// seconds); anything slower than this indicates a runaway query.
const DefaultQueryTimeout = 15 * time.Second

// DefaultMaxInFlight bounds concurrent searches when Config.MaxInFlight is
// zero. Précis queries are CPU-bound over in-memory data; far more
// concurrency than cores only grows tail latency.
const DefaultMaxInFlight = 32

// DefaultQueueDepth bounds the wait queue when Config.QueueDepth is zero.
const DefaultQueueDepth = 64

// DefaultRetryAfter is the Retry-After hint sent with 503 responses.
const DefaultRetryAfter = 1 * time.Second

// Config tunes the HTTP layer.
type Config struct {
	// QueryTimeout is the per-request deadline for /api/search and the
	// HTML search page. Zero means DefaultQueryTimeout; negative disables
	// the timeout entirely.
	QueryTimeout time.Duration
	// MaxInFlight bounds concurrently executing searches. Zero means
	// DefaultMaxInFlight; negative disables admission control.
	MaxInFlight int
	// QueueDepth bounds how many searches may wait for an in-flight slot
	// before overflow is shed with 503. Zero means DefaultQueueDepth;
	// negative means no queue (shed as soon as MaxInFlight is reached).
	QueueDepth int
	// Registry backs /metrics and the admission counters. Nil uses the
	// engine's registry when the engine is already instrumented, otherwise
	// the server creates a registry and instruments the engine with it —
	// NewServer serves full observability out of the box.
	Registry *obs.Registry
	// DisableMetrics turns off the /metrics endpoint. The counters still
	// tick (they back /api/stats too); only the exposition disappears.
	DisableMetrics bool
	// Pprof mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiling endpoints expose implementation detail and cost CPU, so
	// they are opt-in per deployment.
	Pprof bool
	// SlowQueryLog emits one structured log line for every search slower
	// than this threshold: query, total and per-stage latency, cache
	// state, partial/truncation flags. Zero disables. A non-zero
	// threshold forces tracing on every search so the per-stage breakdown
	// is available when a query turns out slow.
	SlowQueryLog time.Duration
	// SlowLogger receives slow-query lines; nil uses log.Default().
	SlowLogger *log.Logger
}

// Server wraps a précis engine with HTTP handlers.
type Server struct {
	eng *precis.Engine
	mux *http.ServeMux
	cfg Config
	adm *admission
}

// NewServer builds the handler set around an engine with default config.
func NewServer(eng *precis.Engine) *Server {
	return NewServerWithConfig(eng, Config{})
}

// NewServerWithConfig builds the handler set with explicit configuration.
func NewServerWithConfig(eng *precis.Engine, cfg Config) *Server {
	if cfg.QueryTimeout == 0 {
		cfg.QueryTimeout = DefaultQueryTimeout
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Registry == nil {
		if r := eng.Registry(); r != nil {
			cfg.Registry = r
		} else {
			cfg.Registry = obs.NewRegistry()
			eng.Instrument(cfg.Registry)
		}
	}
	s := &Server{eng: eng, mux: http.NewServeMux(), cfg: cfg,
		adm: newAdmission(cfg.MaxInFlight, cfg.QueueDepth, cfg.Registry)}
	s.mux.HandleFunc("GET /", s.handleHome)
	s.mux.HandleFunc("GET /api/search", s.handleAPISearch)
	s.mux.HandleFunc("GET /api/schema", s.handleAPISchema)
	s.mux.HandleFunc("GET /api/stats", s.handleAPIStats)
	s.mux.HandleFunc("GET /api/persist", s.handleAPIPersist)
	s.mux.HandleFunc("GET /api/repl", s.handleAPIRepl)
	s.mux.HandleFunc("POST /api/promote", s.handleAPIPromote)
	s.mux.HandleFunc("GET /api/shards", s.handleAPIShards)
	s.mux.HandleFunc("GET /graph.dot", s.handleDOT)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	if !cfg.DisableMetrics {
		s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	}
	if cfg.Pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.cfg.Registry.WritePrometheus(w)
}

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// parseOptions extracts query options from the parsed URL parameters.
func parseOptions(q url.Values) (precis.Options, error) {
	var opts precis.Options
	var degrees []precis.DegreeConstraint
	if v := q.Get("w"); v != "" {
		w, err := strconv.ParseFloat(v, 64)
		if err != nil || !(w >= 0 && w <= 1) { // NaN passes neither comparison
			return opts, fmt.Errorf("bad w %q (want a number in [0,1])", v)
		}
		degrees = append(degrees, precis.MinPathWeight(w))
	}
	if v := q.Get("attrs"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return opts, fmt.Errorf("bad attrs %q", v)
		}
		degrees = append(degrees, precis.MaxAttributes(n))
	}
	if len(degrees) == 1 {
		opts.Degree = degrees[0]
	} else if len(degrees) > 1 {
		opts.Degree = precis.AllDegree(degrees...)
	}
	var cards []precis.CardinalityConstraint
	if v := q.Get("card"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return opts, fmt.Errorf("bad card %q", v)
		}
		cards = append(cards, precis.MaxTuplesPerRelation(n))
	}
	if v := q.Get("total"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return opts, fmt.Errorf("bad total %q", v)
		}
		cards = append(cards, precis.MaxTotalTuples(n))
	}
	if len(cards) == 1 {
		opts.Cardinality = cards[0]
	} else if len(cards) > 1 {
		opts.Cardinality = precis.AllCardinality(cards...)
	}
	switch q.Get("strategy") {
	case "", "auto":
		opts.Strategy = precis.StrategyAuto
	case "naiveq":
		opts.Strategy = precis.StrategyNaive
	case "roundrobin":
		opts.Strategy = precis.StrategyRoundRobin
	default:
		return opts, fmt.Errorf("bad strategy %q", q.Get("strategy"))
	}
	opts.Profile = q.Get("profile")
	if v := q.Get("trace"); v == "1" || v == "true" {
		opts.Trace = true
	}
	// Resource budget parameters: graceful degradation instead of failure.
	// `deadline` is a duration from now ("50ms", "2s"); when it passes
	// mid-generation the answer built so far is returned, marked partial.
	if v := q.Get("deadline"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return opts, fmt.Errorf("bad deadline %q (want a positive duration like 50ms)", v)
		}
		opts.Budget.Deadline = time.Now().Add(d)
	}
	if v := q.Get("maxtuples"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return opts, fmt.Errorf("bad maxtuples %q", v)
		}
		opts.Budget.MaxTuples = n
	}
	if v := q.Get("maxsteps"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return opts, fmt.Errorf("bad maxsteps %q", v)
		}
		opts.Budget.MaxJoinSteps = n
	}
	return opts, nil
}

// apiAnswer is the JSON shape of a précis answer. /api/search writes the
// shape itself (appendAnswer); this struct is the HTML page's model, what
// clients and tests decode into, and the oracle appendAnswer is held to.
type apiAnswer struct {
	Terms     []string      `json:"terms"`
	Unmatched []string      `json:"unmatched,omitempty"`
	Narrative string        `json:"narrative"`
	Relations []apiRelation `json:"relations"`
	Stats     apiStats      `json:"stats"`
	// Partial marks a budget-truncated answer; Truncation names the
	// budget dimension that ran out (deadline, tuple-budget, step-budget,
	// byte-budget).
	Partial    bool   `json:"partial,omitempty"`
	Truncation string `json:"truncation,omitempty"`
	// FromCache marks an answer served from the engine's answer cache.
	FromCache bool `json:"from_cache,omitempty"`
	// Trace is the per-stage timing breakdown, present when the request
	// carried trace=1.
	Trace *obs.Trace `json:"trace,omitempty"`
}

type apiRelation struct {
	Name    string     `json:"name"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

type apiStats struct {
	Relations int `json:"relations"`
	Tuples    int `json:"tuples"`
	Queries   int `json:"queries"`
}

// buildAPIAnswer converts an engine answer into the JSON shape, using only
// display columns (join plumbing stays hidden, §5.2).
func buildAPIAnswer(ans *precis.Answer) apiAnswer {
	out := apiAnswer{
		Terms:      ans.Terms,
		Unmatched:  ans.Unmatched,
		Narrative:  ans.Narrative,
		Partial:    ans.Partial,
		Truncation: string(ans.Truncation),
		FromCache:  ans.FromCache,
		Trace:      ans.Trace,
		Stats: apiStats{
			Relations: ans.Database.NumRelations(),
			Tuples:    ans.Database.TotalTuples(),
			Queries:   ans.Stats.Queries,
		},
	}
	for _, rel := range ans.Database.RelationNames() {
		cols := ans.Result.DisplayColumns(rel)
		if len(cols) == 0 {
			continue
		}
		r := ans.Database.Relation(rel)
		idx := make([]int, len(cols))
		for i, c := range cols {
			idx[i] = r.Schema().ColumnIndex(c)
		}
		ar := apiRelation{Name: rel, Columns: cols}
		r.ScanRows(func(_ storage.TupleID, t storage.Row) bool {
			row := make([]string, len(idx))
			for i, ci := range idx {
				row[i] = t.Value(ci).String()
			}
			ar.Rows = append(ar.Rows, row)
			return true
		})
		out.Relations = append(out.Relations, ar)
	}
	return out
}

// search runs a query from request parameters under the admission gate and
// the per-request timeout.
func (s *Server) search(r *http.Request) (*precis.Answer, int, error) {
	params := r.URL.Query() // parsed once per request
	q := strings.TrimSpace(params.Get("q"))
	if q == "" {
		return nil, http.StatusBadRequest, fmt.Errorf("missing query parameter q")
	}
	opts, err := parseOptions(params)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	clientTrace := opts.Trace
	if s.cfg.SlowQueryLog > 0 {
		// Force tracing so the per-stage breakdown is on hand if this
		// query turns out slow; the trace is stripped from the response
		// below unless the client asked for it.
		opts.Trace = true
	}
	release, ok := s.adm.acquire(r.Context())
	if !ok {
		return nil, http.StatusServiceUnavailable,
			fmt.Errorf("server at capacity (%d in flight, %d queued); retry shortly",
				s.cfg.MaxInFlight, s.cfg.QueueDepth)
	}
	defer release()
	ctx := r.Context()
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	start := time.Now()
	ans, err := s.eng.QueryStringContext(ctx, q, opts)
	s.logSlow(q, time.Since(start), ans, err)
	if ans != nil && !clientTrace {
		ans.Trace = nil
	}
	if err != nil {
		switch {
		case errors.Is(err, precis.ErrNoMatches):
			return ans, http.StatusNotFound, err
		case errors.Is(err, precis.ErrInternal):
			s.adm.internal.Add(1)
			// The panic detail (with stacks) stays in the server log; the
			// client gets a generic 500.
			log.Printf("web: internal error serving %q: %v", q, err)
			return nil, http.StatusInternalServerError, errors.New("internal error")
		case errors.Is(err, context.DeadlineExceeded):
			s.adm.timedOut.Add(1)
			return nil, http.StatusGatewayTimeout,
				fmt.Errorf("query exceeded the %v time budget", s.cfg.QueryTimeout)
		case errors.Is(err, context.Canceled):
			return nil, 499, err // client went away
		}
		return nil, http.StatusBadRequest, err
	}
	if ans.Partial {
		s.adm.partial.Inc()
	}
	return ans, http.StatusOK, nil
}

// logSlow emits one structured line when a query exceeded the slow-query
// threshold: the query, total and per-stage latency, cache state, and how
// it ended (error, truncation, or clean). The precis_http_slow_queries_total
// counter ticks alongside, so dashboards can alert before anyone greps logs.
func (s *Server) logSlow(q string, elapsed time.Duration, ans *precis.Answer, err error) {
	if s.cfg.SlowQueryLog <= 0 || elapsed < s.cfg.SlowQueryLog {
		return
	}
	s.adm.slow.Inc()
	lg := s.cfg.SlowLogger
	if lg == nil {
		lg = log.Default()
	}
	if err != nil {
		lg.Printf("slow query: q=%q elapsed=%v error=%q", q, elapsed.Round(time.Microsecond), err)
		return
	}
	lg.Printf("slow query: q=%q elapsed=%v cached=%t partial=%t truncation=%q stages=%q",
		q, elapsed.Round(time.Microsecond), ans.FromCache, ans.Partial, ans.Truncation, ans.Trace.String())
}

// writeBody sends a search response whose body is complete: one Write, with
// a Content-Length, counted in precis_http_response_bytes_total.
func (s *Server) writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	s.adm.bytes.Add(uint64(len(body)))
	_, _ = w.Write(body) // a client that went away is not the server's error
}

func (s *Server) handleAPISearch(w http.ResponseWriter, r *http.Request) {
	ans, code, err := s.search(r)
	w.Header().Set("Content-Type", "application/json")
	p := bufPool.Get().(*[]byte)
	body := (*p)[:0]
	if err == nil {
		body, err = appendAnswer(body, ans)
		if err != nil { // only a trace that does not marshal
			code, body = http.StatusInternalServerError, body[:0]
		}
	}
	if err != nil {
		if code == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", strconv.Itoa(int(DefaultRetryAfter.Seconds())))
		}
		body = append(body, `{"error":`...)
		body = appendJSONString(body, err.Error())
		body = append(body, "}\n"...)
	}
	s.writeBody(w, code, body)
	putBuf(p, body)
}

// apiEngineStats is the JSON shape of /api/stats.
type apiEngineStats struct {
	Database  string `json:"database"`
	Relations int    `json:"relations"`
	Tuples    int    `json:"tuples"`
	// "index" {tokens, lists, postings} and "storage" {slots, dead_slots,
	// index_entries}: the counts behind the resident bytes.
	precis.LayoutStats
	Cache     *precis.CacheStats `json:"cache,omitempty"` // nil when the cache is disabled
	Admission admissionStats     `json:"admission"`
}

func (s *Server) handleAPIStats(w http.ResponseWriter, _ *http.Request) {
	// The shard-aware accessors work on both topologies; on a sharded
	// coordinator eng.Database() would be nil.
	out := apiEngineStats{
		Database:    s.eng.DatabaseName(),
		Relations:   s.eng.NumRelations(),
		Tuples:      s.eng.TotalTuples(),
		LayoutStats: s.eng.LayoutStats(),
		Admission:   s.adm.stats(),
	}
	if s.eng.CacheEnabled() {
		cs := s.eng.CacheStats()
		out.Cache = &cs
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// handleAPIPersist serves the persistence layer's counters: recovery
// stats, WAL size and record count, checkpoint history. On an in-memory
// engine everything is zero and enabled is false.
func (s *Server) handleAPIPersist(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.eng.PersistStats())
}

// handleAPIRepl serves the replication role and counters: "none" on an
// unreplicated engine, streaming counters on a primary, applied position
// and lag (frames and bytes behind the primary's durable frontier) on a
// follower.
func (s *Server) handleAPIRepl(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.eng.ReplStats())
}

// handleAPIPromote converts a durable follower into a writable primary
// (operator-driven failover). The optional JSON body {"listen": addr}
// starts a replication listener on the new primary so surviving followers
// can re-point at it. Errors map to status codes a failover script can
// branch on: 409 on a non-follower (already primary, or unreplicated),
// 412 on a diskless follower, 500 otherwise.
func (s *Server) handleAPIPromote(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Listen string `json:"listen"`
	}
	if r.Body != nil {
		if err := json.NewDecoder(io.LimitReader(r.Body, 4096)).Decode(&req); err != nil && err != io.EOF {
			http.Error(w, fmt.Sprintf("bad promote request: %v", err), http.StatusBadRequest)
			return
		}
	}
	epoch, err := s.eng.Promote(precis.PromoteConfig{ListenAddr: req.Listen})
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, precis.ErrNotFollower):
			code = http.StatusConflict
		case errors.Is(err, precis.ErrNotPersistent):
			code = http.StatusPreconditionFailed
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"promoted": true, "epoch": epoch})
}

// handleAPIShards serves the sharded topology: shard count, partitioning
// scheme, and per-shard tuple/index/persistence state. On an unsharded
// engine enabled is false and everything else is omitted.
func (s *Server) handleAPIShards(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.eng.ShardStats())
}

// apiSchemaRelation describes one relation node of the schema graph.
type apiSchemaRelation struct {
	Name        string             `json:"name"`
	Heading     string             `json:"heading,omitempty"`
	Projections map[string]float64 `json:"projections"`
	Joins       []apiSchemaJoin    `json:"joins,omitempty"`
}

type apiSchemaJoin struct {
	To     string  `json:"to"`
	On     string  `json:"on"`
	Weight float64 `json:"weight"`
}

func (s *Server) handleAPISchema(w http.ResponseWriter, _ *http.Request) {
	g := s.eng.Graph()
	var out []apiSchemaRelation
	for _, name := range g.Relations() {
		n := g.Relation(name)
		rel := apiSchemaRelation{Name: name, Heading: n.Heading, Projections: map[string]float64{}}
		for _, p := range n.Projections() {
			rel.Projections[p.Attribute] = p.Weight
		}
		for _, e := range n.Out() {
			rel.Joins = append(rel.Joins, apiSchemaJoin{To: e.To, On: e.FromCol, Weight: e.Weight})
		}
		out = append(out, rel)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

func (s *Server) handleDOT(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/vnd.graphviz")
	fmt.Fprint(w, s.eng.Graph().DOT(s.eng.DatabaseName()))
}

var homeTemplate = template.Must(template.New("home").Parse(`<!DOCTYPE html>
<html><head><title>précis search</title>
<style>
body { font-family: Georgia, serif; margin: 2rem auto; max-width: 46rem; }
input[type=text] { width: 24rem; font-size: 1rem; }
.narrative { background: #f6f3ea; padding: 1rem; border-radius: 6px; }
table { border-collapse: collapse; margin: 0.8rem 0; }
td, th { border: 1px solid #ccc; padding: 2px 8px; font-size: 0.9rem; }
.stats { color: #666; font-size: 0.85rem; }
.error { color: #a00; }
</style></head><body>
<h1>précis</h1>
<form action="/" method="get">
<input type="text" name="q" value="{{.Query}}" placeholder='e.g. "Woody Allen"'>
<input type="submit" value="search">
<label> w ≥ <input type="text" name="w" value="{{.W}}" size="4"></label>
<label> tuples/rel ≤ <input type="text" name="card" value="{{.Card}}" size="4"></label>
</form>
{{if .Error}}<p class="error">{{.Error}}</p>{{end}}
{{if .Answer}}
<div class="narrative">{{.Answer.Narrative}}</div>
{{range .Answer.Relations}}
<h3>{{.Name}}</h3>
<table><tr>{{range .Columns}}<th>{{.}}</th>{{end}}</tr>
{{range .Rows}}<tr>{{range .}}<td>{{.}}</td>{{end}}</tr>{{end}}</table>
{{end}}
<p class="stats">{{.Answer.Stats.Relations}} relations, {{.Answer.Stats.Tuples}} tuples, {{.Answer.Stats.Queries}} queries</p>
{{end}}
</body></html>`))

type homeData struct {
	Query  string
	W      string
	Card   string
	Error  string
	Answer *apiAnswer
}

func (s *Server) handleHome(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	data := homeData{
		Query: r.URL.Query().Get("q"),
		W:     r.URL.Query().Get("w"),
		Card:  r.URL.Query().Get("card"),
	}
	if data.W == "" {
		data.W = "0.8"
	}
	if data.Card == "" {
		data.Card = "10"
	}
	if data.Query != "" {
		ans, _, err := s.search(r)
		if err != nil {
			data.Error = err.Error()
		} else {
			api := buildAPIAnswer(ans)
			data.Answer = &api
		}
	}
	// Executed into a buffer: a template that fails half way must answer 500,
	// not a 200 with the error text after half a page.
	p := bufPool.Get().(*[]byte)
	page := bytes.NewBuffer((*p)[:0])
	if err := homeTemplate.Execute(page, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	} else {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		s.writeBody(w, http.StatusOK, page.Bytes())
	}
	putBuf(p, page.Bytes())
}
