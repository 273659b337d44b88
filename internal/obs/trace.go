package obs

import (
	"fmt"
	"strings"
	"time"
)

// Stage names of the précis pipeline (paper §4–§5), used as span names and
// as the `stage` label of the per-stage latency histograms. Keeping them in
// one place guarantees the trace a query returns and the histogram a
// dashboard plots speak the same vocabulary.
const (
	StageTokenize    = "tokenize"     // query-term normalization + cache-key fingerprint
	StageCacheLookup = "cache_lookup" // answer-cache probe (hit → pipeline skipped)
	StageIndexLookup = "index_lookup" // inverted-index probes (§4, step 1)
	StageSchemaGen   = "schema_gen"   // result schema generation (§4, step 2)
	StageDBGen       = "db_gen"       // result database generation (§5, step 3)
	StageTranslate   = "translate"    // natural-language synthesis (§4, step 4)
)

// Span is one timed region of a query pipeline. Top-level spans are the
// pipeline stages; the db_gen stage additionally records fine-grained Steps
// (seed placement and every join edge) with tuple counts.
type Span struct {
	// Name is the stage name (one of the Stage* constants).
	Name string `json:"name"`
	// Start is the span's offset from the trace's begin instant.
	Start time.Duration `json:"start"`
	// Dur is the span's wall-clock duration.
	Dur time.Duration `json:"dur"`
	// Note is what the stage has to say about this run beyond its time:
	// schema_gen's "memo=hit" or "memo=miss".
	Note string `json:"note,omitempty"`
}

// Step is one fine-grained unit of result-database generation: the seed
// placement or one join edge, with the physical work it did.
type Step struct {
	// Name identifies the step: "seeds" or "join:FROM->TO".
	Name string `json:"name"`
	// Start is the step's offset from the trace's begin instant.
	Start time.Duration `json:"start"`
	// Dur is the step's wall-clock duration.
	Dur time.Duration `json:"dur"`
	// Tuples is the number of tuples this step materialized into D'.
	Tuples int `json:"tuples"`
	// Queries is the number of generated queries the step issued.
	Queries int `json:"queries"`
}

// Trace records the per-stage timing of one précis query. A nil *Trace is
// the disabled state: every method no-ops, so untraced queries pay one nil
// check per stage and zero allocations.
//
// A Trace is single-writer: spans and steps are recorded on the query's
// coordination goroutine only (fetch workers never touch it), so no locking
// is needed. Readers must wait for the query to return — which they always
// do, since the trace is handed out on the Answer.
type Trace struct {
	begin time.Time
	// Total is the wall time from NewTrace to Finish.
	Total time.Duration `json:"total"`
	// Spans are the top-level pipeline stages, in execution order. They are
	// contiguous and non-overlapping, so their durations sum to ≈ Total
	// (minus inter-stage glue: option resolution, cache bookkeeping).
	Spans []Span `json:"spans"`
	// Steps are the db_gen stage's fine-grained steps, in execution order.
	Steps []Step `json:"steps,omitempty"`
}

// NewTrace starts a trace at the current instant.
func NewTrace() *Trace {
	return &Trace{begin: time.Now()}
}

// since returns the offset of now from the trace's begin.
func (t *Trace) since() time.Duration { return time.Since(t.begin) }

// Finish stamps the trace's total wall time. Call once, after the last
// span ended.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.Total = t.since()
}

// SpanToken is an in-flight span handle returned by StartSpan. The zero
// value (from a nil trace) is inert.
type SpanToken struct {
	t     *Trace
	name  string
	start time.Duration
}

// StartSpan opens a top-level stage span. Nil-safe: on a nil trace the
// returned token is inert and End costs one branch.
func (t *Trace) StartSpan(name string) SpanToken {
	if t == nil {
		return SpanToken{}
	}
	return SpanToken{t: t, name: name, start: t.since()}
}

// End closes the span and records it.
func (s SpanToken) End() { s.EndNote("") }

// EndNote is End with the span's Note.
func (s SpanToken) EndNote(note string) {
	if s.t == nil {
		return
	}
	s.t.Spans = append(s.t.Spans, Span{Name: s.name, Start: s.start, Dur: s.t.since() - s.start, Note: note})
}

// StepToken is an in-flight step handle returned by StartStep. The zero
// value is inert.
type StepToken struct {
	t     *Trace
	name  string
	start time.Duration
}

// StartStep opens a fine-grained db_gen step. Nil-safe.
func (t *Trace) StartStep(name string) StepToken {
	if t == nil {
		return StepToken{}
	}
	return StepToken{t: t, name: name, start: t.since()}
}

// End closes the step, recording the tuples it materialized and the
// queries it issued.
func (s StepToken) End(tuples, queries int) {
	if s.t == nil {
		return
	}
	s.t.Steps = append(s.t.Steps, Step{
		Name: s.name, Start: s.start, Dur: s.t.since() - s.start,
		Tuples: tuples, Queries: queries,
	})
}

// RecordStep appends a step whose duration was measured externally — the
// shard scatter/gather fetcher tallies per-shard busy time with atomics on
// its worker goroutines and records the totals here, on the coordination
// goroutine, once the generation finished. Start is back-dated so the step
// sits inside the enclosing db_gen span. Nil-safe.
func (t *Trace) RecordStep(name string, dur time.Duration, tuples, queries int) {
	if t == nil {
		return
	}
	start := t.since() - dur
	if start < 0 {
		start = 0
	}
	t.Steps = append(t.Steps, Step{Name: name, Start: start, Dur: dur, Tuples: tuples, Queries: queries})
}

// SpanDur returns the duration of the named top-level span (0 when absent).
func (t *Trace) SpanDur(name string) time.Duration {
	if t == nil {
		return 0
	}
	for i := range t.Spans {
		if t.Spans[i].Name == name {
			return t.Spans[i].Dur
		}
	}
	return 0
}

// SpanSum returns the sum of all top-level span durations. On a well-formed
// trace this approximates Total from below.
func (t *Trace) SpanSum() time.Duration {
	if t == nil {
		return 0
	}
	var sum time.Duration
	for i := range t.Spans {
		sum += t.Spans[i].Dur
	}
	return sum
}

// String renders the trace as one human-readable line:
//
//	total=1.2ms tokenize=10µs index_lookup=80µs schema_gen=40µs[memo=miss] db_gen=900µs translate=120µs (steps: seeds 12t/1q, join:MOVIE->CAST 30t/2q)
func (t *Trace) String() string {
	if t == nil {
		return "<no trace>"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "total=%v", t.Total.Round(time.Microsecond))
	for _, s := range t.Spans {
		fmt.Fprintf(&sb, " %s=%v", s.Name, s.Dur.Round(time.Microsecond))
		if s.Note != "" {
			fmt.Fprintf(&sb, "[%s]", s.Note)
		}
	}
	if len(t.Steps) > 0 {
		sb.WriteString(" (steps:")
		for i, st := range t.Steps {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, " %s %dt/%dq", st.Name, st.Tuples, st.Queries)
		}
		sb.WriteByte(')')
	}
	return sb.String()
}
