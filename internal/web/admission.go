package web

import (
	"context"

	"precis/internal/obs"
)

// Metric names of the HTTP admission gate. Exported so dashboards and
// tests address the same strings the server writes; the very same atomics
// back /api/stats, so the two views cannot disagree.
const (
	MetricHTTPInFlight = "precis_http_inflight"
	MetricHTTPQueued   = "precis_http_queued"
	MetricHTTPServed   = "precis_http_requests_served_total"
	MetricHTTPShed     = "precis_http_requests_shed_total"
	MetricHTTPPartial  = "precis_http_partial_answers_total"
	MetricHTTPInternal = "precis_http_internal_errors_total"
	MetricHTTPTimeout  = "precis_http_timeouts_total"
	MetricHTTPSlow     = "precis_http_slow_queries_total"
	MetricHTTPBytes    = "precis_http_response_bytes_total"
)

// admission is the server's load-shedding gate: a semaphore of max
// in-flight queries plus a bounded wait queue. A request first tries to
// take an in-flight slot; failing that it takes a queue slot and blocks
// until an in-flight slot frees or its context dies; when the queue is full
// too, the request is shed immediately (503 + Retry-After) — the paper's
// bounded-answer philosophy applied to the server itself: predictable
// latency for admitted work beats unbounded acceptance followed by
// collapse.
//
// The gate's counters are obs instruments. Built with a registry they are
// the same atomics /metrics scrapes; built without one they are private.
type admission struct {
	sem   chan struct{} // in-flight slots
	queue chan struct{} // wait-queue slots

	inFlight *obs.Gauge   // currently executing
	queued   *obs.Gauge   // currently waiting
	served   *obs.Counter // total admitted and run
	shed     *obs.Counter // total rejected with 503
	partial  *obs.Counter // total answers returned Partial
	internal *obs.Counter // total ErrInternal failures
	timedOut *obs.Counter // total per-request deadline expiries
	slow     *obs.Counter // total queries over the slow-query threshold
	bytes    *obs.Counter // total bytes of search response bodies (API and HTML, answers and errors)
}

// newAdmission sizes the gate; maxInFlight <= 0 disables admission control
// entirely (every request is admitted, counters still tick). A non-nil reg
// backs the counters with registry instruments under the precis_http_*
// names.
func newAdmission(maxInFlight, queueDepth int, reg *obs.Registry) *admission {
	a := &admission{}
	if maxInFlight > 0 {
		a.sem = make(chan struct{}, maxInFlight)
		if queueDepth < 0 {
			queueDepth = 0
		}
		a.queue = make(chan struct{}, queueDepth)
	}
	if reg != nil {
		reg.Help(MetricHTTPInFlight, "searches currently executing")
		reg.Help(MetricHTTPQueued, "searches waiting for an in-flight slot")
		reg.Help(MetricHTTPServed, "searches admitted and run")
		reg.Help(MetricHTTPShed, "searches rejected with 503 (queue full or client gone)")
		reg.Help(MetricHTTPPartial, "answers returned partial over HTTP")
		reg.Help(MetricHTTPInternal, "searches failed with an internal error")
		reg.Help(MetricHTTPTimeout, "searches canceled by the per-request timeout")
		reg.Help(MetricHTTPSlow, "searches slower than the slow-query threshold")
		reg.Help(MetricHTTPBytes, "bytes of search response bodies written (/api/search and the HTML page, answers and errors)")
		a.inFlight = reg.Gauge(MetricHTTPInFlight)
		a.queued = reg.Gauge(MetricHTTPQueued)
		a.served = reg.Counter(MetricHTTPServed)
		a.shed = reg.Counter(MetricHTTPShed)
		a.partial = reg.Counter(MetricHTTPPartial)
		a.internal = reg.Counter(MetricHTTPInternal)
		a.timedOut = reg.Counter(MetricHTTPTimeout)
		a.slow = reg.Counter(MetricHTTPSlow)
		a.bytes = reg.Counter(MetricHTTPBytes)
	} else {
		a.inFlight = &obs.Gauge{}
		a.queued = &obs.Gauge{}
		a.served = &obs.Counter{}
		a.shed = &obs.Counter{}
		a.partial = &obs.Counter{}
		a.internal = &obs.Counter{}
		a.timedOut = &obs.Counter{}
		a.slow = &obs.Counter{}
		a.bytes = &obs.Counter{}
	}
	return a
}

// acquire admits one request. It returns (release, true) when admitted —
// the caller must call release exactly once — and (nil, false) when the
// request must be shed. A request whose context dies while queued is
// treated as shed (the client stopped waiting).
func (a *admission) acquire(ctx context.Context) (release func(), ok bool) {
	if a.sem == nil { // admission control disabled
		a.inFlight.Add(1)
		return func() { a.inFlight.Add(-1); a.served.Inc() }, true
	}
	select {
	case a.sem <- struct{}{}:
	default:
		// No free slot: wait in the bounded queue, or shed.
		select {
		case a.queue <- struct{}{}:
		default:
			a.shed.Inc()
			return nil, false
		}
		a.queued.Add(1)
		select {
		case a.sem <- struct{}{}:
			a.queued.Add(-1)
			<-a.queue
		case <-ctx.Done():
			a.queued.Add(-1)
			<-a.queue
			a.shed.Inc()
			return nil, false
		}
	}
	a.inFlight.Add(1)
	return func() {
		a.inFlight.Add(-1)
		a.served.Inc()
		<-a.sem
	}, true
}

// admissionStats is the JSON shape of the gate's counters in /api/stats.
type admissionStats struct {
	MaxInFlight int   `json:"max_inflight"` // 0 = admission control disabled
	QueueDepth  int   `json:"queue_depth"`
	InFlight    int64 `json:"in_flight"`
	Queued      int64 `json:"queued"`
	Served      int64 `json:"served"`
	Shed        int64 `json:"shed"`
	Partial     int64 `json:"partial"`
	Internal    int64 `json:"internal_errors"`
	TimedOut    int64 `json:"timed_out"`
	Slow        int64 `json:"slow"`
	RespBytes   int64 `json:"response_bytes"`
}

// stats snapshots the counters — the same atomics /metrics scrapes.
func (a *admission) stats() admissionStats {
	return admissionStats{
		MaxInFlight: cap(a.sem),
		QueueDepth:  cap(a.queue),
		InFlight:    a.inFlight.Load(),
		Queued:      a.queued.Load(),
		Served:      int64(a.served.Load()),
		Shed:        int64(a.shed.Load()),
		Partial:     int64(a.partial.Load()),
		Internal:    int64(a.internal.Load()),
		TimedOut:    int64(a.timedOut.Load()),
		Slow:        int64(a.slow.Load()),
		RespBytes:   int64(a.bytes.Load()),
	}
}
