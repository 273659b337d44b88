package precis

import (
	"context"
	"errors"
	"time"

	"precis/internal/anscache"
	"precis/internal/obs"
	"precis/internal/repl"
)

// Replication metric names: the streaming side's counters on a primary,
// position/lag gauges on a follower.
const (
	MetricReplFollowers     = "precis_repl_followers"
	MetricReplHandshakes    = "precis_repl_handshakes_total"
	MetricReplSentRecords   = "precis_repl_sent_records_total"
	MetricReplSentBytes     = "precis_repl_sent_bytes_total"
	MetricReplSnapshotsSent = "precis_repl_snapshots_sent_total"
	MetricReplLinkErrors    = "precis_repl_link_errors_total"

	MetricReplDegraded       = "precis_repl_degraded"
	MetricReplQuorumTimeouts = "precis_repl_quorum_timeouts_total"
	MetricReplAckLagRecords  = "precis_repl_ack_lag_records"

	MetricReplConnected      = "precis_repl_connected"
	MetricReplAppliedGen     = "precis_repl_applied_generation"
	MetricReplAppliedRecords = "precis_repl_applied_records"
	MetricReplLagRecords     = "precis_repl_lag_records"
	MetricReplLagBytes       = "precis_repl_lag_bytes"
	MetricReplSnapshots      = "precis_repl_snapshots_applied"
	MetricReplDials          = "precis_repl_dials"

	MetricReplEpoch              = "precis_repl_epoch"
	MetricReplFenced             = "precis_repl_fenced"
	MetricReplEpochRejections    = "precis_repl_epoch_rejections_total"
	MetricReplFailoverDetections = "precis_repl_failover_detections_total"
	MetricReplFailoverPromotions = "precis_repl_failover_promotions_total"
)

// instrumentReplPrimary wires a streaming primary's counters into reg.
func instrumentReplPrimary(reg *obs.Registry, p *repl.Primary) {
	reg.Help(MetricReplFollowers, "follower links currently attached")
	reg.Help(MetricReplHandshakes, "follower handshakes accepted")
	reg.Help(MetricReplSentRecords, "WAL records streamed to followers")
	reg.Help(MetricReplSentBytes, "replication bytes written to follower links")
	reg.Help(MetricReplSnapshotsSent, "snapshot bootstraps streamed to followers")
	reg.Help(MetricReplLinkErrors, "follower links dropped on error")
	reg.Help(MetricReplDegraded, "1 while synchronous replication runs degraded (quorum lost, committing async)")
	reg.Help(MetricReplQuorumTimeouts, "group commits whose ack quorum timed out")
	reg.Help(MetricReplAckLagRecords, "worst per-follower records-behind-frontier by last durable ack")
	p.SetMetrics(&repl.Metrics{
		SentRecords:    reg.Counter(MetricReplSentRecords),
		SentBytes:      reg.Counter(MetricReplSentBytes),
		SnapshotsSent:  reg.Counter(MetricReplSnapshotsSent),
		Handshakes:     reg.Counter(MetricReplHandshakes),
		LinkErrors:     reg.Counter(MetricReplLinkErrors),
		QuorumTimeouts: reg.Counter(MetricReplQuorumTimeouts),
	})
	reg.GaugeFunc(MetricReplFollowers, func() float64 { return float64(p.Stats().Followers) })
	reg.GaugeFunc(MetricReplDegraded, func() float64 {
		if p.Degraded() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc(MetricReplAckLagRecords, func() float64 {
		worst := int64(0)
		for _, l := range p.Stats().Links {
			if l.AckLagRecords > worst {
				worst = l.AckLagRecords
			}
		}
		return float64(worst)
	})
}

// instrumentReplFollower registers a follower's position and lag gauges.
func instrumentReplFollower(reg *obs.Registry, r *replicaState) {
	reg.Help(MetricReplConnected, "1 while the follower link is up")
	reg.Help(MetricReplAppliedGen, "WAL generation the follower has applied into")
	reg.Help(MetricReplAppliedRecords, "records applied within the current generation")
	reg.Help(MetricReplLagRecords, "records behind the primary's durable frontier (-1 unknown)")
	reg.Help(MetricReplLagBytes, "bytes behind the primary's durable frontier (-1 unknown)")
	reg.Help(MetricReplSnapshots, "snapshot bootstraps applied")
	reg.Help(MetricReplDials, "connection attempts to the primary")
	reg.GaugeFunc(MetricReplConnected, func() float64 {
		if r.client.Stats().Connected {
			return 1
		}
		return 0
	})
	reg.GaugeFunc(MetricReplAppliedGen, func() float64 { return float64(r.followerStats().AppliedGen) })
	reg.GaugeFunc(MetricReplAppliedRecords, func() float64 { return float64(r.followerStats().AppliedRecords) })
	reg.GaugeFunc(MetricReplLagRecords, func() float64 { return float64(r.followerStats().LagRecords) })
	reg.GaugeFunc(MetricReplLagBytes, func() float64 { return float64(r.followerStats().LagBytes) })
	reg.GaugeFunc(MetricReplSnapshots, func() float64 { return float64(r.followerStats().Snapshots) })
	reg.GaugeFunc(MetricReplDials, func() float64 { return float64(r.client.Stats().Dials) })
}

// Metric names the engine registers. They are exported as constants so the
// web layer, tests, and dashboards address the same strings the engine
// writes — /api/stats and /metrics read the very same atomics.
const (
	MetricQueries        = "precis_queries_total"
	MetricQuerySeconds   = "precis_query_seconds"
	MetricStageSeconds   = "precis_stage_seconds"
	MetricQueryErrors    = "precis_query_errors_total"
	MetricPartialAnswers = "precis_partial_answers_total"
	MetricTruncations    = "precis_truncations_total"
	MetricPanics         = "precis_panics_recovered_total"
	MetricResultTuples   = "precis_result_tuples_total"
	MetricSQLQueries     = "precis_sql_queries_total"
	MetricCacheHits      = "precis_cache_hits_total"
	MetricCacheMisses    = "precis_cache_misses_total"
	MetricCacheEvict     = "precis_cache_evictions_total"
	MetricCacheExpire    = "precis_cache_expirations_total"
	MetricCacheInval     = "precis_cache_invalidations_total"
	MetricCacheEntries   = "precis_cache_entries"
	MetricDBTuples       = "precis_db_tuples"
	MetricDBRelations    = "precis_db_relations"
	MetricIndexTokens    = "precis_index_tokens"
	MetricMemoHits       = "precis_schema_memo_hits_total"
	MetricMemoMisses     = "precis_schema_memo_misses_total"
)

// engineMetrics holds the engine's pre-resolved instrument pointers: the
// registry map is consulted once, at Instrument time, and every query
// afterwards pays only atomic operations. nil engineMetrics (the default)
// means the engine is un-instrumented and queries skip accounting entirely.
type engineMetrics struct {
	queries      *obs.Counter
	queryDur     *obs.Histogram
	partial      *obs.Counter
	panics       *obs.Counter
	resultTuples *obs.Counter
	sqlQueries   *obs.Counter

	errNoMatches *obs.Counter
	errInternal  *obs.Counter
	errCanceled  *obs.Counter
	errOther     *obs.Counter

	truncations map[TruncationReason]*obs.Counter
	stages      map[string]*obs.Histogram
}

// newEngineMetrics resolves every engine instrument in reg.
func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	reg.Help(MetricQueries, "précis queries answered (including errors and cache hits)")
	reg.Help(MetricQuerySeconds, "end-to-end query latency in seconds")
	reg.Help(MetricStageSeconds, "per-pipeline-stage latency in seconds (uncached queries)")
	reg.Help(MetricQueryErrors, "queries that returned an error, by kind")
	reg.Help(MetricPartialAnswers, "answers truncated by a resource budget")
	reg.Help(MetricTruncations, "budget truncations by exhausted dimension")
	reg.Help(MetricPanics, "panics recovered at the engine boundary")
	reg.Help(MetricResultTuples, "tuples materialized into result databases")
	reg.Help(MetricSQLQueries, "generated SQL queries issued against the store")
	m := &engineMetrics{
		queries:      reg.Counter(MetricQueries),
		queryDur:     reg.Histogram(MetricQuerySeconds),
		partial:      reg.Counter(MetricPartialAnswers),
		panics:       reg.Counter(MetricPanics),
		resultTuples: reg.Counter(MetricResultTuples),
		sqlQueries:   reg.Counter(MetricSQLQueries),
		errNoMatches: reg.Counter(MetricQueryErrors, "kind", "no_matches"),
		errInternal:  reg.Counter(MetricQueryErrors, "kind", "internal"),
		errCanceled:  reg.Counter(MetricQueryErrors, "kind", "canceled"),
		errOther:     reg.Counter(MetricQueryErrors, "kind", "other"),
		truncations: map[TruncationReason]*obs.Counter{
			TruncateDeadline:    reg.Counter(MetricTruncations, "reason", string(TruncateDeadline)),
			TruncateTupleBudget: reg.Counter(MetricTruncations, "reason", string(TruncateTupleBudget)),
			TruncateStepBudget:  reg.Counter(MetricTruncations, "reason", string(TruncateStepBudget)),
			TruncateByteBudget:  reg.Counter(MetricTruncations, "reason", string(TruncateByteBudget)),
		},
		stages: make(map[string]*obs.Histogram, 6),
	}
	for _, stage := range []string{
		obs.StageTokenize, obs.StageCacheLookup, obs.StageIndexLookup,
		obs.StageSchemaGen, obs.StageDBGen, obs.StageTranslate,
	} {
		m.stages[stage] = reg.Histogram(MetricStageSeconds, "stage", stage)
	}
	return m
}

// record accounts one finished query: total latency, outcome class, and —
// for fresh (uncached, successful) computations — result sizes and
// per-stage latencies from the query's trace.
func (m *engineMetrics) record(start time.Time, ans *Answer, err error, tr *obs.Trace) {
	m.queries.Inc()
	m.queryDur.ObserveNanos(time.Since(start).Nanoseconds())
	if err != nil {
		switch {
		case errors.Is(err, ErrNoMatches):
			m.errNoMatches.Inc()
		case errors.Is(err, ErrInternal):
			m.errInternal.Inc()
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			m.errCanceled.Inc()
		default:
			m.errOther.Inc()
		}
		return
	}
	if ans == nil || ans.FromCache {
		// Cache hits are visible in precis_query_seconds and the cache
		// counters; the stage histograms describe fresh pipeline runs only.
		return
	}
	if ans.Partial {
		m.partial.Inc()
		if c := m.truncations[ans.Truncation]; c != nil {
			c.Inc()
		}
	}
	m.resultTuples.Add(uint64(ans.Stats.TotalTuples))
	m.sqlQueries.Add(uint64(ans.Stats.Queries))
	m.observeStages(tr)
}

// observeStages feeds the per-stage histograms from a trace's spans.
func (m *engineMetrics) observeStages(tr *obs.Trace) {
	if tr == nil {
		return
	}
	for i := range tr.Spans {
		if h := m.stages[tr.Spans[i].Name]; h != nil {
			h.ObserveNanos(tr.Spans[i].Dur.Nanoseconds())
		}
	}
}

// cacheCountersFrom resolves the answer-cache counter set in reg. Because
// the registry get-or-creates by name, the counters survive cache resizes:
// EnableCache drops entries but never resets hit/miss totals.
func cacheCountersFrom(reg *obs.Registry) *anscache.Counters {
	reg.Help(MetricCacheHits, "answer cache hits")
	reg.Help(MetricCacheMisses, "answer cache misses")
	return &anscache.Counters{
		Hits:          reg.Counter(MetricCacheHits),
		Misses:        reg.Counter(MetricCacheMisses),
		Evictions:     reg.Counter(MetricCacheEvict),
		Expirations:   reg.Counter(MetricCacheExpire),
		Invalidations: reg.Counter(MetricCacheInval),
	}
}

// Instrument wires the engine to a metrics registry: query/error/panic
// counters, end-to-end and per-stage latency histograms, truncation
// counters by reason, answer-cache counters, and gauge callbacks for
// database and index sizes. Pass nil to detach.
//
// Call Instrument at setup time, before serving concurrent queries; the
// resolved instruments are then updated lock-free on the query path. The
// instruments are get-or-created by name, so instrumenting a rebuilt
// engine with the same registry continues the same monotonic series.
func (e *Engine) Instrument(reg *obs.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if reg == nil {
		e.registry = nil
		e.metrics = nil
		return
	}
	e.registry = reg
	e.metrics = newEngineMetrics(reg)
	if e.cache != nil {
		e.cache.AdoptCounters(cacheCountersFrom(reg))
	}
	// The size gauges sum over the backend's partitions (one on a single
	// engine, every shard on a coordinator).
	reg.GaugeFunc(MetricDBTuples, func() float64 { return float64(e.TotalTuples()) })
	reg.GaugeFunc(MetricDBRelations, func() float64 { return float64(e.NumRelations()) })
	reg.GaugeFunc(MetricIndexTokens, func() float64 {
		e.mu.RLock()
		defer e.mu.RUnlock()
		_, _, _, tokens := e.sizesLocked()
		return float64(tokens)
	})
	reg.GaugeFunc(MetricCacheEntries, func() float64 {
		e.mu.RLock()
		defer e.mu.RUnlock()
		if e.cache == nil {
			return 0
		}
		return float64(e.cache.Len())
	})
	// The engine graph's memo of result schemas; a profile's graph has its own.
	reg.Help(MetricMemoHits, "result schemas found memoised on the engine's schema graph")
	reg.Help(MetricMemoMisses, "result schemas generated because the schema graph held none")
	reg.GaugeFunc(MetricMemoHits, func() float64 { h, _, _ := e.graph.MemoStats(); return float64(h) })
	reg.GaugeFunc(MetricMemoMisses, func() float64 { _, m, _ := e.graph.MemoStats(); return float64(m) })
	e.backend.instrument(reg)
	if e.role.primary != nil {
		instrumentReplPrimary(reg, e.role.primary)
	}
	if e.role.follower != nil {
		instrumentReplFollower(reg, e.role.follower)
	}
	instrumentFencing(reg, e)
}

// instrumentFencing registers the failover observables. They read through
// ReplStats, so they stay correct across a live role change (a follower
// promoted to primary keeps its registry and the gauges follow the role).
func instrumentFencing(reg *obs.Registry, e *Engine) {
	reg.Help(MetricReplEpoch, "current fencing epoch (bumped by every promotion)")
	reg.Help(MetricReplFenced, "1 while this engine is fenced by a newer primary epoch")
	reg.Help(MetricReplEpochRejections, "handshakes or commits refused over an epoch mismatch")
	reg.Help(MetricReplFailoverDetections, "primary-silence detections by the auto-failover supervisor")
	reg.Help(MetricReplFailoverPromotions, "promotions performed by the auto-failover supervisor")
	reg.GaugeFunc(MetricReplEpoch, func() float64 { return float64(e.ReplStats().Epoch) })
	reg.GaugeFunc(MetricReplFenced, func() float64 {
		if e.ReplStats().FencedBy != 0 {
			return 1
		}
		return 0
	})
	reg.GaugeFunc(MetricReplEpochRejections, func() float64 {
		if st := e.ReplStats(); st.Primary != nil {
			return float64(st.Primary.EpochRejections)
		}
		return 0
	})
	reg.GaugeFunc(MetricReplFailoverDetections, func() float64 {
		if st := e.ReplStats(); st.Failover != nil {
			return float64(st.Failover.Detections)
		}
		return 0
	})
	reg.GaugeFunc(MetricReplFailoverPromotions, func() float64 {
		if st := e.ReplStats(); st.Failover != nil {
			return float64(st.Failover.Promotions)
		}
		return 0
	})
}

// Registry returns the metrics registry the engine was instrumented with
// (nil when un-instrumented).
func (e *Engine) Registry() *obs.Registry {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.registry
}
