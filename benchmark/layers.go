package main

import (
	"fmt"
	"math"
)

// sampleWanted is the least number of requests the traced replay samples.
const sampleWanted = 300

// traced runs the probes and the replay and fills res.PerLayer. Every time
// is calibrated by the F of the pass or probe it was measured in.
func traced(res *result, sys *system, cl *client, sp workloadSpec, pools termPools, main []op, ph *phaseResult, o runOptions) error {
	renderer, err := newRenderer()
	if err != nil {
		return err
	}
	pr := &probeResult{}
	single := &backend{graph: sys.graph, renderer: renderer}
	sharded := &backend{graph: sys.graph, renderer: renderer}
	sample := sampleReads(main, sampleWanted)
	r := newReplayer(sys, cl, sample)
	// The paired pass runs before the probes' copy of the dataset exists:
	// the smaller the heap, the shorter and more frequent the GC cycles,
	// as in the measured phase.
	if sp.shards > 1 {
		// The engine's shards are private; replay its path on a partition
		// of the dataset it was built from, which NewSharded only read.
		if err := pr.partition(sys.db, sharded); err != nil {
			return err
		}
		r.paired(sharded, true)
		if err := pr.copyDataset(o.sc, o.seed); err != nil {
			return err
		}
		single.db, single.index = pr.db, pr.index
		r.other(single)
	} else {
		// A single engine: replay its path on its own data, so the replay
		// finds the caches as warm or cold as the engine does.
		single.db, single.index = sys.eng.Database(), sys.eng.Index()
		r.paired(single, false)
		if err := pr.copyDataset(o.sc, o.seed); err != nil {
			return err
		}
		if err := pr.partition(pr.db, sharded); err != nil {
			return err
		}
		r.other(sharded)
	}
	rp := r.result()
	res.account("every replayed request succeeds", rp.failed, rp.failure)
	if err := pr.probeHits(sys, sample); err != nil {
		return err
	}
	if err := pr.probeMutate(pools, o.seed); err != nil {
		return err
	}
	if err := pr.probeAppend(pools, o.seed, o.dataRoot); err != nil {
		return err
	}
	if err := pr.probeDurable(pools, o.seed, o.dataRoot); err != nil {
		return err
	}
	if o.traceOut != "" {
		if err := writeSpans(o.traceOut, res.Workload, o.seed, rp); err != nil {
			return err
		}
	}
	res.Diagnostics.SampledRequests = len(sample)
	res.Diagnostics.ReplayF = rp.factor

	ix := indexSpans(rp.spans)
	n := len(sample)
	own := passPaired // the pass the engine's own path was replayed in
	singlePass, shardedPass := passOf(sp, false), passOf(sp, true)
	dur := func(s span) float64 { return s.dur() }
	// us is the trimmed mean over requests of a per-request total, in
	// calibrated microseconds.
	us := func(pass, name string, value func(span) float64) float64 {
		return trimmedMean(ix.perRequest(pass, name, n, value), trimFrac) / rp.factor[pass] / 1e3
	}
	mean := func(cs []stageCounts, f func(stageCounts) float64) float64 {
		t := 0.0
		for _, c := range cs {
			t += f(c)
		}
		return t / float64(len(cs))
	}
	total := func(cs []stageCounts, f func(stageCounts) float64) float64 { return mean(cs, f) * float64(len(cs)) }

	m := map[string]float64{}
	res.PerLayer = m

	httpUS := us(passPaired, spanHTTP, dur)
	m["precis.query_us"] = us(passPaired, spanQuery, dur)
	m["web.self_us"] = httpUS - m["precis.query_us"]
	m["web.resp_bytes_per_op"] = float64(ph.respBytes) / float64(ph.reads)
	m["obs.trace_overhead_pct"] = 100 * (us(passPaired, spanHTTPTraced, dur) - httpUS) / httpUS
	m["precis.write_us"] = pr.writeUS
	stages := 0.0
	for _, name := range []string{spanLookup, spanSchemaGen, spanDBGen, spanTranslate} {
		stages += us(own, name, dur)
	}
	res.Diagnostics.ReplaySignedGapPct = 100 * (stages - m["precis.query_us"]) / m["precis.query_us"]
	m["precis.replay_gap_pct"] = math.Abs(res.Diagnostics.ReplaySignedGapPct)

	if lookups := ph.cache.Hits + ph.cache.Misses; lookups > 0 {
		m["anscache.hit_ratio"] = float64(ph.cache.Hits) / float64(lookups)
		m["anscache.evictions_per_kop"] = 1000 * float64(ph.cache.Evictions) / float64(ph.reads)
		m["anscache.invalidations_per_write"] = float64(ph.cache.Invalidations) / float64(ph.writes)
	} else {
		m["anscache.hit_ratio"], m["anscache.evictions_per_kop"], m["anscache.invalidations_per_write"] = 0, 0, 0
	}
	m["anscache.hit_us"] = pr.hitUS

	m["invidx.lookup_us"] = us(singlePass, spanIdxProbe, dur)
	m["invidx.occurrences_per_op"] = mean(rp.engine, func(c stageCounts) float64 { return float64(c.occurrences) })
	m["invidx.build_ms"] = pr.indexBuildMS
	m["invidx.maintain_us"] = pr.maintainUS

	m["core.schema_gen_us"] = us(own, spanSchemaGen, dur)
	m["core.schema_relations_per_op"] = mean(rp.engine, func(c stageCounts) float64 { return float64(c.relations) })
	m["core.db_gen_self_us"] = us(own, spanDBGen, ix.self)
	m["core.joins_per_op"] = mean(rp.engine, func(c stageCounts) float64 { return float64(c.stats.JoinsExecuted) })
	m["core.tuples_per_op"] = mean(rp.engine, func(c stageCounts) float64 { return float64(c.stats.TotalTuples) })
	m["core.db_gen_rr_over_naive"] = us(singlePass, spanRR, dur) / us(singlePass, spanNaive, dur)

	m["sqlx.exec_us"] = us(singlePass, spanExec, dur)
	m["sqlx.stmts_per_op"] = mean(rp.single, func(c stageCounts) float64 { return float64(c.stats.Queries) })
	m["sqlx.exec_us_per_stmt"] = m["sqlx.exec_us"] / m["sqlx.stmts_per_op"]
	m["sqlx.rows_examined_per_tuple"] = total(rp.single, func(c stageCounts) float64 { return float64(c.stats.SQL.TupleReads + c.stats.SQL.Scanned) }) /
		total(rp.single, func(c stageCounts) float64 { return float64(c.stats.TotalTuples) })
	m["sqlx.index_lookups_per_op"] = mean(rp.single, func(c stageCounts) float64 { return float64(c.stats.SQL.IndexLookups) })

	m["storage.load_ms"] = pr.loadMS
	m["storage.bytes_per_tuple"] = float64(ph.liveBytes) / float64(sys.eng.TotalTuples())
	m["storage.mutate_us"] = pr.mutateUS

	m["nlg.translate_us"] = us(own, spanTranslate, dur)
	m["nlg.translate_us_per_tuple"] = m["nlg.translate_us"] / m["core.tuples_per_op"]
	m["nlg.narrative_bytes_per_op"] = mean(rp.engine, func(c stageCounts) float64 { return float64(c.narrativeBytes) })

	m["shard.fetch_us"] = us(shardedPass, spanFetch, dur)
	m["shard.fetch_us_per_stmt"] = m["shard.fetch_us"] * float64(n) / float64(ix.count(shardedPass, spanFetch))
	m["shard.lookup_us"] = us(shardedPass, spanLookup, dur)
	m["shard.probe_amplification"] = total(rp.sharded, func(c stageCounts) float64 { return float64(c.stats.SQL.IndexLookups) }) /
		total(rp.single, func(c stageCounts) float64 { return float64(c.stats.SQL.IndexLookups) })
	m["shard.partition_ms"] = pr.partitionMS

	m["wal.append_us"] = pr.appendUS
	m["wal.bytes_per_mutation"] = pr.walBytesPerMutation
	m["wal.checkpoint_ms"] = pr.checkpointMS
	m["wal.compact_ms"] = pr.compactMS
	m["wal.delta_bytes_per_ckpt"] = pr.deltaBytesPerCkpt
	m["wal.full_bytes"] = pr.fullBytes
	m["wal.ckpt_pause_ms"] = pr.pauseMS
	m["wal.recover_ms"] = pr.recoverMS

	// At -smoke size a query is so short that the engine's fixed glue
	// (lock, cache key, metrics) is itself a tenth of it; the check is for
	// the paper-scale run.
	var gapErr error
	if gap := m["precis.replay_gap_pct"]; o.sc.paperScale() && (gap >= 10 || math.IsNaN(gap)) {
		gapErr = fmt.Errorf("stage sum %.1f us vs precis.query_us %.1f us: gap %.1f%%", stages, m["precis.query_us"], gap)
	}
	res.check("replay stages sum to the engine's query time within 10%", gapErr)
	for _, d := range perLayer {
		if v, ok := m[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.check("per-layer metric "+d.name+" is a number", fmt.Errorf("got %v (present=%t)", v, ok))
		}
	}
	return nil
}
