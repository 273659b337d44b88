package main

// metricDef describes one reported metric. The two tables below are the
// source BENCHMARK.json is written from; a test keeps them in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	exact  bool    // per-layer only: a count that must repeat exactly for a seed
}

// endToEnd are the gated metrics, reported by every workload with -trace 0.
// Times are calibrated: they read as ms and s on a machine whose kernel call
// takes 1 ms. Each bound is three times the spread the builder measured
// over ten seeds (README.md), rounded up.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "lat_ms", unit: "ms", better: "lower", bound: 0.12},
	{name: "lat_p90_ms", unit: "ms", better: "lower", bound: 0.18},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.15},
	{name: "write_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "alloc_kb_per_op", unit: "KiB", better: "lower", bound: 0.05},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.05},
	{name: "mem_live_mb", unit: "MiB", better: "lower", bound: 0.02},
}

// perLayer are the ungated metrics of single layers, reported by every
// workload with -trace 1. Times are calibrated; "us" is per sampled op
// unless the name says otherwise.
var perLayer = []metricDef{
	{name: "web.self_us", unit: "us", better: "lower"},
	{name: "web.resp_bytes_per_op", unit: "bytes", better: "lower", exact: true},
	{name: "precis.query_us", unit: "us", better: "lower"},
	{name: "precis.write_us", unit: "us", better: "lower"},
	{name: "precis.replay_gap_pct", unit: "%", better: "lower"},
	{name: "anscache.hit_ratio", unit: "ratio", better: "higher", exact: true},
	{name: "anscache.hit_us", unit: "us", better: "lower"},
	{name: "anscache.evictions_per_kop", unit: "count", better: "lower", exact: true},
	{name: "anscache.invalidations_per_write", unit: "count", better: "lower", exact: true},
	{name: "invidx.lookup_us", unit: "us", better: "lower"},
	{name: "invidx.occurrences_per_op", unit: "count", better: "lower", exact: true},
	{name: "invidx.build_ms", unit: "ms", better: "lower"},
	{name: "invidx.maintain_us", unit: "us", better: "lower"},
	{name: "core.schema_gen_us", unit: "us", better: "lower"},
	{name: "core.schema_relations_per_op", unit: "count", better: "lower", exact: true},
	{name: "core.db_gen_self_us", unit: "us", better: "lower"},
	{name: "core.joins_per_op", unit: "count", better: "lower", exact: true},
	{name: "core.tuples_per_op", unit: "count", better: "lower", exact: true},
	{name: "core.db_gen_rr_over_naive", unit: "ratio", better: "lower"},
	{name: "sqlx.exec_us", unit: "us", better: "lower"},
	{name: "sqlx.stmts_per_op", unit: "count", better: "lower", exact: true},
	{name: "sqlx.exec_us_per_stmt", unit: "us", better: "lower"},
	{name: "sqlx.rows_examined_per_tuple", unit: "ratio", better: "lower", exact: true},
	{name: "sqlx.index_lookups_per_op", unit: "count", better: "lower", exact: true},
	{name: "storage.load_ms", unit: "ms", better: "lower"},
	{name: "storage.bytes_per_tuple", unit: "bytes", better: "lower"},
	{name: "storage.mutate_us", unit: "us", better: "lower"},
	{name: "nlg.translate_us", unit: "us", better: "lower"},
	{name: "nlg.translate_us_per_tuple", unit: "us", better: "lower"},
	{name: "nlg.narrative_bytes_per_op", unit: "bytes", better: "lower", exact: true},
	{name: "shard.fetch_us", unit: "us", better: "lower"},
	{name: "shard.fetch_us_per_stmt", unit: "us", better: "lower"},
	{name: "shard.lookup_us", unit: "us", better: "lower"},
	{name: "shard.probe_amplification", unit: "ratio", better: "lower", exact: true},
	{name: "shard.partition_ms", unit: "ms", better: "lower"},
	{name: "wal.append_us", unit: "us", better: "lower"},
	{name: "wal.bytes_per_mutation", unit: "bytes", better: "lower", exact: true},
	{name: "wal.checkpoint_ms", unit: "ms", better: "lower"},
	{name: "wal.compact_ms", unit: "ms", better: "lower"},
	{name: "wal.delta_bytes_per_ckpt", unit: "bytes", better: "lower", exact: true},
	{name: "wal.full_bytes", unit: "bytes", better: "lower", exact: true},
	{name: "wal.ckpt_pause_ms", unit: "ms", better: "lower"},
	{name: "wal.recover_ms", unit: "ms", better: "lower"},
	{name: "obs.trace_overhead_pct", unit: "%", better: "lower"},
}
