package main

// The metric declarations of BENCHMARK.json, in its order. The smoke
// test checks that the file and these tables agree, and that every run
// emits exactly the declared names.

type declared struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the share by which it may worsen
}

var endToEnd = []declared{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.20},
	{"p50_ms", "ms", "lower", 0.20},
	{"p95_ms", "ms", "lower", 0.25},
	{"recovery_s", "s", "lower", 0.25},
	{"index_bytes_per_edge", "B/edge", "lower", 0.05},
}

var perLayer = []declared{
	{Name: "rpq.parse_us", Unit: "us", Better: "lower"},
	{Name: "rewrite.normalize_us", Unit: "us", Better: "lower"},
	{Name: "plan.compile_us", Unit: "us", Better: "lower"},
	{Name: "plancache.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "plancache.lookup_us", Unit: "us", Better: "lower"},
	{Name: "exec.run_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.rows_touched", Unit: "rows", Better: "lower"},
	{Name: "exec.work_efficiency", Unit: "ratio", Better: "lower"},
	{Name: "exec.scatter_tax_ms", Unit: "ms", Better: "lower"},
	{Name: "pathindex.shard_skew", Unit: "ratio", Better: "lower"},
	{Name: "pathindex.scan_ms", Unit: "ms", Better: "lower"},
	{Name: "pathindex.srcrange_us", Unit: "us", Better: "lower"},
	{Name: "pathindex.blocks_decoded", Unit: "count", Better: "lower"},
	{Name: "pathindex.bytes_decoded", Unit: "B", Better: "lower"},
	{Name: "pathindex.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "core.names_ms", Unit: "ms", Better: "lower"},
	{Name: "httpserve.wire_ms", Unit: "ms", Better: "lower"},
	{Name: "httpserve.bytes_per_pair", Unit: "B/pair", Better: "lower"},
	{Name: "core.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.append_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.bytes_per_edge", Unit: "B/edge", Better: "lower"},
	{Name: "wal.fsyncs", Unit: "count", Better: "lower"},
	{Name: "pathdb.apply_self_ms", Unit: "ms", Better: "lower"},
	{Name: "pathdb.apply_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "pathdb.apply_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "durability.spills", Unit: "count", Better: "lower"},
	{Name: "durability.checkpoints", Unit: "count", Better: "higher"},
	{Name: "durability.compactions", Unit: "count", Better: "higher"},
	{Name: "durability.max_compact_step_ms", Unit: "ms", Better: "lower"},
	{Name: "durability.tiers_max", Unit: "count", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.gc_cpu_fraction", Unit: "ratio", Better: "lower"},
	{Name: "trace.qps", Unit: "1/s", Better: "higher"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
}
