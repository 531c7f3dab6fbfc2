package main

// The benchmark's metric catalogue. BENCHMARK.json at the repo root lists the
// same names, units, directions and bounds; TestBenchmarkJSONMatchesCatalogue
// keeps the two from drifting.

// metricDef names one reported number.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the baseline median it may worsen by; 0 on per-layer metrics
}

// Every workload reports every end-to-end metric, so only quantities all
// four workloads have are here. README.md lists the ISSUE's metrics that were
// demoted to the per-layer table and why.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"search_qps", "1/s", "higher", 0.25},
	{"search_p50_ms", "ms", "lower", 0.25},
	{"search_p90_ms", "ms", "lower", 0.25},
	{"n_io_per_query", "blocks", "lower", 0.01},
	{"overall_ratio", "ratio", "lower", 0.005},
	{"recall_at_k", "ratio", "higher", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is keyed layer.metric; layers are this repo's modules. A metric
// that does not apply to a workload (wal.* on serve-read, shard.* on
// lib-file-batch) is reported as 0 there.
var perLayer = []metricDef{
	// serve: the HTTP front end as the client sees it.
	{"serve.search_p99_ms", "ms", "lower", 0},
	{"serve.search_p99_readonly_ms", "ms", "lower", 0},
	{"serve.failed_share", "ratio", "lower", 0},
	{"serve.net_us", "us", "lower", 0},
	{"serve.handler_self_us", "us", "lower", 0},
	{"serve.request_bytes", "bytes", "lower", 0},
	{"serve.response_bytes", "bytes", "lower", 0},
	{"serve.slo_miss_share", "ratio", "lower", 0},
	{"serve.shed_share", "ratio", "lower", 0},
	{"serve.gen_lateness_p99_ms", "ms", "lower", 0},
	{"serve.residual_us", "us", "lower", 0},
	{"serve.trace_overhead_ms", "ms", "lower", 0},
	// coalesce
	{"coalesce.wait_us", "us", "lower", 0},
	{"coalesce.submit_idle_us", "us", "lower", 0},
	// shard
	{"shard.wait_us", "us", "lower", 0},
	{"shard.scatter_self_us", "us", "lower", 0},
	{"shard.skew_us", "us", "lower", 0},
	{"shard.scatter_noop_us", "us", "lower", 0},
	// facade
	{"facade.search_self_us", "us", "lower", 0},
	{"facade.alloc_bytes_per_query", "bytes", "lower", 0},
	{"facade.allocs_per_query", "count", "lower", 0},
	// diskindex
	{"diskindex.query_us", "us", "lower", 0},
	{"diskindex.compute_us", "us", "lower", 0},
	{"diskindex.radii_per_query", "count", "lower", 0},
	{"diskindex.probes_per_query", "count", "lower", 0},
	{"diskindex.checked_per_query", "count", "lower", 0},
	{"diskindex.entries_scanned_per_query", "count", "lower", 0},
	{"diskindex.fp_rejected_per_query", "count", "lower", 0},
	{"diskindex.duplicates_per_query", "count", "lower", 0},
	{"diskindex.build_s", "s", "lower", 0},
	{"diskindex.save_s", "s", "lower", 0},
	{"diskindex.open_s", "s", "lower", 0},
	{"diskindex.checkpoint_s", "s", "lower", 0},
	{"diskindex.insert_us", "us", "lower", 0},
	{"diskindex.delete_us", "us", "lower", 0},
	{"diskindex.scaling_exponent", "ratio", "lower", 0},
	{"diskindex.index_bytes_per_vector_byte", "ratio", "lower", 0},
	// leaf kernels
	{"lsh.project_us", "us", "lower", 0},
	{"vecmath.matvec_ns", "ns", "lower", 0},
	{"vecmath.sqdist_ns_d128", "ns", "lower", 0},
	{"ann.topk_push_ns", "ns", "lower", 0},
	// ioengine
	{"ioengine.op_us", "us", "lower", 0},
	{"ioengine.ops_per_query", "count", "lower", 0},
	{"ioengine.coalesced_per_query", "count", "higher", 0},
	{"ioengine.deduped_per_query", "count", "higher", 0},
	{"ioengine.physical_ops_per_query", "count", "lower", 0},
	{"ioengine.read_vec_us_depth16", "us", "lower", 0},
	// blockcache
	{"blockcache.hit_ratio", "ratio", "higher", 0},
	{"blockcache.prefetched_per_query", "count", "lower", 0},
	{"blockcache.get_hit_ns", "ns", "lower", 0},
	{"blockcache.put_ns", "ns", "lower", 0},
	// blockstore
	{"blockstore.read_bytes_per_query", "bytes", "lower", 0},
	{"blockstore.backend_us", "us", "lower", 0},
	{"blockstore.backend_ops_per_query", "count", "lower", 0},
	{"blockstore.backend_bytes_per_query", "bytes", "lower", 0},
	{"blockstore.blocks_per_op", "count", "higher", 0},
	{"blockstore.read_block_ns_mem", "ns", "lower", 0},
	{"blockstore.read_block_ns_file", "ns", "lower", 0},
	{"blockstore.checksum_ns", "ns", "lower", 0},
	// wal
	{"wal.insert_p50_ms", "ms", "lower", 0},
	{"wal.recover_s", "s", "lower", 0},
	{"wal.commit_us", "us", "lower", 0},
	{"wal.append_sync_us", "us", "lower", 0},
	{"wal.appends_per_insert", "count", "lower", 0},
	{"wal.read_stall_factor", "ratio", "lower", 0},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// pick builds the result's metrics object from defs, reading values from
// got; names absent from got are returned in missing and reported as 0.
func pick(defs []metricDef, got map[string]float64) (out map[string]metricValue, missing []string) {
	out = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			missing = append(missing, d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, missing
}
