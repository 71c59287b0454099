package main

// spec.go is the one table of workload and metric names. -list prints
// it, the result line is assembled from it, and TestSpecMatchesJSON
// compares it with BENCHMARK.json, so a name cannot drift between the
// code, the JSON and the README.

// runSeconds is the run length BENCHMARK.json freezes; every operation
// count below is the count for a run of this length and scales linearly
// with -seconds. Work is fixed by count, never by the clock.
const runSeconds = 22

type workloadSpec struct {
	Name string
	Why  string
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

var workloads = []workloadSpec{
	{"serve-burst", "Write-heavy service path over loopback TCP: 256-activation Zipf batches through wire codec, writer queue, WAL append+fsync and checkpoints, point reads stalled behind the writer; serve, wal work most."},
	{"query-zoom", "Read-mostly dashboard on one connection: two of three global reads hit the cache snapshot, one recomputes; tiny fsync-bound 8-edge writes; cluster, cache, analytics and the reply codec work most."},
	{"core-stream", "The paper's online setting in process (no lock, WAL or wire): one Activate per call with point reads and a zooming view between; decay, similarity, pyramid, pq, cluster; control for serving changes."},
	{"core-batch", "Fig. 9 bursty day in process through ConcurrentNetwork with Parallel=true: large coalesced Zipf minute batches through the pooled parallel repair, reads after each minute; bypasses serve and wal."},
}

// The bounds. The design goal was a tenth; this box does not allow it.
// Its host moves between a fast and a slow state about 30% apart and
// stays in one for seconds to minutes (a fixed pure-Go loop, timed once
// a second for 90 s, read 32.6 ms or 42 ms), so ten consecutive runs of
// one workload spread by 3% to 23% whatever a single run reports. Every
// timing therefore carries the widest bound the contract allows, and
// set-up time with it; memory repeats within 4% and keeps the tenth.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_acts_per_s", "1/s", "higher", 0.25},
	{"ingest_call_p50_ms", "ms", "lower", 0.25},
	{"ingest_call_p90_ms", "ms", "lower", 0.25},
	{"query_point_p50_us", "us", "lower", 0.25},
	{"query_point_p90_us", "us", "lower", 0.25},
	{"query_global_p50_ms", "ms", "lower", 0.25},
	{"query_global_p90_ms", "ms", "lower", 0.25},
	{"recover_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"ok_ops_share", "ratio", "higher", 0.01},
}

var perLayer = []metricSpec{
	// serve: wire codec and loopback round trips.
	{Name: "serve.batch256_rtt_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.batch8_rtt_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.rtt_stats_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.encode_batch256_us", Unit: "us", Better: "lower"},
	{Name: "serve.decode_batch256_us", Unit: "us", Better: "lower"},
	{Name: "serve.encode_clusters_us", Unit: "us", Better: "lower"},
	{Name: "serve.decode_clusters_us", Unit: "us", Better: "lower"},
	{Name: "serve.reply_bytes_per_global", Unit: "bytes", Better: "lower"},
	// wal: the log alone, fsync on every append.
	{Name: "wal.append_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.fsync_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.fsyncs_per_batch", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_act", Unit: "bytes", Better: "lower"},
	{Name: "wal.replay_mb_per_s", Unit: "MB/s", Better: "higher"},
	// anc: the durable facade.
	{Name: "anc.durable_batch256_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "anc.durable_batch8_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "anc.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "anc.recover_load_ms", Unit: "ms", Better: "lower"},
	{Name: "anc.recover_replay_acts_per_s", Unit: "1/s", Better: "higher"},
	// serve/repl: follower cost of the same log.
	{Name: "repl.apply_frame_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "repl.catchup_s", Unit: "s", Better: "lower"},
	// core: the in-memory network.
	{Name: "core.new_ms", Unit: "ms", Better: "lower"},
	{Name: "core.activate_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.batch8_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.batch256_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.save_ms", Unit: "ms", Better: "lower"},
	{Name: "core.load_ms", Unit: "ms", Better: "lower"},
	{Name: "core.snapshot_bytes_per_node", Unit: "bytes", Better: "lower"},
	// pyramid: index build and repair.
	{Name: "pyramid.build_ms", Unit: "ms", Better: "lower"},
	{Name: "pyramid.update_edge_us_p50", Unit: "us", Better: "lower"},
	{Name: "pyramid.update_edge_us_p90", Unit: "us", Better: "lower"},
	{Name: "pyramid.update_batch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "pyramid.update_batch_par_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "pyramid.distinct_edges_per_batch", Unit: "count", Better: "lower"},
	{Name: "pyramid.reconstruct_ms", Unit: "ms", Better: "lower"},
	{Name: "pyramid.index_bytes_per_node", Unit: "bytes", Better: "lower"},
	// similarity and decay: the sigma update.
	{Name: "similarity.init_ms", Unit: "ms", Better: "lower"},
	{Name: "similarity.activate_us", Unit: "us", Better: "lower"},
	{Name: "similarity.bump_ns", Unit: "ns", Better: "lower"},
	{Name: "similarity.refresh_node_us", Unit: "us", Better: "lower"},
	{Name: "decay.activate_ns", Unit: "ns", Better: "lower"},
	{Name: "decay.rescale_us", Unit: "us", Better: "lower"},
	{Name: "decay.rescales", Unit: "count", Better: "lower"},
	// pq, metric, graph: what the layers above stand on.
	{Name: "pq.pushpop_ns", Unit: "ns", Better: "lower"},
	{Name: "metric.dijkstra_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.build_ms", Unit: "ms", Better: "lower"},
	// cluster: extraction kernels.
	{Name: "cluster.power_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.even_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.local_us_p50", Unit: "us", Better: "lower"},
	{Name: "cluster.smallest_us_p50", Unit: "us", Better: "lower"},
	{Name: "cluster.zoom_ms_p50", Unit: "ms", Better: "lower"},
	// cluster/cache: the materialized snapshot.
	{Name: "cache.hit_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.invalidations_per_write", Unit: "count", Better: "lower"},
	// analytics: TieRank and evolution tracking.
	{Name: "analytics.rank_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "analytics.rank_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "analytics.rank_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "analytics.observe_ms_p50", Unit: "ms", Better: "lower"},
	// obs: what a registry and a tracer cost when attached.
	{Name: "obs.ingest_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "obs.query_overhead_share", Unit: "ratio", Better: "lower"},
	// process counters of the replayed slice.
	{Name: "proc.cpu_s", Unit: "s", Better: "lower"},
	{Name: "proc.alloc_bytes_per_act", Unit: "bytes", Better: "lower"},
	{Name: "proc.allocs_per_act", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "proc.heap_after_gc_mb", Unit: "MB", Better: "lower"},
	// closure: self times by subtraction along the ingest descent.
	{Name: "trace.serve_self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "trace.wal_self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "trace.core_self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "trace.ingest_residual_share", Unit: "ratio", Better: "lower"},
	// tails and canaries: informational.
	{Name: "tail.ingest_call_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "tail.query_point_p99_us", Unit: "us", Better: "lower"},
	{Name: "tail.query_global_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.gen_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.canary_ms", Unit: "ms", Better: "lower"},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
