package main

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions; the smoke test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the median it may worsen by
	moves  string  // per-layer only: what it should move, for the README
}

// endToEnd is what a user of the backup service sees. The bounds are
// this sandbox's: the host's speed steps by 10-30 % between minutes, in
// CPU seconds as much as in wall seconds, so every timing gets the widest
// band; the byte counts move with the seed and the in-flight window.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ingest_mb_s", unit: "MB/s", better: "higher", bound: 0.25},
	{name: "restore_mb_s", unit: "MB/s", better: "higher", bound: 0.25},
	{name: "ingest_cpu_s_per_gb", unit: "s/GB", better: "lower", bound: 0.25},
	{name: "restore_cpu_s_per_gb", unit: "s/GB", better: "lower", bound: 0.25},
	{name: "reclaim_s_per_gb", unit: "s/GB", better: "lower", bound: 0.25},
	{name: "dedup_ratio", unit: "ratio", better: "higher", bound: 0.20},
	{name: "space_amp", unit: "ratio", better: "lower", bound: 0.20},
	{name: "wire_ratio", unit: "ratio", better: "lower", bound: 0.20},
	{name: "storage_skew", unit: "ratio", better: "lower", bound: 0.10},
	{name: "rss_peak_mb", unit: "MB", better: "lower", bound: 0.15},
}

// throughput marks the metrics that get a canary-normalised companion.
var throughput = map[string]bool{"ingest_mb_s": true, "restore_mb_s": true}

var perLayer = []metricDef{
	{name: "chunker.next_s_per_gb", unit: "s/GB", better: "lower", moves: "ingest_mb_s, ingest_cpu_s_per_gb on unique-cdc"},
	{name: "chunker.chunks_per_mb", unit: "1/MB", better: "lower", moves: "ingest_cpu_s_per_gb on unique-cdc (per-chunk costs scale with it)"},
	{name: "fingerprint.sum_s_per_gb", unit: "s/GB", better: "lower", moves: "ingest_mb_s, ingest_cpu_s_per_gb on all four"},
	{name: "core.partition_s_per_gb", unit: "s/GB", better: "lower", moves: "ingest_mb_s on sim-scaleout"},
	{name: "core.handprint_s_per_gb", unit: "s/GB", better: "lower", moves: "ingest_mb_s on sim-scaleout"},
	{name: "core.super_chunks", unit: "count", better: "lower", moves: "ingest_mb_s on sim-scaleout (per-super-chunk costs scale with it)"},
	{name: "router.route_s_per_gb", unit: "s/GB", better: "lower", moves: "ingest_mb_s on sim-scaleout"},
	{name: "router.bids_per_sc", unit: "1/sc", better: "lower", moves: "ingest_mb_s on sim-scaleout; dedup_ratio, storage_skew"},
	{name: "router.summary_checks_per_sc", unit: "1/sc", better: "lower", moves: "ingest_mb_s on sim-scaleout"},
	{name: "router.zero_bid_share", unit: "ratio", better: "lower", moves: "dedup_ratio, storage_skew on sim-scaleout and incremental-*"},
	{name: "rpc.bid_s_per_gb", unit: "s/GB", better: "lower", moves: "ingest_mb_s on incremental-*"},
	{name: "rpc.query_s_per_gb", unit: "s/GB", better: "lower", moves: "ingest_mb_s on incremental-*"},
	{name: "rpc.store_s_per_gb", unit: "s/GB", better: "lower", moves: "ingest_mb_s on unique-cdc"},
	{name: "rpc.flush_s_per_gb", unit: "s/GB", better: "lower", moves: "ingest_mb_s on incremental-disk"},
	{name: "rpc.read_batch_s_per_gb", unit: "s/GB", better: "lower", moves: "restore_mb_s on unique-cdc, incremental-*"},
	{name: "node.bid_s_per_gb", unit: "s/GB", better: "lower", moves: "ingest_mb_s on sim-scaleout"},
	{name: "node.query_s_per_gb", unit: "s/GB", better: "lower", moves: "ingest_mb_s on incremental-*"},
	{name: "node.store_s_per_gb", unit: "s/GB", better: "lower", moves: "ingest_mb_s on incremental-*, sim-scaleout"},
	{name: "node.flush_s_per_gb", unit: "s/GB", better: "lower", moves: "ingest_mb_s on incremental-disk"},
	{name: "node.read_batch_s_per_gb", unit: "s/GB", better: "lower", moves: "restore_mb_s, restore_cpu_s_per_gb on incremental-disk"},
	{name: "wire.ingest_s_per_gb", unit: "s/GB", better: "lower", moves: "ingest_mb_s, ingest_cpu_s_per_gb on unique-cdc"},
	{name: "wire.restore_s_per_gb", unit: "s/GB", better: "lower", moves: "restore_mb_s, restore_cpu_s_per_gb on unique-cdc"},
	{name: "store.fpcache_hit_rate", unit: "ratio", better: "higher", moves: "ingest_mb_s, ingest_cpu_s_per_gb on incremental-*"},
	{name: "store.cache_hit_share", unit: "ratio", better: "higher", moves: "ingest_mb_s on incremental-*"},
	{name: "store.disk_index_hits_per_k_chunks", unit: "1/kchunk", better: "lower", moves: "ingest_mb_s on incremental-*"},
	{name: "store.index_disk_reads", unit: "count", better: "lower", moves: "ingest_mb_s on incremental-*"},
	{name: "store.bloom_skips", unit: "count", better: "higher", moves: "ingest_mb_s on unique-cdc"},
	{name: "store.prefetches", unit: "count", better: "lower", moves: "ingest_cpu_s_per_gb on incremental-*"},
	{name: "store.simindex_entries", unit: "count", better: "lower", moves: "rss_peak_mb"},
	{name: "store.summary_rebuilds", unit: "count", better: "lower", moves: "reclaim_s_per_gb"},
	{name: "store.decref_s_per_gb", unit: "s/GB", better: "lower", moves: "reclaim_s_per_gb"},
	{name: "store.compact_s", unit: "s", better: "lower", moves: "reclaim_s_per_gb on incremental-disk"},
	{name: "store.compact_rewritten_mb", unit: "MB", better: "lower", moves: "reclaim_s_per_gb, space_amp"},
	{name: "store.compact_retired", unit: "count", better: "higher", moves: "space_amp"},
	{name: "store.reclaimed_mb", unit: "MB", better: "higher", moves: "space_amp"},
	{name: "store.dead_mb_after", unit: "MB", better: "lower", moves: "space_amp"},
	{name: "store.restore_post_gc_mb_s", unit: "MB/s", better: "higher", moves: "restore_mb_s of later restores (a compaction change that scatters survivors shows here)"},
	{name: "store.recover_s", unit: "s", better: "lower", moves: "setup_s-adjacent restart cost on incremental-disk"},
	{name: "store.disk_bytes_per_user_byte", unit: "ratio", better: "lower", moves: "ingest_mb_s on incremental-disk (write amplification)"},
	{name: "container.write_ios", unit: "count", better: "lower", moves: "ingest_mb_s on incremental-disk"},
	{name: "container.read_ios", unit: "count", better: "lower", moves: "restore_mb_s on incremental-disk"},
	{name: "container.disk_loads", unit: "count", better: "lower", moves: "restore_mb_s, restore_cpu_s_per_gb on incremental-disk"},
	{name: "container.sealed", unit: "count", better: "lower", moves: "restore_mb_s (fragmentation)"},
	{name: "container.read_cache_hit_rate", unit: "ratio", better: "higher", moves: "restore_mb_s on incremental-disk; none on incremental-ram"},
	{name: "container.read_cache_evictions", unit: "count", better: "lower", moves: "restore_mb_s on incremental-disk"},
	{name: "director.put_recipe_s_per_gb", unit: "s/GB", better: "lower", moves: "ingest_mb_s on incremental-disk (fsynced journal)"},
	{name: "director.get_recipe_s_per_gb", unit: "s/GB", better: "lower", moves: "restore_mb_s"},
	{name: "director.delete_recipe_s_per_gb", unit: "s/GB", better: "lower", moves: "reclaim_s_per_gb"},
	{name: "client.pipeline_overlap", unit: "ratio", better: "higher", moves: "ingest_mb_s (how much serial layer time the product pipeline hides)"},
	{name: "client.rpc_msgs_per_sc", unit: "1/sc", better: "lower", moves: "ingest_mb_s"},
	{name: "client.restore_rpcs_per_gb", unit: "1/GB", better: "lower", moves: "restore_mb_s"},
	{name: "client.peak_buffered_mb", unit: "MB", better: "lower", moves: "rss_peak_mb"},
	{name: "client.chunk_buf_reuse_rate", unit: "ratio", better: "higher", moves: "ingest_cpu_s_per_gb, rss_peak_mb"},
	{name: "client.gen_ingest_ms_p50", unit: "ms", better: "lower", moves: "ingest_mb_s"},
	{name: "client.gen_ingest_ms_max", unit: "ms", better: "lower", moves: "ingest_mb_s (compaction and fsync stalls a median hides)"},
	{name: "cluster.normalized_dr", unit: "ratio", better: "higher", moves: "dedup_ratio on sim-scaleout"},
	{name: "cluster.effective_dr", unit: "ratio", better: "higher", moves: "dedup_ratio, storage_skew on sim-scaleout"},
	{name: "cluster.msgs_per_sc", unit: "1/sc", better: "lower", moves: "ingest_mb_s on sim-scaleout"},
	{name: "proc.mallocs_per_mb", unit: "1/MB", better: "lower", moves: "ingest_cpu_s_per_gb everywhere"},
	{name: "proc.alloc_mb_per_gb", unit: "MB/GB", better: "lower", moves: "ingest_cpu_s_per_gb, rss_peak_mb everywhere"},
	{name: "proc.gc_cycles", unit: "count", better: "lower", moves: "ingest_cpu_s_per_gb everywhere"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower", moves: "ingest_mb_s everywhere"},
	{name: "host.canary_mb_s", unit: "MB/s", better: "higher", moves: "the benchmark's own health"},
	{name: "host.discarded_reps", unit: "count", better: "lower", moves: "the benchmark's own health"},
	{name: "trace.spans", unit: "count", better: "lower", moves: "the benchmark's own health"},
	{name: "trace.overhead_pct", unit: "%", better: "lower", moves: "the benchmark's own health"},
	{name: "trace.dedup_ratio_delta", unit: "ratio", better: "lower", moves: "the benchmark's own health (must stay <= 0.02)"},
}
