package main

// counters reads the ingest-side counters of the prototype's in-process
// nodes through the modules' exported getters. The simulator's nodes are
// not reachable through the packages the benchmark may import; its
// cluster-level counters come from SimStats instead.
func (d *deployment) counters() map[string]float64 {
	out := map[string]float64{}
	if len(d.nodes) == 0 {
		return out
	}
	var logicalChunks, cacheHits, diskHits, prefetches float64
	var diskReads, bloomSkips, rebuilds, simEntries, writeIOs, sealed float64
	var hitRate float64
	for _, n := range d.nodes {
		st := n.Stats()
		logicalChunks += float64(st.LogicalChunks)
		cacheHits += float64(st.CacheHits)
		diskHits += float64(st.DiskIndexHits)
		prefetches += float64(st.Prefetches)
		r, s := n.DiskIndexStats()
		diskReads += float64(r)
		bloomSkips += float64(s)
		_, rb := n.Engine().BidSummaryStats()
		rebuilds += float64(rb)
		simEntries += float64(n.SimIndexSize())
		_, w, _ := n.Engine().Manager().Stats()
		writeIOs += float64(w)
		sealed += float64(n.NumSealedContainers())
		hitRate += n.CacheHitRate() / float64(len(d.nodes))
	}
	out["store.fpcache_hit_rate"] = hitRate
	out["store.cache_hit_share"] = ratio(cacheHits, cacheHits+diskHits)
	out["store.disk_index_hits_per_k_chunks"] = 1000 * ratio(diskHits, logicalChunks)
	out["store.index_disk_reads"] = diskReads
	out["store.bloom_skips"] = bloomSkips
	out["store.prefetches"] = prefetches
	out["store.simindex_entries"] = simEntries
	out["store.summary_rebuilds"] = rebuilds
	out["container.write_ios"] = writeIOs
	out["container.sealed"] = sealed
	return out
}

// restoreCounters reads the read-side container counters after the timed
// restore. On the durable workload the nodes were re-opened just before,
// so the counts are the restore's alone.
func (d *deployment) restoreCounters() map[string]float64 {
	out := map[string]float64{}
	if len(d.nodes) == 0 {
		return out
	}
	var readIOs, loads, hits, misses, evictions float64
	for _, n := range d.nodes {
		r, _, _ := n.Engine().Manager().Stats()
		readIOs += float64(r)
		loads += float64(n.Engine().Manager().DiskLoads())
		cs := n.ReadCacheStats()
		hits += float64(cs.Hits)
		misses += float64(cs.Misses)
		evictions += float64(cs.Evictions)
	}
	out["container.read_ios"] = readIOs
	out["container.disk_loads"] = loads
	out["container.read_cache_hit_rate"] = ratio(hits, hits+misses)
	out["container.read_cache_evictions"] = evictions
	return out
}

// ratio is a/b, and 0 when the layer did no work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
