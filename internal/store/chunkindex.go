package store

import (
	"maps"
	"sync"
	"sync/atomic"

	"sigmadedupe/internal/bloom"
	"sigmadedupe/internal/container"
	"sigmadedupe/internal/fingerprint"
)

// chunkIndex is the traditional full chunk-fingerprint index that maps
// every stored chunk's fingerprint to its on-disk location (paper §3.3:
// "we also maintain a traditional hash-table based chunk fingerprint
// index on disk to support further comparison after in-cache fingerprint
// lookup fails").
//
// The index models the disk residency of the structure explicitly: a
// DDFS-style in-RAM Bloom filter screens out definitely-absent
// fingerprints, and every lookup that passes the filter is counted as one
// disk I/O. The paper's intra-node bottleneck — random disk I/O for index
// lookups — is therefore observable through the disk-read counter, and
// the effectiveness of the similarity-index/cache front-end is measured
// by how rarely this index is consulted. It is safe for concurrent use;
// the counters are atomics because locate charges its disk read under
// the shared lock.
//
// The filter is sized by what the index holds, not by a capacity fixed
// in advance: it starts at bloom.DefaultSummaryCapacity keys and doubles
// whenever it outgrows its size, refilled from the map under mu, so a
// node holding a few hundred chunks pays kilobytes, not megabytes.
type chunkIndex struct {
	mu     sync.RWMutex
	m      map[fingerprint.Fingerprint]container.Loc
	filter bloom.Growable

	diskReads  atomic.Uint64
	bloomSkips atomic.Uint64
	falsePos   atomic.Uint64
}

func newChunkIndex() *chunkIndex {
	f, err := bloom.NewGrowable(bloom.DefaultSummaryCapacity, 0.01)
	if err != nil {
		panic(err) // constant arguments: only a bug can fail them
	}
	return &chunkIndex{m: make(map[fingerprint.Fingerprint]container.Loc), filter: f}
}

// insert records the location of a stored chunk. Only a key new to the
// map feeds the filter, so a compaction's relocation does not count
// toward the next doubling.
func (x *chunkIndex) insert(fp fingerprint.Fingerprint, loc container.Loc) {
	x.mu.Lock()
	defer x.mu.Unlock()
	n := len(x.m)
	x.m[fp] = loc
	if len(x.m) > n && x.filter.Add(fp) {
		// Overfull: double and refill from the map. The only error is a
		// non-positive capacity, which doubling a positive one cannot give.
		_ = x.filter.Rebuild(2*x.filter.Capacity(), maps.Keys(x.m))
	}
}

// delete removes fp from the index (garbage collection: the chunk's last
// reference is gone and its container copy is being retired). The Bloom
// filter cannot unlearn fp until its next doubling refills it from the
// map; until then lookups of fp cost one false-positive disk read, which
// is the standard DDFS tradeoff.
func (x *chunkIndex) delete(fp fingerprint.Fingerprint) {
	x.mu.Lock()
	delete(x.m, fp)
	x.mu.Unlock()
}

// lookup finds the stored location of fp. A negative Bloom-filter answer
// short-circuits without disk access; otherwise one disk read is charged.
// This is the dedup path's question — is fp stored at all?
func (x *chunkIndex) lookup(fp fingerprint.Fingerprint) (container.Loc, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if !x.filter.MayContain(fp) {
		x.bloomSkips.Add(1)
		return container.Loc{}, false
	}
	x.diskReads.Add(1)
	loc, ok := x.m[fp]
	if !ok {
		x.falsePos.Add(1)
	}
	return loc, ok
}

// locate finds the stored location of fp for a caller that knows fp is
// stored — restore, migration and failover reads of recipe entries. It
// charges the disk read like lookup but skips the Bloom filter: a stored
// key always passes it, so the probe would be a wasted cache miss. A miss
// (the chunk was collected since the recipe named it) is the caller's
// not-found, not a Bloom false positive.
func (x *chunkIndex) locate(fp fingerprint.Fingerprint) (container.Loc, bool) {
	x.diskReads.Add(1)
	x.mu.RLock()
	loc, ok := x.m[fp]
	x.mu.RUnlock()
	return loc, ok
}

// peek finds fp without charging any modeled disk I/O — for GC liveness
// decisions and recovery sweeps, which are bookkeeping, not part of the
// measured deduplication lookup path.
func (x *chunkIndex) peek(fp fingerprint.Fingerprint) (container.Loc, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	loc, ok := x.m[fp]
	return loc, ok
}

// stats reports the I/O-relevant counters: disk reads performed,
// disk reads avoided by the Bloom filter, and Bloom false positives.
func (x *chunkIndex) stats() (diskReads, bloomSkips, falsePositives uint64) {
	return x.diskReads.Load(), x.bloomSkips.Load(), x.falsePos.Load()
}
