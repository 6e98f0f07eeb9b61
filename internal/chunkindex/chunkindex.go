// Package chunkindex implements the traditional full chunk-fingerprint
// index that maps every stored chunk's fingerprint to its on-disk location
// (paper §3.3: "we also maintain a traditional hash-table based chunk
// fingerprint index on disk to support further comparison after in-cache
// fingerprint lookup fails").
//
// The index models the disk residency of the structure explicitly: a
// DDFS-style in-RAM Bloom filter screens out definitely-absent
// fingerprints, and every lookup that passes the filter is counted as one
// disk I/O. The paper's intra-node bottleneck — random disk I/O for index
// lookups — is therefore observable through the DiskReads counter, and the
// effectiveness of the similarity-index/cache front-end is measured by how
// rarely this index is consulted.
package chunkindex

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sigmadedupe/internal/bloom"
	"sigmadedupe/internal/container"
	"sigmadedupe/internal/fingerprint"
)

// EntryBytes is the accounting size of one on-disk index entry
// (fingerprint + location + overhead), matching the paper's 40B figure.
const EntryBytes = 40

// Index is the on-disk chunk fingerprint index with a Bloom-filter
// front-end. Safe for concurrent use; the counters are atomics because
// Locate charges its disk read under the shared lock.
type Index struct {
	mu     sync.RWMutex
	m      map[fingerprint.Fingerprint]container.Loc
	filter *bloom.Filter

	diskReads  atomic.Uint64
	bloomSkips atomic.Uint64
	falsePos   atomic.Uint64
}

// New creates an index expecting roughly n entries.
func New(n int) (*Index, error) {
	if n <= 0 {
		return nil, fmt.Errorf("chunkindex: expected entries %d must be positive", n)
	}
	f, err := bloom.New(n, 0.01)
	if err != nil {
		return nil, fmt.Errorf("chunkindex: %w", err)
	}
	// The map grows on demand: n only sizes the Bloom filter. Large
	// clusters instantiate many indexes, and preallocating every map for
	// its worst case would waste gigabytes.
	return &Index{
		m:      make(map[fingerprint.Fingerprint]container.Loc),
		filter: f,
	}, nil
}

// Insert records the location of a newly stored unique chunk.
func (x *Index) Insert(fp fingerprint.Fingerprint, loc container.Loc) {
	x.mu.Lock()
	x.m[fp] = loc
	x.filter.Add(fp)
	x.mu.Unlock()
}

// Delete removes fp from the index (garbage collection: the chunk's last
// reference is gone and its container copy is being retired). The Bloom
// filter cannot unlearn fp; subsequent lookups of it cost one false-
// positive disk read, which is the standard DDFS tradeoff.
func (x *Index) Delete(fp fingerprint.Fingerprint) {
	x.mu.Lock()
	delete(x.m, fp)
	x.mu.Unlock()
}

// Lookup finds the stored location of fp. A negative Bloom-filter answer
// short-circuits without disk access; otherwise one disk read is charged.
// This is the dedup path's question — is fp stored at all?
func (x *Index) Lookup(fp fingerprint.Fingerprint) (container.Loc, bool) {
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

// Locate finds the stored location of fp for a caller that knows fp is
// stored — restore, migration and failover reads of recipe entries. It
// charges the disk read like Lookup but skips the Bloom filter: a stored
// key always passes it, so the probe would be a wasted cache miss. A miss
// (the chunk was collected since the recipe named it) is the caller's
// not-found, not a Bloom false positive.
func (x *Index) Locate(fp fingerprint.Fingerprint) (container.Loc, bool) {
	x.diskReads.Add(1)
	x.mu.RLock()
	loc, ok := x.m[fp]
	x.mu.RUnlock()
	return loc, ok
}

// Peek finds fp without charging any modeled disk I/O — for GC liveness
// decisions and recovery sweeps, which are bookkeeping, not part of the
// measured deduplication lookup path.
func (x *Index) Peek(fp fingerprint.Fingerprint) (container.Loc, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	loc, ok := x.m[fp]
	return loc, ok
}

// Len returns the number of indexed chunks.
func (x *Index) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.m)
}

// Stats reports the I/O-relevant counters: disk reads performed,
// disk reads avoided by the Bloom filter, and Bloom false positives.
func (x *Index) Stats() (diskReads, bloomSkips, falsePositives uint64) {
	return x.diskReads.Load(), x.bloomSkips.Load(), x.falsePos.Load()
}

// RAMBytes returns the in-RAM footprint (the Bloom filter only; the table
// itself is accounted as disk-resident).
func (x *Index) RAMBytes() int64 { return int64(x.filter.SizeBytes()) }

// DiskBytes returns the modeled on-disk footprint of the full index.
func (x *Index) DiskBytes() int64 { return int64(x.Len()) * EntryBytes }
