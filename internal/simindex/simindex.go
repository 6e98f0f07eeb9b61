// Package simindex implements the similarity index: an in-RAM hash table
// mapping representative fingerprints (RFPs) of stored super-chunk
// handprints to the container IDs (CIDs) where those super-chunks live
// (paper §3.3, Fig. 3).
//
// The index serves two roles:
//
//  1. Routing bids: a candidate node counts how many RFPs of an incoming
//     handprint it already stores (Algorithm 1 step 2).
//  2. Cache priming: a matched RFP names a container whose full chunk
//     fingerprint set is prefetched into the chunk-fingerprint cache,
//     preserving locality and keeping the on-disk chunk index cold.
//
// To support concurrent lookup by multiple backup streams on multicore
// nodes, the table is partitioned into lock stripes: one lock per hash
// bucket or per run of consecutive buckets, configurable exactly as the
// paper's Fig. 4b sweeps it.
package simindex

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sigmadedupe/internal/bloom"
	"sigmadedupe/internal/fingerprint"
)

// entryBytes is the paper's accounting figure for one index entry
// (fingerprint + container ID + overhead), used in RAM-usage estimates.
const entryBytes = 40

// Index is a striped-lock similarity index. The zero value is not usable;
// construct with New.
type Index struct {
	stripes []stripe
	mask    uint64

	lookups atomic.Uint64
	hits    atomic.Uint64

	// summary is the node's bid summary: a Bloom sketch of every RFP in
	// the index, maintained incrementally on Insert and rebuilt (doubled)
	// from a full stripe enumeration when it outgrows its capacity. A
	// bid consults it before walking the stripes, and routers to skip
	// candidates that cannot bid — see SummaryMayContainAny.
	summary *bloom.Summary
}

type stripe struct {
	mu sync.RWMutex
	m  map[fingerprint.Fingerprint]uint64
	// pad the stripe to its own cache line region to limit false sharing
	// between adjacent locks at high stripe counts.
	_ [24]byte
}

// New creates an Index with the given number of lock stripes, rounded up
// to a power of two. numLocks=1 degenerates to a single global lock.
func New(numLocks int) (*Index, error) {
	if numLocks <= 0 {
		return nil, fmt.Errorf("simindex: lock count %d must be positive", numLocks)
	}
	n := 1
	for n < numLocks {
		n <<= 1
	}
	idx := &Index{stripes: make([]stripe, n), mask: uint64(n - 1)}
	for i := range idx.stripes {
		idx.stripes[i].m = make(map[fingerprint.Fingerprint]uint64)
	}
	sum, err := bloom.NewSummary(0, 0)
	if err != nil {
		return nil, err
	}
	idx.summary = sum
	return idx, nil
}

// Stripes returns the number of lock stripes.
func (x *Index) Stripes() int { return len(x.stripes) }

func (x *Index) stripeFor(fp fingerprint.Fingerprint) *stripe {
	return &x.stripes[fp.Uint64()&x.mask]
}

// Insert maps a representative fingerprint to the container holding its
// super-chunk. A later insert for the same RFP overwrites the mapping
// (most recent container wins, matching the LRU-friendly design).
func (x *Index) Insert(fp fingerprint.Fingerprint, cid uint64) {
	s := x.stripeFor(fp)
	s.mu.Lock()
	s.m[fp] = cid
	s.mu.Unlock()
	// Feed the bid summary AFTER releasing the stripe lock: a concurrent
	// summary rebuild enumerates the stripes, and the summary's
	// no-false-negative guarantee across rebuilds requires the key to be
	// visible in its stripe before Add runs (see bloom.Summary).
	if x.summary.Add(fp) {
		// Overfull: double the capacity and refill from the stripes.
		// Racing inserts may all trip this around the same threshold;
		// Rebuild collapses requests that are no longer a growth.
		x.summary.Rebuild(2*x.summary.Capacity(), x.Range)
	}
}

// Range calls yield for every representative fingerprint in the index,
// one stripe at a time (each stripe read-locked only while it is being
// walked). Enumeration is not a snapshot: entries inserted concurrently
// into already-walked stripes are missed here and caught by their
// pending summary Add.
func (x *Index) Range(yield func(fp fingerprint.Fingerprint) bool) {
	for i := range x.stripes {
		s := &x.stripes[i]
		s.mu.RLock()
		for fp := range s.m {
			if !yield(fp) {
				s.mu.RUnlock()
				return
			}
		}
		s.mu.RUnlock()
	}
}

// SummaryMayContainAny reports whether any of the given representative
// fingerprints may be present, per the node's bid summary. False means
// a CountMatches bid for this handprint is guaranteed to return zero —
// the router-side pre-filter of the scale-out bid fan-out.
func (x *Index) SummaryMayContainAny(hp []fingerprint.Fingerprint) bool {
	return x.summary.MayContainAny(hp)
}

// Summary exposes the node's bid summary for stats reporting.
func (x *Index) Summary() *bloom.Summary { return x.summary }

// Lookup returns the container ID mapped to fp.
func (x *Index) Lookup(fp fingerprint.Fingerprint) (uint64, bool) {
	s := x.stripeFor(fp)
	s.mu.RLock()
	cid, ok := s.m[fp]
	s.mu.RUnlock()
	x.lookups.Add(1)
	if ok {
		x.hits.Add(1)
	}
	return cid, ok
}

// CountMatches returns how many of the given representative fingerprints
// are present in the index — the resemblance bid r_i of Algorithm 1.
func (x *Index) CountMatches(hp []fingerprint.Fingerprint) int {
	n := 0
	for _, fp := range hp {
		s := x.stripeFor(fp)
		s.mu.RLock()
		_, ok := s.m[fp]
		s.mu.RUnlock()
		if ok {
			n++
		}
	}
	x.lookups.Add(uint64(len(hp)))
	x.hits.Add(uint64(n))
	return n
}

// LookupContainers returns the distinct container IDs mapped from any of
// the given representative fingerprints, in first-seen order. These are
// the containers to prefetch before chunk-level comparison.
func (x *Index) LookupContainers(hp []fingerprint.Fingerprint) []uint64 {
	seen := make(map[uint64]struct{}, len(hp))
	var out []uint64
	for _, fp := range hp {
		if cid, ok := x.Lookup(fp); ok {
			if _, dup := seen[cid]; !dup {
				seen[cid] = struct{}{}
				out = append(out, cid)
			}
		}
	}
	return out
}

// Len returns the total number of entries across stripes.
func (x *Index) Len() int {
	n := 0
	for i := range x.stripes {
		s := &x.stripes[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// SizeBytes estimates RAM usage at the paper's 40-bytes-per-entry rate.
func (x *Index) SizeBytes() int64 { return int64(x.Len()) * entryBytes }

// Stats reports cumulative lookup and hit counters.
func (x *Index) Stats() (lookups, hits uint64) {
	return x.lookups.Load(), x.hits.Load()
}
