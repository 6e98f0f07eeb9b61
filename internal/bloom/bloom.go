// Package bloom provides a Bloom filter used by the traditional on-disk
// chunk index (DDFS-style, Zhu et al. FAST'08) to avoid disk lookups for
// fingerprints that are certainly absent. It is the RAM-usage baseline the
// paper compares the similarity index against (§4.3: 50GB of Bloom filter
// per 100TB unique data at 4KB chunks).
package bloom

import (
	"fmt"
	"math"
	"math/bits"

	"sigmadedupe/internal/fingerprint"
)

// filter is a cache-line-blocked Bloom filter over chunk fingerprints
// (Putze, Sanders & Singler, "Cache-, Hash- and Space-Efficient Bloom
// Filters", WEA'07): each key selects one 512-bit block and all k probe
// bits land inside it, so an Add or MayContain touches a single cache
// line instead of k scattered ones. The filter sits on the per-chunk
// store and query paths where, at multi-MB filter sizes, the classic
// layout's k random DRAM accesses per operation were the dominant cost.
//
// Blocking costs accuracy — keys crowd into blocks unevenly — which New
// compensates for by oversizing the bit array ~25% over the classic
// formula. It is NOT safe for concurrent mutation; callers serialize
// access (the chunk index wraps it in its own lock).
type filter struct {
	bits    []uint64
	nblocks uint64 // number of 512-bit (8-word) blocks
	m       uint64 // number of bits (nblocks * 512)
	k       int    // number of hash probes, all within one block
	inserts uint64
}

// blockBits is the block size: one 64-byte cache line.
const blockBits = 512

// newFilter creates a Bloom filter sized for n expected entries at the given
// target false-positive rate.
func newFilter(n int, fpRate float64) (*filter, error) {
	if n <= 0 {
		return nil, fmt.Errorf("bloom: expected entries %d must be positive", n)
	}
	if fpRate <= 0 || fpRate >= 1 {
		return nil, fmt.Errorf("bloom: false-positive rate %v must be in (0,1)", fpRate)
	}
	ideal := -float64(n) * math.Log(fpRate) / (math.Ln2 * math.Ln2)
	k := int(math.Round(ideal / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	// Oversize by 25% to recover the accuracy the blocked layout gives up,
	// then round up to whole cache-line blocks.
	m := uint64(math.Ceil(ideal * 5 / 4))
	nblocks := (m + blockBits - 1) / blockBits
	return &filter{
		bits:    make([]uint64, nblocks*(blockBits/64)),
		nblocks: nblocks,
		m:       nblocks * blockBits,
		k:       k,
	}, nil
}

// probeSeeds derives the block-selection and in-block probe seeds from
// the fingerprint's leading 16 bytes: h1 picks the block, and successive
// 9-bit slices of h2 (rotated) pick the k bits inside it.
func probeSeeds(fp fingerprint.Fingerprint) (h1, h2 uint64) {
	h1 = fp.Uint64()
	for i := 8; i < 16; i++ {
		h2 = h2<<8 | uint64(fp[i])
	}
	h2 |= 1
	return h1, h2
}

// reduce maps a hash onto [0, n) with a multiply-shift instead of a
// modulo — the filter sits on the per-chunk store and query paths, and
// the 64-bit division was measurable there.
func reduce(x, n uint64) uint64 {
	hi, _ := bits.Mul64(x, n)
	return hi
}

// Add inserts the fingerprint.
func (f *filter) Add(fp fingerprint.Fingerprint) {
	h1, h2 := probeSeeds(fp)
	b := f.bits[reduce(h1, f.nblocks)*(blockBits/64):][:blockBits/64]
	for i := 0; i < f.k; i++ {
		pos := h2 & (blockBits - 1)
		b[pos>>6] |= 1 << (pos & 63)
		h2 = h2>>9 | h2<<55
	}
	f.inserts++
}

// MayContain reports whether the fingerprint may have been added. False
// means definitely absent; true may be a false positive.
func (f *filter) MayContain(fp fingerprint.Fingerprint) bool {
	h1, h2 := probeSeeds(fp)
	b := f.bits[reduce(h1, f.nblocks)*(blockBits/64):][:blockBits/64]
	for i := 0; i < f.k; i++ {
		pos := h2 & (blockBits - 1)
		if b[pos>>6]&(1<<(pos&63)) == 0 {
			return false
		}
		h2 = h2>>9 | h2<<55
	}
	return true
}

// SizeBytes returns the filter's bit-array footprint.
func (f *filter) SizeBytes() int { return len(f.bits) * 8 }

// Inserts returns the number of Add calls.
func (f *filter) Inserts() uint64 { return f.inserts }
