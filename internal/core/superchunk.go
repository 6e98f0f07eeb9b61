// Package core implements the paper's primary contribution: super-chunk
// handprinting (deterministic k-min sampling per Broder's theorem, §2.2)
// and the similarity-based stateful data routing algorithm (Algorithm 1).
//
// A super-chunk groups consecutive chunks of a backup stream (default 1MB)
// and is the unit of data routing; deduplication itself happens at chunk
// granularity inside each node. The handprint — the k smallest chunk
// fingerprints of the super-chunk — is a resemblance sketch: two
// super-chunks sharing any representative fingerprint are likely similar,
// with detection probability ≥ 1-(1-r)^k for true resemblance r (Eq. 5).
package core

import (
	"fmt"

	"sigmadedupe/internal/chunker"
	"sigmadedupe/internal/fingerprint"
)

// DefaultSuperChunkSize is the routing granularity the paper selects (§4.4)
// to balance index-lookup performance and cluster deduplication
// effectiveness.
const DefaultSuperChunkSize = 1 << 20

// DefaultHandprintSize is the number of representative fingerprints per
// handprint. The paper's sensitivity study (Fig. 5b, Fig. 6) finds k=8 at
// 1MB super-chunks the best effectiveness/RAM tradeoff.
const DefaultHandprintSize = 8

// ChunkRef describes one chunk inside a super-chunk: its fingerprint and
// size, plus the payload when the caller retains it (trace-driven
// simulation drops payloads and keeps only fingerprints).
type ChunkRef struct {
	FP   fingerprint.Fingerprint
	Size int
	Data []byte // nil in trace-driven mode
}

// SuperChunk is a consecutive run of chunks treated as one routing unit.
type SuperChunk struct {
	// Chunks lists the member chunks in stream order.
	Chunks []ChunkRef
	// FileID optionally tags the file this super-chunk belongs to
	// (needed by the Extreme Binning baseline, which routes whole files).
	FileID uint64
	// FileMinFP is the minimum chunk fingerprint of the whole file the
	// super-chunk belongs to — Extreme Binning's file representative.
	// Zero when the stream carries no file metadata.
	FileMinFP fingerprint.Fingerprint
	// handprint caches the computed handprint.
	handprint Handprint
	hpSize    int
}

// Size returns the logical size in bytes of the super-chunk.
func (s *SuperChunk) Size() int64 {
	var n int64
	for _, c := range s.Chunks {
		n += int64(c.Size)
	}
	return n
}

// Fingerprints returns the member fingerprints in stream order. The
// returned slice is freshly allocated.
func (s *SuperChunk) Fingerprints() []fingerprint.Fingerprint {
	out := make([]fingerprint.Fingerprint, len(s.Chunks))
	for i, c := range s.Chunks {
		out[i] = c.FP
	}
	return out
}

// Handprint returns the k smallest chunk fingerprints of the super-chunk
// (Algorithm 1 step 1), as NewHandprint over its fingerprints does —
// read in place. Results are cached per (super-chunk, k).
func (s *SuperChunk) Handprint(k int) Handprint {
	if s.hpSize == k && s.handprint != nil {
		return s.handprint
	}
	hp := Handprint{}
	if k > 0 && len(s.Chunks) > 0 {
		w := newWindow(k)
		for i := range s.Chunks {
			w.offer(&s.Chunks[i].FP)
		}
		hp = w.hp
	}
	s.handprint, s.hpSize = hp, k
	return hp
}

// Seed returns a stable per-super-chunk routing seed: the first chunk's
// fingerprint prefix mixed with the file identity. It exists for the
// degenerate case — a super-chunk whose handprint is empty (no chunks,
// or handprinting disabled) still needs a route, and the seed makes
// Membership.Candidates spread such super-chunks across the cluster
// instead of stacking them on one node. Stable across processes (it
// feeds durable placement decisions).
func (s *SuperChunk) Seed() uint64 {
	seed := s.FileID
	if len(s.Chunks) > 0 {
		seed ^= s.Chunks[0].FP.Uint64()
	} else if !s.FileMinFP.IsZero() {
		seed ^= s.FileMinFP.Uint64()
	}
	return seed
}

// MinFingerprint returns the single smallest fingerprint, the
// "representative fingerprint" used by stateless routing and by Extreme
// Binning's file-level similarity detection.
func (s *SuperChunk) MinFingerprint() fingerprint.Fingerprint {
	if len(s.Chunks) == 0 {
		return fingerprint.Fingerprint{}
	}
	min := s.Chunks[0].FP
	for _, c := range s.Chunks[1:] {
		if c.FP.Less(min) {
			min = c.FP
		}
	}
	return min
}

// Partitioner groups a chunk stream into super-chunks of a target size.
//
// Boundaries are content-defined by default, as in EMC's super-chunk
// design (Dong et al., FAST'11): a super-chunk ends at the first chunk
// past target/4 bytes whose fingerprint satisfies a divisor condition
// derived from the target size, with a hard cut at 2× target. Insertions
// or deletions upstream therefore shift the grid only locally — the
// boundaries realign, exactly like CDC at coarse granularity — which is
// essential for super-chunk routing to re-find similar data across backup
// generations.
type Partitioner struct {
	target  int64
	algo    fingerprint.Algorithm
	pending SuperChunk
	size    int64
	keep    bool
	divisor uint64
}

// NewPartitioner returns a Partitioner emitting super-chunks of roughly
// target bytes (the final super-chunk of a stream may be smaller).
// keepData controls whether chunk payloads are retained on ChunkRefs.
func NewPartitioner(target int64, algo fingerprint.Algorithm, keepData bool) (*Partitioner, error) {
	if target <= 0 {
		return nil, fmt.Errorf("superchunk target size %d must be positive", target)
	}
	if algo == 0 {
		algo = fingerprint.SHA1
	}
	p := &Partitioner{target: target, algo: algo, keep: keepData}
	// Divisor ≈ expected chunks per super-chunk at 4KB chunks, so the
	// boundary condition fires on average once per target bytes.
	d := uint64(target / 4096)
	if d < 2 {
		d = 2
	}
	p.divisor = d
	return p, nil
}

// Add fingerprints chunk ch and appends it to the pending super-chunk.
// When the pending super-chunk reaches the target size it is returned and
// a new one is started; otherwise Add returns nil.
func (p *Partitioner) Add(ch chunker.Chunk) *SuperChunk {
	ref := ChunkRef{FP: p.algo.Sum(ch.Data), Size: ch.Len()}
	if p.keep {
		ref.Data = ch.Data
	}
	return p.AddRef(ref)
}

// AddRef appends a pre-fingerprinted chunk (trace-driven mode).
func (p *Partitioner) AddRef(ref ChunkRef) *SuperChunk {
	p.pending.Chunks = append(p.pending.Chunks, ref)
	p.size += int64(ref.Size)
	// Content-defined boundary: cut whenever the chunk fingerprint hits
	// the divisor condition (expected super-chunk size = target), with a
	// hard cap at 2x target. There is deliberately no minimum size: a
	// minimum would make cut positions depend on where the super-chunk
	// started, so upstream insertions would cascade boundary shifts down
	// the whole stream and scatter stable content across nodes. With the
	// boundary a pure function of chunk content, the grid realigns
	// immediately after any insertion or deletion.
	if ref.FP.Uint64()%p.divisor == p.divisor-1 {
		return p.flush()
	}
	if p.size >= 2*p.target {
		return p.flush()
	}
	return nil
}

// Flush returns the final partial super-chunk, or nil when empty. The
// partitioner is reset and may be reused for the next stream.
func (p *Partitioner) Flush() *SuperChunk {
	if len(p.pending.Chunks) == 0 {
		return nil
	}
	return p.flush()
}

// SetFileID tags subsequently emitted super-chunks with the given file ID.
func (p *Partitioner) SetFileID(id uint64) { p.pending.FileID = id }

func (p *Partitioner) flush() *SuperChunk {
	sc := p.pending
	out := &SuperChunk{Chunks: sc.Chunks, FileID: sc.FileID}
	p.pending = SuperChunk{FileID: sc.FileID}
	// Pre-size the next membership list to the one just emitted: at a
	// steady chunk size this turns the per-super-chunk append growth
	// series into a single allocation.
	if n := len(sc.Chunks); n > 0 {
		p.pending.Chunks = make([]ChunkRef, 0, n)
	}
	p.size = 0
	return out
}

// AggregateRefs folds a list of chunk fingerprints — typically the
// entries of a backup recipe or a stored super-chunk, where the same
// chunk may appear several times — into (fingerprint, count) pairs in
// first-appearance order. It is the shared shape of every reference
// batch in the deletion subsystem: each occurrence is one reference.
func AggregateRefs(fps []fingerprint.Fingerprint) ([]fingerprint.Fingerprint, []int64) {
	counts := make(map[fingerprint.Fingerprint]int64, len(fps))
	order := make([]fingerprint.Fingerprint, 0, len(fps))
	for _, fp := range fps {
		if counts[fp] == 0 {
			order = append(order, fp)
		}
		counts[fp]++
	}
	ns := make([]int64, len(order))
	for i, fp := range order {
		ns[i] = counts[fp]
	}
	return order, ns
}
