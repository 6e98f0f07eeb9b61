// Package workload synthesizes the four evaluation datasets of the paper's
// Table 2. The real datasets (Linux kernel sources 1.0–3.3.6, VM backup
// images, and the FIU mail/web traces) are not redistributable; each
// generator is a seeded, deterministic stand-in calibrated to the same
// deduplication ratio and the distributional property that drives each
// experiment:
//
//   - Linux: many small files, successive versions with small block-level
//     deltas (DR ≈ 8 at 4KB chunks).
//   - VM: few very large files with a skewed size distribution and two
//     full backups (DR ≈ 4.3); the large-file skew is what degrades
//     Extreme Binning in Fig. 8.
//   - Mail: a block trace without file metadata, heavy duplication with
//     strong run locality (DR ≈ 10.5).
//   - Web: a block trace without file metadata, low redundancy (DR ≈ 1.9).
//
// Content is synthesized from 4KB "blocks" identified by 64-bit seeds; a
// block's bytes are a deterministic PRNG expansion of its seed, so equal
// seeds produce byte-identical blocks and dedup behaves exactly as the
// seed stream dictates. Fingerprints of materialized blocks are memoized
// per corpus, so trace-driven experiments pay hashing cost proportional to
// unique (physical) data, not logical data.
package workload

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
)

// BlockSize is the synthetic block granularity; it matches the paper's
// 4KB static chunk size so SC chunk boundaries align with block reuse.
const BlockSize = 4096

// Item is one unit of the backup stream: a file (Linux, VM) or an
// anonymous trace segment (Mail, Web; FileID 0 and HasFileInfo false).
type Item struct {
	FileID uint64
	Name   string
	Blocks []uint64 // block seeds, in order
}

// Size returns the item's logical size in bytes.
func (it Item) Size() int64 { return int64(len(it.Blocks)) * BlockSize }

// Generator produces a deterministic stream of items.
type Generator interface {
	// Name returns the dataset name as used in Table 2.
	Name() string
	// HasFileInfo reports whether items carry real file identities
	// (required by the Extreme Binning baseline).
	HasFileInfo() bool
	// Items invokes yield for every item in stream order, stopping on
	// the first error.
	Items(yield func(Item) error) error
}

// blockData expands a block seed into its 4KB payload using a splitmix64
// keystream. Equal seeds always produce equal bytes.
func blockData(seed uint64) []byte {
	out := make([]byte, BlockSize)
	FillBlock(seed, out)
	return out
}

// FillBlock writes the block payload for seed into dst (len BlockSize).
func FillBlock(seed uint64, dst []byte) {
	x := seed
	for i := 0; i+8 <= len(dst); i += 8 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		binary.LittleEndian.PutUint64(dst[i:], z)
	}
}

// Materialize concatenates the payloads of an item's blocks.
func Materialize(it Item) []byte {
	out := make([]byte, 0, it.Size())
	buf := make([]byte, BlockSize)
	for _, s := range it.Blocks {
		FillBlock(s, buf)
		out = append(out, buf...)
	}
	return out
}

// Corpus memoizes block fingerprints so that trace-driven experiments hash
// each unique block exactly once. Safe for concurrent use.
type Corpus struct {
	algo fingerprint.Algorithm
	mu   sync.Mutex
	memo map[uint64]fingerprint.Fingerprint
}

// NewCorpus creates a fingerprint memo for the given hash algorithm
// (fingerprint.SHA1 when zero).
func NewCorpus(algo fingerprint.Algorithm) *Corpus {
	if algo == 0 {
		algo = fingerprint.SHA1
	}
	return &Corpus{algo: algo, memo: make(map[uint64]fingerprint.Fingerprint)}
}

// Fingerprint returns the fingerprint of the block with the given seed.
func (c *Corpus) Fingerprint(seed uint64) fingerprint.Fingerprint {
	c.mu.Lock()
	fp, ok := c.memo[seed]
	c.mu.Unlock()
	if ok {
		return fp
	}
	fp = c.algo.Sum(blockData(seed))
	c.mu.Lock()
	c.memo[seed] = fp
	c.mu.Unlock()
	return fp
}

// ChunkRefs converts an item into 4KB chunk references. When keepData is
// true each reference carries its materialized payload.
func (c *Corpus) ChunkRefs(it Item, keepData bool) []core.ChunkRef {
	out := make([]core.ChunkRef, len(it.Blocks))
	for i, s := range it.Blocks {
		ref := core.ChunkRef{FP: c.Fingerprint(s), Size: BlockSize}
		if keepData {
			ref.Data = blockData(s)
		}
		out[i] = ref
	}
	return out
}

// UniqueBlocks returns the number of distinct block seeds across items —
// the exact physical size of the stream at block granularity.
func UniqueBlocks(items []Item) int {
	seen := make(map[uint64]struct{})
	for _, it := range items {
		for _, s := range it.Blocks {
			seen[s] = struct{}{}
		}
	}
	return len(seen)
}

// Collect drains a generator into a slice (convenient for simulation).
func Collect(g Generator) ([]Item, error) {
	var items []Item
	err := g.Items(func(it Item) error {
		items = append(items, it)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("collect %s: %w", g.Name(), err)
	}
	return items, nil
}

// TotalBytes sums the logical size of items.
func TotalBytes(items []Item) int64 {
	var n int64
	for _, it := range items {
		n += it.Size()
	}
	return n
}

// ByName constructs a generator for a Table 2 dataset name with the given
// scale (1.0 reproduces the default experiment sizes) and seed.
func ByName(name string, scale float64, seed int64) (Generator, error) {
	switch name {
	case "linux":
		cfg := DefaultLinuxConfig()
		cfg.Seed = seed
		// Scale the tree width, not the version count: version count sets
		// the dedup ratio, which must stay at the Table 2 calibration.
		cfg.Files = max(20, int(float64(cfg.Files)*clampScale(scale)))
		return NewLinux(cfg)
	case "vm":
		cfg := defaultVMConfig()
		cfg.Seed = seed
		cfg.ImageBlocks = max(64, int(float64(cfg.ImageBlocks)*clampScale(scale)))
		return newVM(cfg)
	case "mail":
		cfg := defaultMailConfig()
		cfg.Seed = seed
		cfg.Segments = max(4, int(float64(cfg.Segments)*clampScale(scale)))
		return newTrace(cfg)
	case "web":
		cfg := defaultWebConfig()
		cfg.Seed = seed
		cfg.Segments = max(4, int(float64(cfg.Segments)*clampScale(scale)))
		return newTrace(cfg)
	default:
		return nil, fmt.Errorf("workload: unknown dataset %q", name)
	}
}

// Names lists the Table 2 dataset names.
func Names() []string { return []string{"linux", "vm", "mail", "web"} }

func clampScale(s float64) float64 {
	if s <= 0 {
		return 1
	}
	return s
}

// seedStream hands out fresh unique block seeds. The high bit partitions
// seed spaces between generators so cross-dataset collisions cannot occur.
type seedStream struct {
	rng  *rand.Rand
	next uint64
	tag  uint64
}

func newSeedStream(seed int64, tag uint64) *seedStream {
	return &seedStream{rng: rand.New(rand.NewSource(seed)), next: 1, tag: tag << 56}
}

// fresh returns a never-before-seen block seed.
func (s *seedStream) fresh() uint64 {
	s.next++
	return s.tag | s.next
}
