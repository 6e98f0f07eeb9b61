package workload

import (
	"fmt"
	"math/rand"
)

// AgingConfig parameterizes a generational churn workload (the restore
// aging harness): one fixed-size backup image rewritten generation after
// generation, the access pattern that fragments chunk locality and
// degrades restore throughput over time (capped by restore-aware
// compaction).
type AgingConfig struct {
	// Seed makes the generation sequence deterministic.
	Seed int64
	// Blocks is the image size in 4KB blocks (default 2048 = 8MB).
	Blocks int
	// ChurnPercent is the fraction of blocks rewritten per generation
	// (default 0.02). The image size never changes, so per-generation
	// restore throughput is directly comparable across the sequence.
	ChurnPercent float64
}

func (c AgingConfig) withDefaults() AgingConfig {
	if c.Blocks <= 0 {
		c.Blocks = 2048
	}
	if c.ChurnPercent <= 0 {
		c.ChurnPercent = 0.02
	}
	return c
}

// aging produces the generational backup stream of the aging harness:
// Next returns generation g of the image, where generation 0 is all
// fresh blocks and every later generation rewrites a small random subset
// of block positions in place. Old generations' surviving blocks dedup
// against earlier containers while each generation's fresh blocks land
// in new ones, so the image's chunk sequence scatters across ever more
// containers as it ages — the fragmentation a restore-path benchmark
// must feel. Deterministic for a given config.
type aging struct {
	cfg    AgingConfig
	rng    *rand.Rand
	blocks []uint64
	next   uint64 // next fresh block seed
	gen    int
}

// NewAging builds an aging stream from cfg (zero fields take defaults).
func NewAging(cfg AgingConfig) *aging {
	cfg = cfg.withDefaults()
	return &aging{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Generation returns how many generations Next has produced.
func (a *aging) Generation() int { return a.gen }

// Next produces the next generation of the image. The returned Item
// shares no state with the Aging stream; its name carries the generation
// number ("gen0007").
func (a *aging) Next() Item {
	if a.blocks == nil {
		a.blocks = make([]uint64, a.cfg.Blocks)
		for i := range a.blocks {
			a.blocks[i] = a.fresh()
		}
	} else {
		churn := int(a.cfg.ChurnPercent * float64(len(a.blocks)))
		if churn < 1 {
			churn = 1
		}
		for i := 0; i < churn; i++ {
			a.blocks[a.rng.Intn(len(a.blocks))] = a.fresh()
		}
	}
	it := Item{
		FileID: uint64(a.gen + 1),
		Name:   itemName(a.gen),
		Blocks: append([]uint64(nil), a.blocks...),
	}
	a.gen++
	return it
}

// fresh hands out a block seed never used by this stream. Seeds are
// offset by the config seed so different streams produce disjoint data.
func (a *aging) fresh() uint64 {
	a.next++
	return uint64(a.cfg.Seed)*0x1000193 + a.next
}

func itemName(gen int) string { return fmt.Sprintf("gen%04d", gen) }
