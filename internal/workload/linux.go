package workload

import (
	"fmt"
	"math/rand"
)

// LinuxConfig parameterizes the Linux-kernel-sources stand-in (paper
// Table 2: 160GB, DR 8.23 CDC / 7.96 SC). The kernel's evolution from 1.0
// to 3.3.6 is growth-dominated — the tree grew by two orders of magnitude,
// with most existing files untouched between releases — so the generator
// models three effects:
//
//   - Growth: each version inserts runs of new files (new drivers and
//     subsystems) at random positions in the tree order. The high dedup
//     ratio comes from re-backing-up the stable bulk of the tree.
//   - Scattered partial edits: a small fraction of existing files get a
//     fraction of their blocks replaced (bug fixes). These churn file
//     representatives (hurting Extreme Binning's bin placement) while
//     super-chunk handprints drift only slightly.
//   - Boilerplate: a fraction of all blocks comes from a shared pool
//     (license headers, copied code) — cross-file redundancy that
//     bin-scoped dedup cannot eliminate but node-wide chunk indexes can.
type LinuxConfig struct {
	Seed int64
	// Versions is the number of source-tree versions backed up in
	// sequence.
	Versions int
	// Files is the initial number of files in the tree.
	Files int
	// MinBlocks/MaxBlocks bound per-file size in 4KB blocks. Kernel
	// sources are dominated by small files.
	MinBlocks, MaxBlocks int
	// PatchesPerSeries is the number of patch releases after each series
	// fork. Versions = Series boundaries are derived: every
	// PatchesPerSeries-th version is a series jump, the rest are patches.
	PatchesPerSeries int
	// GrowthRate is the fractional tree growth (in file count) at each
	// series jump; new files arrive in contiguous runs (new directories).
	GrowthRate float64
	// SeriesTouched/SeriesChurn control the near-total rewrite at a
	// series jump (kernel 2.4 → 2.6).
	SeriesTouched, SeriesChurn float64
	// TouchedFraction is the fraction of existing files receiving
	// scattered partial edits per patch release.
	TouchedFraction float64
	// BlockChurn is the fraction of a touched file's blocks replaced.
	BlockChurn float64
	// BoilerplateFraction is the probability that a block is drawn from
	// the shared boilerplate pool instead of being unique.
	BoilerplateFraction float64
	// BoilerplatePool is the number of distinct boilerplate blocks.
	BoilerplatePool int
}

// DefaultLinuxConfig yields ~1GB logical data with DR ≈ 8 at 4KB chunks:
// DR ≈ 1/(g/(1+g) + edits) with growth g=0.125/version over 30 versions.
func DefaultLinuxConfig() LinuxConfig {
	return LinuxConfig{
		Seed:                1,
		Versions:            64,
		Files:               300,
		MinBlocks:           1,
		MaxBlocks:           12,
		PatchesPerSeries:    8,
		GrowthRate:          0.10,
		SeriesTouched:       0.90,
		SeriesChurn:         0.95,
		TouchedFraction:     0.005,
		BlockChurn:          0.30,
		BoilerplateFraction: 0.04,
		BoilerplatePool:     400,
	}
}

// linux generates the versioned-source-tree workload.
type linux struct {
	cfg LinuxConfig
}

var _ Generator = (*linux)(nil)

// NewLinux validates cfg and returns the generator.
func NewLinux(cfg LinuxConfig) (*linux, error) {
	if cfg.Versions < 1 || cfg.Files < 1 {
		return nil, fmt.Errorf("workload: linux needs versions and files >= 1, got %+v", cfg)
	}
	if cfg.MinBlocks < 1 || cfg.MaxBlocks < cfg.MinBlocks {
		return nil, fmt.Errorf("workload: linux block bounds invalid: %+v", cfg)
	}
	if cfg.PatchesPerSeries < 1 {
		cfg.PatchesPerSeries = 1
	}
	for _, f := range []float64{cfg.GrowthRate, cfg.SeriesTouched, cfg.SeriesChurn, cfg.TouchedFraction, cfg.BlockChurn, cfg.BoilerplateFraction} {
		if f < 0 || f > 1 {
			return nil, fmt.Errorf("workload: linux rates must be in [0,1]: %+v", cfg)
		}
	}
	return &linux{cfg: cfg}, nil
}

// Name implements Generator.
func (l *linux) Name() string { return "linux" }

// HasFileInfo implements Generator.
func (l *linux) HasFileInfo() bool { return true }

// Items implements Generator: it emits every file of every version, in
// stable tree order, evolving the tree between versions.
func (l *linux) Items(yield func(Item) error) error {
	cfg := l.cfg
	rng := rand.New(rand.NewSource(cfg.Seed))
	seeds := newSeedStream(cfg.Seed+1, 1)

	pool := make([]uint64, max(1, cfg.BoilerplatePool))
	for i := range pool {
		pool[i] = seeds.fresh()
	}
	newBlock := func() uint64 {
		if rng.Float64() < cfg.BoilerplateFraction {
			return pool[rng.Intn(len(pool))]
		}
		return seeds.fresh()
	}
	newFile := func() []uint64 {
		n := cfg.MinBlocks + rng.Intn(cfg.MaxBlocks-cfg.MinBlocks+1)
		blocks := make([]uint64, n)
		for i := range blocks {
			blocks[i] = newBlock()
		}
		return blocks
	}

	tree := make([][]uint64, cfg.Files)
	for f := range tree {
		tree[f] = newFile()
	}

	var fileID uint64
	for v := 0; v < cfg.Versions; v++ {
		if v > 0 {
			seriesJump := cfg.PatchesPerSeries > 0 && v%cfg.PatchesPerSeries == 0
			tree = l.evolve(tree, rng, newBlock, newFile, seriesJump)
		}
		for f, blocks := range tree {
			fileID++
			it := Item{
				FileID: fileID,
				Name:   fmt.Sprintf("v%d/src/file%05d.c", v, f),
				Blocks: append([]uint64(nil), blocks...),
			}
			if err := yield(it); err != nil {
				return err
			}
		}
	}
	return nil
}

// evolve produces the next version of the tree. Patch releases apply
// light scattered edits; series jumps rewrite most of the tree and grow
// it by runs of new files inserted at random positions (new directories).
func (l *linux) evolve(tree [][]uint64, rng *rand.Rand, newBlock func() uint64, newFile func() []uint64, seriesJump bool) [][]uint64 {
	cfg := l.cfg

	touched, churn := cfg.TouchedFraction, cfg.BlockChurn
	if seriesJump {
		touched, churn = cfg.SeriesTouched, cfg.SeriesChurn
	}
	for f := range tree {
		if rng.Float64() >= touched {
			continue
		}
		blocks := tree[f]
		for i := range blocks {
			if rng.Float64() < churn {
				blocks[i] = newBlock()
			}
		}
	}

	if !seriesJump {
		return tree
	}
	grow := int(float64(len(tree)) * cfg.GrowthRate)
	for grow > 0 {
		run := 3 + rng.Intn(12)
		if run > grow {
			run = grow
		}
		pos := rng.Intn(len(tree) + 1)
		insert := make([][]uint64, run)
		for i := range insert {
			insert[i] = newFile()
		}
		tree = append(tree[:pos], append(insert, tree[pos:]...)...)
		grow -= run
	}
	return tree
}
