package workload

import (
	"fmt"
	"math/rand"
)

// traceConfig parameterizes the block-trace stand-ins for the FIU mail and
// web server traces (paper Table 2). Traces have no file metadata — items
// carry FileID 0 — which is why the paper cannot run Extreme Binning on
// them, a restriction this reproduction preserves.
//
// The trace model: the stream is a sequence of runs. With probability
// FreshProbability a run consists of never-seen blocks; otherwise it
// replays a contiguous run from earlier in the stream (strong locality —
// rewrites of the same mailboxes / site content — which is exactly what
// locality-preserved caching exploits).
type traceConfig struct {
	Name string
	Seed int64
	// Segments is the number of items emitted; each segment carries
	// SegmentBlocks blocks (FileID 0).
	Segments int
	// SegmentBlocks is the item size in 4KB blocks.
	SegmentBlocks int
	// FreshProbability is the chance that a run introduces new blocks;
	// it calibrates the dedup ratio (DR ≈ 1/FreshProbability).
	FreshProbability float64
	// MeanRunBlocks is the mean run length in blocks (locality depth).
	MeanRunBlocks int
}

// defaultMailConfig yields a high-duplication trace, DR ≈ 10.5.
func defaultMailConfig() traceConfig {
	return traceConfig{
		Name:             "mail",
		Seed:             3,
		Segments:         96,
		SegmentBlocks:    256, // 1MB segments
		FreshProbability: 0.095,
		MeanRunBlocks:    768,
	}
}

// defaultWebConfig yields a low-duplication trace, DR ≈ 1.9.
func defaultWebConfig() traceConfig {
	return traceConfig{
		Name:             "web",
		Seed:             4,
		Segments:         48,
		SegmentBlocks:    256,
		FreshProbability: 0.526,
		MeanRunBlocks:    192,
	}
}

// trace generates a file-less block trace with run locality.
type trace struct {
	cfg traceConfig
}

var _ Generator = (*trace)(nil)

// newTrace validates cfg and returns the generator.
func newTrace(cfg traceConfig) (*trace, error) {
	if cfg.Segments < 1 || cfg.SegmentBlocks < 1 || cfg.MeanRunBlocks < 1 {
		return nil, fmt.Errorf("workload: trace counts must be >= 1: %+v", cfg)
	}
	if cfg.FreshProbability <= 0 || cfg.FreshProbability > 1 {
		return nil, fmt.Errorf("workload: trace FreshProbability must be in (0,1]: %+v", cfg)
	}
	if cfg.Name == "" {
		cfg.Name = "trace"
	}
	return &trace{cfg: cfg}, nil
}

// Name implements Generator.
func (t *trace) Name() string { return t.cfg.Name }

// HasFileInfo implements Generator: traces carry no file metadata.
func (t *trace) HasFileInfo() bool { return false }

// Items implements Generator.
func (t *trace) Items(yield func(Item) error) error {
	cfg := t.cfg
	rng := rand.New(rand.NewSource(cfg.Seed))
	seeds := newSeedStream(cfg.Seed+1, 3)
	if cfg.Name == "web" {
		seeds = newSeedStream(cfg.Seed+1, 4)
	}

	var (
		history   []uint64 // every block emitted so far, in order
		runStarts []int    // offsets in history where runs began
	)
	emitRun := func(dst []uint64) []uint64 {
		runLen := 1 + rng.Intn(2*cfg.MeanRunBlocks)
		runStarts = append(runStarts, len(history))
		if rng.Float64() < cfg.FreshProbability || len(runStarts) <= 1 {
			for i := 0; i < runLen; i++ {
				s := seeds.fresh()
				dst = append(dst, s)
				history = append(history, s)
			}
			return dst
		}
		// Replay starts at a previous run boundary and proceeds
		// sequentially, recreating long aligned sequences — the stream
		// locality that backup workloads exhibit and that both
		// super-chunk similarity routing and locality-preserved caching
		// depend on.
		start := runStarts[rng.Intn(len(runStarts)-1)]
		for i := 0; i < runLen && start+i < len(history); i++ {
			s := history[start+i]
			dst = append(dst, s)
			history = append(history, s)
		}
		return dst
	}

	for seg := 0; seg < cfg.Segments; seg++ {
		blocks := make([]uint64, 0, cfg.SegmentBlocks)
		for len(blocks) < cfg.SegmentBlocks {
			blocks = emitRun(blocks)
		}
		blocks = blocks[:cfg.SegmentBlocks]
		it := Item{
			FileID: 0,
			Name:   fmt.Sprintf("%s/seg%05d", cfg.Name, seg),
			Blocks: blocks,
		}
		if err := yield(it); err != nil {
			return err
		}
	}
	return nil
}
