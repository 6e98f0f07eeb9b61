package experiments

import (
	"fmt"

	"sigmadedupe/internal/metrics"
)

// ramTable regenerates the first-order RAM-usage comparison of §4.3: for 100TB
// of unique data at 4KB chunks, 64KB average files and 40B index entries,
// DDFS's Bloom filter, Extreme Binning's file index and Σ-Dedupe's
// similarity index footprints.
func ramTable(Options) (*Table, error) {
	m := metrics.DefaultRAMModel()
	gb := func(b int64) string { return fmt.Sprintf("%.1f", float64(b)/1e9) }
	t := &Table{
		Name:    "ram",
		Title:   "First-order RAM usage for 100TB unique data (GB, decimal)",
		Headers: []string{"scheme", "structure", "RAM(GB)", "paper(GB)"},
		Rows: [][]string{
			{"DDFS", "Bloom filter", gb(m.DDFSBloomBytes() * 4), "50"},
			{"ExtremeBinning", "file index", gb(m.ExtremeBinningBytes()), "62.5"},
			{"SigmaDedupe", "similarity index", gb(m.SigmaSimilarityIndexBytes()), "32"},
			{"(full chunk index)", "chunk index", gb(m.FullChunkIndexBytes()), "-"},
		},
		Notes: []string{
			"similarity index = 1/32 of a full chunk index (1MB super-chunks, handprint 8, 40B entries)",
			"DDFS Bloom budget uses the paper's ~2 bytes/chunk accounting",
		},
	}
	return t, nil
}
