// Package metrics implements the paper's evaluation metrics (§4.2):
// deduplication ratio, deduplication efficiency ("bytes saved per second",
// Eq. 6), normalized deduplication ratio, normalized effective
// deduplication ratio (Eq. 7), storage skew, and the first-order RAM-usage
// model of §4.3.
package metrics

import (
	"math"
	"time"
)

// DedupRatio returns logical/physical size (DR). Zero physical size yields
// 0 to avoid propagating infinities through reports.
func DedupRatio(logical, physical int64) float64 {
	if physical <= 0 {
		return 0
	}
	return float64(logical) / float64(physical)
}

// BytesSavedPerSecond is the deduplication-efficiency metric of Eq. (6):
// DE = (L - P) / T = (1 - 1/DR) × DT.
func BytesSavedPerSecond(logical, physical int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(logical-physical) / elapsed.Seconds()
}

// NormalizedDR divides a cluster deduplication ratio by the single-node
// exact deduplication ratio of the same dataset: how close the cluster
// comes to the ideal.
func NormalizedDR(cdr, sdr float64) float64 {
	if sdr == 0 {
		return 0
	}
	return cdr / sdr
}

// Skew returns σ/α, the ratio of the standard deviation of per-node
// physical storage usage to its mean. Zero for empty or all-zero input.
func Skew(usage []int64) float64 {
	if len(usage) == 0 {
		return 0
	}
	var sum float64
	for _, u := range usage {
		sum += float64(u)
	}
	mean := sum / float64(len(usage))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, u := range usage {
		d := float64(u) - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(usage))) / mean
}

// MaxOverMean is the storage-balance metric of the scale-out campaign:
// the most-loaded node's bytes over the mean node bytes. A perfectly
// balanced cluster scores 1.0; the campaign's invariant is ≤ 1.2 at 128
// nodes. Unlike Skew (σ/mean, the paper's dispersion measure) this
// bounds the single worst node — the one that fills up first. Returns 0
// for an empty or all-zero vector.
func MaxOverMean(usage []int64) float64 {
	if len(usage) == 0 {
		return 0
	}
	var sum float64
	max := usage[0]
	for _, u := range usage {
		sum += float64(u)
		if u > max {
			max = u
		}
	}
	mean := sum / float64(len(usage))
	if mean == 0 {
		return 0
	}
	return float64(max) / mean
}

// nedr is the normalized effective deduplication ratio of Eq. (7):
// (CDR/SDR) × α/(α+σ). It folds cluster-wide capacity saving and storage
// balance into one utility number.
func nedr(cdr, sdr float64, usage []int64) float64 {
	return NormalizedDR(cdr, sdr) * 1 / (1 + Skew(usage))
}

// EDRFromBytes computes NEDR directly from byte totals: logical bytes
// presented to the cluster, per-node physical usage, and the single-node
// exact physical size of the same dataset.
func EDRFromBytes(logical int64, usage []int64, exactPhysical int64) float64 {
	var physical int64
	for _, u := range usage {
		physical += u
	}
	cdr := DedupRatio(logical, physical)
	sdr := DedupRatio(logical, exactPhysical)
	return nedr(cdr, sdr, usage)
}

// ramModel is the first-order RAM-usage estimate of §4.3 for a dataset of
// UniqueBytes unique data.
type ramModel struct {
	UniqueBytes   int64 // physical unique data size
	AvgChunkSize  int64 // bytes (paper: 4KB)
	AvgFileSize   int64 // bytes (paper: 64KB)
	IndexEntry    int64 // bytes per index entry (paper: 40B)
	SuperChunk    int64 // super-chunk size (paper: 1MB)
	HandprintSize int64 // representative fingerprints per super-chunk (8)
}

// DefaultRAMModel returns the paper's §4.3 parameters: 100TB unique data,
// 4KB chunks, 64KB files, 40B entries, 1MB super-chunks, handprint 8.
func DefaultRAMModel() ramModel {
	return ramModel{
		UniqueBytes:   100 << 40,
		AvgChunkSize:  4 << 10,
		AvgFileSize:   64 << 10,
		IndexEntry:    40,
		SuperChunk:    1 << 20,
		HandprintSize: 8,
	}
}

// DDFSBloomBytes estimates DDFS's Bloom-filter RAM: ~4 bits (0.5 bytes)
// per unique chunk, which reproduces the paper's 50GB at 100TB/4KB.
func (m ramModel) DDFSBloomBytes() int64 {
	chunks := m.UniqueBytes / m.AvgChunkSize
	return chunks / 2
}

// ExtremeBinningBytes estimates Extreme Binning's in-RAM file index: one
// entry per file — representative chunk ID + whole-file hash + pointer,
// which the paper accounts as 62.5GB for 100TB of 64KB files (40B/file).
func (m ramModel) ExtremeBinningBytes() int64 {
	files := m.UniqueBytes / m.AvgFileSize
	return files * m.IndexEntry
}

// SigmaSimilarityIndexBytes estimates Σ-Dedupe's similarity index: one
// entry per representative fingerprint, HandprintSize per super-chunk
// (32GB for the paper's parameters — 1/32 of a full chunk index).
func (m ramModel) SigmaSimilarityIndexBytes() int64 {
	superChunks := m.UniqueBytes / m.SuperChunk
	return superChunks * m.HandprintSize * m.IndexEntry
}

// FullChunkIndexBytes is the RAM a complete in-memory chunk index would
// need (the baseline the similarity index divides by 32).
func (m ramModel) FullChunkIndexBytes() int64 {
	return m.UniqueBytes / m.AvgChunkSize * m.IndexEntry
}
