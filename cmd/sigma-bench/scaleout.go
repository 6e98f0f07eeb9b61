package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"sigmadedupe/internal/cluster"
	"sigmadedupe/internal/metrics"
	"sigmadedupe/internal/router"
	"sigmadedupe/internal/workload"
)

// The scale-out sweep grid: node counts spanning the paper's 4-node
// evaluation up to the 128-node simulator target, and super-chunk sizes
// bracketing the paper's 1MB default.
var (
	scaleoutNodeCounts = []int{4, 16, 64, 128}
	scaleoutSCKBs      = []int64{256, 1024, 4096}
	scaleoutSchemes    = "sigma,stateless,stateful,eb"
)

type scaleoutConfig struct {
	// NodeCounts are the cluster sizes to sweep (nil = the full grid).
	NodeCounts []int
	// Schemes holds the scheme names to sweep (ParseScheme syntax).
	Schemes []string
	// SCKBs are the super-chunk sizes in KB (nil = the full grid).
	SCKBs []int64
	// Workload is the generational dataset driving every run.
	Workload string
	// Scale multiplies the dataset size (1.0 = ~1GB logical for linux).
	Scale float64
	// Seed feeds the workload generator.
	Seed int64
}

// scaleoutRow is one (scheme, nodes, super-chunk size) cell of the sweep.
type scaleoutRow struct {
	Scheme       string  `json:"scheme"`
	Nodes        int     `json:"nodes"`
	SuperChunkKB int64   `json:"super_chunk_kb"`
	LogicalMB    float64 `json:"logical_mb"`
	PhysicalMB   float64 `json:"physical_mb"`
	DedupRatio   float64 `json:"dedup_ratio"`
	// NormalizedDR is the cluster DR over the exact single-node DR of
	// the same stream (1.0 = no routing-induced dedup loss).
	NormalizedDR float64 `json:"normalized_dr"`
	// SkewSigma is σ/mean over node bytes (the paper's dispersion
	// measure); SkewMaxMean is max/mean (the campaign's balance bound).
	SkewSigma   float64 `json:"skew_sigma_over_mean"`
	SkewMaxMean float64 `json:"skew_max_over_mean"`
	SuperChunks int64   `json:"super_chunks"`
	// PreMsgsPerSC is pre-routing fingerprint messages per super-chunk;
	// BidsPerSC is nodes actually queried per super-chunk (the fan-out
	// the bid summaries collapse); ChecksPerSC is summary probes per
	// super-chunk — for Stateful it equals N, the fan-out that WOULD
	// have been paid without summaries.
	PreMsgsPerSC float64 `json:"pre_routing_msgs_per_sc"`
	BidsPerSC    float64 `json:"bids_per_sc"`
	ChecksPerSC  float64 `json:"summary_checks_per_sc"`
	// SummaryHitRate is hits/checks; SummaryFPShare is the fraction of
	// checks that hit but then bid zero (wasted bids the summary let
	// through — Bloom false positives plus genuine zero-overlap hits).
	SummaryHitRate float64 `json:"summary_hit_rate"`
	SummaryFPShare float64 `json:"summary_false_pos_share"`
	ElapsedMS      int64   `json:"elapsed_ms"`
}

type scaleoutReport struct {
	Mode     string        `json:"mode"`
	Workload string        `json:"workload"`
	Scale    float64       `json:"scale"`
	Seed     int64         `json:"seed"`
	Rows     []scaleoutRow `json:"rows"`
}

// runScaleout sweeps node count × scheme × super-chunk size over one
// generational workload, with bid summaries enabled, and reports dedup,
// balance and fan-out cost per cell. One fingerprint corpus is shared
// across the whole sweep so each unique block hashes exactly once.
func runScaleout(cfg scaleoutConfig) (*scaleoutReport, error) {
	if len(cfg.NodeCounts) == 0 {
		cfg.NodeCounts = scaleoutNodeCounts
	}
	if len(cfg.Schemes) == 0 {
		cfg.Schemes = strings.Split(scaleoutSchemes, ",")
	}
	if len(cfg.SCKBs) == 0 {
		cfg.SCKBs = scaleoutSCKBs
	}
	if cfg.Workload == "" {
		cfg.Workload = "linux"
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	rep := &scaleoutReport{Mode: "scaleout", Workload: cfg.Workload, Scale: cfg.Scale, Seed: cfg.Seed}
	corpus := workload.NewCorpus(0)
	for _, name := range cfg.Schemes {
		scheme, err := router.ParseScheme(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		for _, sckb := range cfg.SCKBs {
			for _, n := range cfg.NodeCounts {
				row, err := scaleoutRun(scheme, n, sckb, cfg, corpus)
				if err != nil {
					return nil, fmt.Errorf("scaleout %s N=%d sc=%dKB: %w", scheme, n, sckb, err)
				}
				rep.Rows = append(rep.Rows, row)
			}
		}
	}
	return rep, nil
}

// scaleoutRun executes one sweep cell: replay the workload through a
// fresh cluster and collect the row metrics.
func scaleoutRun(scheme router.Scheme, n int, sckb int64, cfg scaleoutConfig, corpus *workload.Corpus) (scaleoutRow, error) {
	var row scaleoutRow
	g, err := workload.ByName(cfg.Workload, cfg.Scale, cfg.Seed)
	if err != nil {
		return row, err
	}
	c, err := cluster.New(cluster.Config{
		N:              n,
		Scheme:         scheme,
		SuperChunkSize: sckb << 10,
		BidSummaries:   true,
	})
	if err != nil {
		return row, err
	}
	exact := cluster.NewExactTracker()
	start := time.Now()
	st, err := c.Replay(context.Background(), map[string]cluster.Trace{"client0": cluster.Workload(g, corpus)}, exact.Add)
	if err != nil {
		return row, err
	}
	usage := c.UsageVector()
	sc := st.SuperChunks
	if sc == 0 {
		sc = 1
	}
	row = scaleoutRow{
		Scheme:       scheme.String(),
		Nodes:        n,
		SuperChunkKB: sckb,
		LogicalMB:    float64(st.LogicalBytes) / (1 << 20),
		PhysicalMB:   float64(c.PhysicalBytes()) / (1 << 20),
		DedupRatio:   c.DedupRatio(st.LogicalBytes),
		NormalizedDR: c.NormalizedDR(st.LogicalBytes, exact.Physical()),
		SkewSigma:    metrics.Skew(usage),
		SkewMaxMean:  metrics.MaxOverMean(usage),
		SuperChunks:  st.SuperChunks,
		PreMsgsPerSC: float64(st.PreRoutingMsgs) / float64(sc),
		BidsPerSC:    float64(st.BidsSent) / float64(sc),
		ChecksPerSC:  float64(st.SummaryChecks) / float64(sc),
		ElapsedMS:    time.Since(start).Milliseconds(),
	}
	if st.SummaryChecks > 0 {
		row.SummaryHitRate = float64(st.SummaryHits) / float64(st.SummaryChecks)
		row.SummaryFPShare = float64(st.SummaryFalsePos) / float64(st.SummaryChecks)
	}
	return row, c.Close()
}

func (r *scaleoutReport) print(w *os.File) {
	fmt.Fprintf(w, "scale-out sweep: workload=%s scale=%g seed=%d (bid summaries on)\n",
		r.Workload, r.Scale, r.Seed)
	fmt.Fprintf(w, "  %-14s %5s %6s %7s %7s %9s %9s %8s %8s %8s %8s\n",
		"scheme", "N", "scKB", "DR", "nDR", "skew:σ/μ", "max/μ", "pre/SC", "bids/SC", "chk/SC", "hit%")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-14s %5d %6d %7.2f %7.3f %9.3f %9.3f %8.1f %8.2f %8.1f %7.1f%%\n",
			row.Scheme, row.Nodes, row.SuperChunkKB, row.DedupRatio, row.NormalizedDR,
			row.SkewSigma, row.SkewMaxMean, row.PreMsgsPerSC, row.BidsPerSC, row.ChecksPerSC,
			row.SummaryHitRate*100)
	}
}
