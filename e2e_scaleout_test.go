package sigmadedupe

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"sigmadedupe/internal/cluster"
	"sigmadedupe/internal/core"
	"sigmadedupe/internal/metrics"
	"sigmadedupe/internal/router"
	"sigmadedupe/internal/workload"
)

// scaleoutLinuxConfig is the patch-dominated generational workload the
// scale-out properties are calibrated on: enough distinct files that the
// per-node mean at 128 nodes (~8MB with files=40000) dwarfs the 256KB
// super-chunk placement quantum, and patch-only evolution (no series
// rewrite mid-run) so the dedup-retention comparison across cluster
// sizes isn't dominated by one near-total tree churn event.
func scaleoutLinuxConfig(files int) workload.LinuxConfig {
	cfg := workload.DefaultLinuxConfig()
	cfg.Seed = 7
	cfg.Files = files
	cfg.Versions = 8
	cfg.PatchesPerSeries = cfg.Versions + 1
	cfg.TouchedFraction = 0.05
	return cfg
}

// scaleoutCell replays the workload through one fresh cluster and
// returns the row metrics the properties assert on.
type scaleoutCell struct {
	dr          float64
	maxMean     float64
	bidsPerSC   float64
	checksPerSC float64
}

func runScaleoutCell(t *testing.T, scheme router.Scheme, n int, cfg workload.LinuxConfig, corpus *workload.Corpus) scaleoutCell {
	t.Helper()
	g, err := workload.NewLinux(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cluster.Config{
		N:              n,
		Scheme:         scheme,
		SuperChunkSize: 256 << 10,
		BidSummaries:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Replay(context.Background(), map[string]cluster.Trace{"client0": cluster.Workload(g, corpus)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := st.SuperChunks
	if sc == 0 {
		sc = 1
	}
	return scaleoutCell{
		dr:          c.DedupRatio(st.LogicalBytes),
		maxMean:     metrics.MaxOverMean(c.UsageVector()),
		bidsPerSC:   float64(st.BidsSent) / float64(sc),
		checksPerSC: float64(st.SummaryChecks) / float64(sc),
	}
}

// TestScaleoutRoutingProperties is the scale-out acceptance gate,
// table-driven over routing schemes. For Sigma it enforces the
// campaign's three properties at 128 nodes on the calibrated workload:
//
//   - balance: max/mean node bytes ≤ 1.2;
//   - dedup retention: DR at 128 nodes within 5% of the 4-node run of
//     the same stream;
//   - O(1) bid fan-out: bids per super-chunk bounded by a small
//     constant while summary checks per super-chunk equal N (the
//     fan-out that would have been paid without summaries).
//
// The comparison schemes run at reduced scale with loose sanity bounds
// — their numbers are recorded for the campaign table, not enforced;
// Stateless is expected to balance well and lose dedup, Stateful and
// Extreme Binning sit in between.
func TestScaleoutRoutingProperties(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale scale-out sweep; short-mode coverage is TestScaleoutStatsRace")
	}
	if raceEnabled {
		t.Skip("full-scale scale-out sweep; race coverage is TestScaleoutStatsRace")
	}
	corpus := workload.NewCorpus(0)
	cases := []struct {
		scheme router.Scheme
		files  int
		// maxMean bounds max/mean node bytes at 128 nodes; minRetention
		// bounds DR(128)/DR(4). Zero means record-only.
		maxMean      float64
		minRetention float64
		// maxBids bounds bids per super-chunk at 128 nodes (the O(1)
		// property); zero skips the check for bid-free schemes.
		maxBids float64
	}{
		{scheme: router.Sigma, files: 40000, maxMean: 1.2, minRetention: 0.95, maxBids: 5},
		{scheme: router.Stateless, files: 8000, maxMean: 3.0},
		{scheme: router.Stateful, files: 8000, maxMean: 3.5, maxBids: 8},
		{scheme: router.ExtremeBinning, files: 8000, maxMean: 3.5},
	}
	for _, tc := range cases {
		t.Run(tc.scheme.String(), func(t *testing.T) {
			cfg := scaleoutLinuxConfig(tc.files)
			base := runScaleoutCell(t, tc.scheme, 4, cfg, corpus)
			wide := runScaleoutCell(t, tc.scheme, 128, cfg, corpus)
			retention := wide.dr / base.dr
			t.Logf("%s: DR 4→128 nodes %.3f→%.3f (retention %.4f), max/mean %.3f→%.3f, bids/SC %.2f, checks/SC %.0f",
				tc.scheme, base.dr, wide.dr, retention, base.maxMean, wide.maxMean, wide.bidsPerSC, wide.checksPerSC)
			if tc.maxMean > 0 && wide.maxMean > tc.maxMean {
				t.Errorf("128-node max/mean node bytes = %.3f, want <= %.2f", wide.maxMean, tc.maxMean)
			}
			if tc.minRetention > 0 && retention < tc.minRetention {
				t.Errorf("dedup retention DR(128)/DR(4) = %.4f, want >= %.2f", retention, tc.minRetention)
			}
			if tc.maxBids > 0 && wide.bidsPerSC > tc.maxBids {
				t.Errorf("128-node bids/super-chunk = %.2f, want <= %.1f (O(1) fan-out)", wide.bidsPerSC, tc.maxBids)
			}
			if tc.maxBids > 0 && wide.checksPerSC != 128 {
				t.Errorf("128-node summary checks/super-chunk = %.2f, want exactly N = 128", wide.checksPerSC)
			}
			if base.dr < 1 || wide.dr < 1 {
				t.Errorf("dedup ratio below 1: base %.3f wide %.3f", base.dr, wide.dr)
			}
		})
	}
}

// TestScaleoutStatsRace replays 8 concurrent streams into a 64-node
// cluster with bid summaries on while reader goroutines hammer the usage
// surface (UsageVector, PhysicalBytes, skew metrics) the scale-out sweep
// reads mid-run. Run under -race it audits the lock-free epoch/usage
// paths the 64–128 node simulator depends on; it is sized to stay
// short-mode friendly.
func TestScaleoutStatsRace(t *testing.T) {
	corpus := workload.NewCorpus(0)
	cfg := scaleoutLinuxConfig(1500)
	cfg.Versions = 4
	cfg.PatchesPerSeries = cfg.Versions + 1
	g, err := workload.NewLinux(cfg)
	if err != nil {
		t.Fatal(err)
	}
	items, err := workload.Collect(g)
	if err != nil {
		t.Fatal(err)
	}
	const nStreams = 8
	streams := make(map[string]cluster.Trace, nStreams)
	for s := 0; s < nStreams; s++ {
		streams[fmt.Sprintf("stream%d", s)] = func(yield func(uint64, []core.ChunkRef) error) error {
			for i := s; i < len(items); i += nStreams {
				if err := yield(items[i].FileID, corpus.ChunkRefs(items[i], false)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	c, err := cluster.New(cluster.Config{
		N:              64,
		Scheme:         router.Sigma,
		SuperChunkSize: 256 << 10,
		BidSummaries:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				u := c.UsageVector()
				_ = metrics.Skew(u)
				_ = metrics.MaxOverMean(u)
				_ = c.PhysicalBytes()
				time.Sleep(time.Millisecond)
			}
		}()
	}
	st, err := c.Replay(context.Background(), streams, nil)
	if err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	if st.SuperChunks == 0 {
		t.Fatal("no super-chunks routed")
	}
	if st.SummaryChecks != 64*st.SuperChunks {
		t.Errorf("SummaryChecks = %d, want N x SuperChunks = %d", st.SummaryChecks, 64*st.SuperChunks)
	}
	if st.BidsSent > st.SummaryHits {
		t.Errorf("BidsSent = %d exceeds SummaryHits = %d: bids must come from summary-positive nodes", st.BidsSent, st.SummaryHits)
	}
	if dr := c.DedupRatio(st.LogicalBytes); dr < 1 {
		t.Errorf("dedup ratio = %.3f, want >= 1", dr)
	}
}
