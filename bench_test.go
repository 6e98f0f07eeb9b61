package sigmadedupe

import (
	"context"
	"io"
	"testing"

	"sigmadedupe/internal/cluster"
	"sigmadedupe/internal/experiments"
	"sigmadedupe/internal/node"
	"sigmadedupe/internal/router"
	"sigmadedupe/internal/workload"
)

// Benchmarks regenerating each of the paper's tables and figures at
// benchmark-friendly scale. Run the full-scale versions with
// `go run ./cmd/sigma-bench all`. One benchmark iteration = one complete
// (reduced) experiment, so ns/op measures experiment cost, and the tables
// themselves are printed by cmd/sigma-bench, not here.

var benchOpts = experiments.Options{Quick: true, Scale: 0.3}

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Run(name, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable1SchemeComparison(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2Workloads(b *testing.B)        { benchExperiment(b, "table2") }
func BenchmarkFig1Handprinting(b *testing.B)       { benchExperiment(b, "fig1") }
func BenchmarkFig4aChunkFpThroughput(b *testing.B) { benchExperiment(b, "fig4a") }
func BenchmarkFig4bIndexLocks(b *testing.B)        { benchExperiment(b, "fig4b") }
func BenchmarkFig5aChunkSize(b *testing.B)         { benchExperiment(b, "fig5a") }
func BenchmarkFig5bSamplingRate(b *testing.B)      { benchExperiment(b, "fig5b") }
func BenchmarkFig6HandprintSize(b *testing.B)      { benchExperiment(b, "fig6") }
func BenchmarkFig7Messages(b *testing.B)           { benchExperiment(b, "fig7") }
func BenchmarkFig8EDR(b *testing.B)                { benchExperiment(b, "fig8") }
func BenchmarkRAMModel(b *testing.B)               { benchExperiment(b, "ram") }

// benchCluster replays one linux backup through a cluster configuration
// and reports MB/s of logical data deduplicated.
func benchCluster(b *testing.B, cfg cluster.Config) {
	b.Helper()
	g, err := workload.ByName("linux", 0.25, 0)
	if err != nil {
		b.Fatal(err)
	}
	corpus := workload.NewCorpus(0)
	var logical int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := cluster.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		st, err := c.Replay(context.Background(), map[string]cluster.Trace{"client0": cluster.Workload(g, corpus)})
		if err != nil {
			b.Fatal(err)
		}
		logical = st.LogicalBytes
	}
	b.SetBytes(logical)
}

// Ablation benches: the design choices DESIGN.md calls out.

// BenchmarkAblationUsageDiscount measures Sigma routing with the
// Algorithm 1 load discount enabled (the default).
func BenchmarkAblationUsageDiscount(b *testing.B) {
	benchCluster(b, cluster.Config{N: 16, Scheme: router.Sigma})
}

// BenchmarkAblationNoDiscount measures Sigma routing on raw resemblance
// only; compare storage skew via cmd/sigma-bench ablation.
func BenchmarkAblationNoDiscount(b *testing.B) {
	benchCluster(b, cluster.Config{N: 16, Scheme: router.Sigma, IgnoreUsage: true})
}

// BenchmarkAblationWithPrefetch measures the default locality-preserved
// caching path (container prefetch primes the fingerprint cache).
func BenchmarkAblationWithPrefetch(b *testing.B) {
	benchCluster(b, cluster.Config{N: 4, Scheme: router.Sigma})
}

// BenchmarkAblationNoPrefetch disables container prefetch: every
// duplicate verdict falls through to the on-disk chunk index, the
// bottleneck the similarity index + cache design exists to avoid.
func BenchmarkAblationNoPrefetch(b *testing.B) {
	benchCluster(b, cluster.Config{
		N: 4, Scheme: router.Sigma,
		Node: node.Config{DisablePrefetch: true},
	})
}

// BenchmarkPublicAPIBackup exercises the facade end to end.
func BenchmarkPublicAPIBackup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := NewCluster(ClusterConfig{Nodes: 4})
		if err != nil {
			b.Fatal(err)
		}
		var logical int64
		err = WorkloadFiles("web", 0.2, 0, func(path string, data []byte) error {
			logical += int64(len(data))
			return c.Backup(context.Background(), path, readerOf(data))
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Flush(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(logical)
	}
}

// readerOf avoids importing bytes in this file's hot loop signature.
func readerOf(data []byte) io.Reader { return &sliceReader{data: data} }

type sliceReader struct{ data []byte }

func (r *sliceReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}
