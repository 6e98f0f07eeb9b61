package sigmadedupe

import (
	"context"
	"io"
	"testing"

	"sigmadedupe/internal/experiments"
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
