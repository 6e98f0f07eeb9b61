package sigmadedupe

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkReplicatedIngest measures the simulator's R=2 write path —
// the one ingest path none of the BENCHMARK.json workloads covers: 8
// nodes, Replicas 2, unique data through Cluster.Backup, then Flush.
// Three shapes: many small items on RAM nodes and on durable nodes
// (per-item overheads: seals, read-backs), and one large item (costs
// that grow with an item's super-chunk count). Reports ingest MB/s
// (b.SetBytes) and the sealed containers the run left across the
// cluster ("containers": replication must not seal containers of its
// own). One iteration is one fresh cluster; compare commits in
// alternating pairs of
//
//	go test -run '^$' -bench ReplicatedIngest -benchtime 3x .
func BenchmarkReplicatedIngest(b *testing.B) {
	for _, shape := range []struct {
		name            string
		items, itemSize int
		durable         bool
	}{
		{"small-ram", 1500, 96 << 10, false},
		{"small-dir", 1500, 96 << 10, true},
		{"large-ram", 1, 256 << 20, false},
	} {
		b.Run(shape.name, func(b *testing.B) {
			data := make([]byte, shape.items*shape.itemSize)
			rand.New(rand.NewSource(1)).Read(data)
			ctx := context.Background()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			var containers int
			for i := 0; i < b.N; i++ {
				cfg := ClusterConfig{Nodes: 8, KeepPayloads: true, Replicas: 2}
				if shape.durable {
					cfg.Dir = b.TempDir()
				}
				c, err := NewCluster(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < shape.items; j++ {
					item := data[j*shape.itemSize : (j+1)*shape.itemSize]
					if err := c.Backup(ctx, fmt.Sprintf("item-%04d", j), readerOf(item)); err != nil {
						b.Fatal(err)
					}
				}
				if err := c.Flush(ctx); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				containers = 0
				for _, n := range c.inner.Nodes() {
					containers += n.NumSealedContainers()
				}
				if phys, want := c.inner.PhysicalBytes(), int64(2*len(data)); phys != want {
					b.Fatalf("physical bytes %d, want %d (two copies of every unique byte)", phys, want)
				}
				if err := c.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(containers), "containers")
		})
	}
}
