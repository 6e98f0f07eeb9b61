package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"sigmadedupe/internal/director"
	"sigmadedupe/internal/migrate"
)

// benchRestore backs up size bytes once, then restores it repeatedly,
// reporting restore MB/s and allocations per op (payloads alias pooled
// RPC frames).
func benchRestore(b *testing.B, addrs []string, size int) {
	b.Helper()
	dir := director.New()
	c, err := New(context.Background(), Config{
		Name:           "bench",
		SuperChunkSize: 128 << 10,
	}, dir, DenseNodes(addrs))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	content := randBytes(2000, size)
	if err := c.BackupFile(context.Background(), "/bench", bytes.NewReader(content)); err != nil {
		b.Fatal(err)
	}
	if err := c.Flush(context.Background()); err != nil {
		b.Fatal(err)
	}

	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := migrate.Restore(context.Background(), dir, c.node, c.key("/bench"), DefaultInflightSuperChunks, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestore measures the windowed restore scheduler with and
// without emulated node service time (loopback hides the latency
// batching amortizes).
func BenchmarkRestore(b *testing.B) {
	const size = 8 << 20
	for _, delay := range []time.Duration{0, 200 * time.Microsecond} {
		addrs := benchServers(b, 2, delay)
		b.Run(fmt.Sprintf("delay=%s", delay), func(b *testing.B) {
			benchRestore(b, addrs, size)
		})
	}
}
