package client

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"sigmadedupe/internal/director"
	"sigmadedupe/internal/node"
	"sigmadedupe/internal/rpc"
)

// benchServers starts n loopback dedup servers, optionally with injected
// per-request handler latency (emulating remote-node service time:
// loopback RPC hides the latency a real deployment pays, and latency is
// exactly what the client's pipeline overlaps).
func benchServers(b *testing.B, n int, delay time.Duration) []string {
	b.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		nd, err := node.New(node.Config{ID: i, KeepPayloads: true})
		if err != nil {
			b.Fatal(err)
		}
		var opts []rpc.ServerOption
		if delay > 0 {
			opts = append(opts, rpc.WithHandlerDelay(delay))
		}
		srv, err := rpc.NewServer(nd, "127.0.0.1:0", opts...)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	return addrs
}

// benchIngest backs up size bytes of fresh pseudo-random content per
// iteration (unique data: every chunk payload crosses the wire — the
// heaviest ingest path) and reports MB/s of logical backup throughput.
func benchIngest(b *testing.B, addrs []string, size int) {
	b.Helper()
	cfg := Config{Name: "bench", SuperChunkSize: 128 << 10}
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		content := randBytes(int64(1000+i), size)
		dir := director.New()
		c, err := New(context.Background(), cfg, dir, DenseNodes(addrs))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := c.BackupFile(context.Background(), fmt.Sprintf("/bench/%d", i), bytes.NewReader(content)); err != nil {
			b.Fatal(err)
		}
		if err := c.Flush(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.Close()
		b.StartTimer()
	}
}

// BenchmarkIngest times the ingest pipeline on pure loopback:
// fingerprinting parallelism and compute/transfer overlap set the
// number, so it grows with core count.
func BenchmarkIngest(b *testing.B) {
	benchIngest(b, benchServers(b, 4, 0), 8<<20)
}

// BenchmarkIngestRemoteLatency repeats it with 2ms of injected
// per-request service latency — roughly one disk seek at the node, the
// regime the paper's disk-bound deduplication servers live in. The
// pipeline fans bids out and overlaps stores with the next super-chunk's
// fingerprinting; latency, unlike compute, overlaps freely even on a
// single-core host.
func BenchmarkIngestRemoteLatency(b *testing.B) {
	benchIngest(b, benchServers(b, 4, 2*time.Millisecond), 4<<20)
}
