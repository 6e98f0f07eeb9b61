package ingest_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"sigmadedupe/internal/chunker"
	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/ingest"
	"sigmadedupe/internal/migrate"
	"sigmadedupe/internal/rpc"
	"sigmadedupe/internal/workload"
)

// benchIngest backs up size bytes of fresh pseudo-random content per
// iteration (unique data: every chunk payload crosses the wire — the
// heaviest ingest path) over TCP and reports MB/s of logical backup
// throughput. delay is injected per-request service latency at the
// nodes: loopback RPC hides the latency a real deployment pays, and
// latency is exactly what the session's window overlaps.
func benchIngest(b *testing.B, delay time.Duration, size int) {
	b.Helper()
	var opt rigOpt
	if delay > 0 {
		opt.srv = []rpc.ServerOption{rpc.WithHandlerDelay(delay)}
	}
	r := newRig(b, "rpc", 4, opt)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		content := randBytes(int64(1000+i), size)
		s := r.session(b, ingest.Config{Name: "bench", SuperChunkSize: 128 << 10})
		b.StartTimer()
		mustBackup(b, s, fmt.Sprintf("/bench/%d", i), content)
		mustFlush(b, s)
	}
}

// BenchmarkIngest times the ingest pipeline on pure loopback:
// fingerprinting parallelism and compute/transfer overlap set the
// number, so it grows with core count.
func BenchmarkIngest(b *testing.B) { benchIngest(b, 0, 8<<20) }

// BenchmarkIngestRemoteLatency repeats it with 2ms of injected
// per-request service latency — roughly one disk seek at the node, the
// regime the paper's disk-bound deduplication servers live in. The
// window overlaps stores with the next super-chunk's fingerprinting;
// latency, unlike compute, overlaps freely even on a single-core host.
func BenchmarkIngestRemoteLatency(b *testing.B) { benchIngest(b, 2*time.Millisecond, 4<<20) }

// discard is a node transport that never bids, holds no duplicate and
// drops what it is sent.
type discard struct{ migrate.Node }

func (discard) Bid(context.Context, core.Handprint) (int, int64, error) { return 0, 0, nil }
func (discard) Flush(context.Context) error                             { return nil }

// Dedup reports no verdicts: every chunk counts as fresh.
func (discard) Dedup(context.Context, string, *core.SuperChunk, core.Handprint, bool) ([]bool, error) {
	return nil, nil
}

// hashStageRig is a session with the nodes taken out — every verb
// answered by a discard transport — and size bytes of distinct chunks to
// feed it, so a CPU profile of what runs on it is a profile of the client
// stages: chunk → fingerprint → partition → window.
func hashStageRig(t testing.TB, cfg ingest.Config, size int) (*ingest.Session, []byte) {
	r := &rig{dir: director.New(), members: core.DenseMembership(1), byID: []migrate.Node{discard{}}}
	var content []byte
	if cfg.ChunkMethod == chunker.FastCDC {
		content = randBytes(4, size) // cut points need real entropy
	} else {
		// At no set-up cost: zeros, each 4KB chunk opening with its offset.
		content = make([]byte, size)
		for off := 0; off < size; off += 4096 {
			binary.LittleEndian.PutUint64(content[off:], uint64(off))
		}
	}
	return r.session(t, cfg), content
}

// BenchmarkHashStage is the client-side cost of a backup with the nodes
// taken out, 64MB per iteration, in the two chunk specs the repository
// benchmark runs: fixed 4KB / SHA-1 (incremental-*, sim-scaleout) and
// FastCDC 8KB / SHA-256 (unique-cdc). What is left beside the chunker
// and the hash is the hand-off between the stages; CHANGES.md (PR 30)
// has both at -cpu 1,2 before and after the hand-off became a batch.
// smallfiles-sha1 cuts the same 64MB into the items sim-scaleout backs
// up — 1-12 chunks of 4KB, uniformly, as the linux generator draws file
// sizes — one Backup each: the path where the carry fills the lanes.
func BenchmarkHashStage(b *testing.B) {
	const size = 64 << 20
	for _, c := range []struct {
		name  string
		cfg   ingest.Config
		items bool
	}{
		{"fixed4k-sha1", ingest.Config{Name: "bench"}, false},
		{"fastcdc8k-sha256", ingest.Config{Name: "bench", ChunkMethod: chunker.FastCDC, ChunkSize: 8192, Algorithm: fingerprint.SHA256}, false},
		{"smallfiles-sha1", ingest.Config{Name: "bench"}, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			s, content := hashStageRig(b, c.cfg, size)
			items := [][]byte{content}
			if c.items {
				items = linuxItems(content)
			}
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, item := range items {
					mustBackup(b, s, fmt.Sprintf("/bench/%d/%d", i, j), item)
				}
				mustFlush(b, s)
			}
		})
	}
}

// linuxItems cuts content into consecutive items of MinBlocks to
// MaxBlocks 4KB chunks of the linux generator's default tree, drawn
// uniformly as it draws them.
func linuxItems(content []byte) [][]byte {
	cfg := workload.DefaultLinuxConfig()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var items [][]byte
	for len(content) > 0 {
		n := min(len(content), (cfg.MinBlocks+rng.Intn(cfg.MaxBlocks-cfg.MinBlocks+1))*4096)
		items, content = append(items, content[:n]), content[n:]
	}
	return items
}

// BenchmarkRestore backs 8MB up once, then restores it repeatedly
// through the windowed restore scheduler, with and without emulated node
// service time (loopback hides the latency batching amortizes).
func BenchmarkRestore(b *testing.B) {
	const size = 8 << 20
	for _, delay := range []time.Duration{0, 200 * time.Microsecond} {
		b.Run(fmt.Sprintf("delay=%s", delay), func(b *testing.B) {
			r := newRig(b, "rpc", 2, rigOpt{srv: []rpc.ServerOption{rpc.WithHandlerDelay(delay)}})
			s := r.session(b, ingest.Config{Name: "bench", SuperChunkSize: 128 << 10})
			mustBackup(b, s, "/bench", randBytes(2000, size))
			mustFlush(b, s)
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := migrate.Restore(context.Background(), r.dir, r.node, "/bench", ingest.DefaultInflight, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
