package ingest_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"sigmadedupe/internal/chunker"
	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/ingest"
	"sigmadedupe/internal/migrate"
	"sigmadedupe/internal/pipeline"
	"sigmadedupe/internal/sderr"
)

// shortReads hands out a random 1..3000 bytes per Read.
type shortReads struct {
	r   io.Reader
	rng *rand.Rand
}

func (s *shortReads) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	return s.r.Read(p[:1+s.rng.Intn(min(len(p), 3000))])
}

// TestSerialReference is the differential of the batched stages against
// a serial reference that shares no code with the session
// (chunker.SplitAll + Algorithm.Sum): whatever the worker count, the
// chunk spec, the kernel that hashes a batch (16 lanes or one, SHA-1 and
// SHA-256; with FastCDC the lanes run unequal lengths), the way the reader slices its
// bytes and wherever the item ends relative to a chunk, a batch and a
// super-chunk, the recipe is the reference's (fingerprint, size) sequence
// in stream order and the item restores byte-identical.
func TestSerialReference(t *testing.T) {
	const scSize = 256 << 10
	full := randBytes(4242, 8<<20)
	type entry struct {
		fp   fingerprint.Fingerprint
		size int32
	}
	shapes := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"whole", func(r io.Reader) io.Reader { return r }},
		{"one-byte", iotest.OneByteReader},
		{"short", func(r io.Reader) io.Reader { return &shortReads{r, rand.New(rand.NewSource(11))} }},
		{"data-err", iotest.DataErrReader},
	}
	for _, spec := range []struct {
		name   string
		method chunker.Method
		size   int
		algo   fingerprint.Algorithm
	}{
		{"fixed4k-sha1", chunker.Fixed, 4096, fingerprint.SHA1},
		{"fastcdc8k-sha1", chunker.FastCDC, 8192, fingerprint.SHA1},
		{"fastcdc8k-sha256", chunker.FastCDC, 8192, fingerprint.SHA256},
	} {
		reference := func(data []byte) []entry {
			ck, err := chunker.New(spec.method, bytes.NewReader(data), spec.size)
			if err != nil {
				t.Fatal(err)
			}
			chunks, err := chunker.SplitAll(ck)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]entry, len(chunks))
			for i, ch := range chunks {
				out[i] = entry{spec.algo.Sum(ch.Data), int32(ch.Len())}
			}
			return out
		}
		// Where the stream's chunks end, which one fills the first batch,
		// which one closes the first super-chunk (up to the batch holding
		// it the session works inline), and which one fills the first
		// batch after it.
		whole := reference(full)
		part, err := core.NewPartitioner(scSize, spec.algo, false)
		if err != nil {
			t.Fatal(err)
		}
		ends, batch0, first, filled := make([]int, len(whole)), -1, -1, -1
		for i, e := range whole {
			ends[i] = int(e.size)
			if i > 0 {
				ends[i] += ends[i-1]
			}
			if batch0 < 0 && ends[i] >= ingest.HashBatchBytes {
				batch0 = i
			}
			switch {
			case first < 0:
				if part.AddRef(core.ChunkRef{FP: e.fp, Size: int(e.size)}) != nil {
					first = i
				}
			case filled < 0 && ends[i]-ends[first] >= ingest.HashBatchBytes:
				filled = i
			}
		}
		sizes := []int{0, 1, ends[0],
			ends[batch0-1], ends[batch0], ends[batch0+1],
			ends[first-1], ends[first], ends[first+1],
			ends[filled-1], ends[filled], ends[filled+1],
			len(full)}
		want := make(map[int][]entry)
		for _, size := range sizes {
			want[size] = reference(full[:size])
		}
		sweep := func(t *testing.T, workers int) {
			r := newRig(t, "local", 2, rigOpt{})
			s := r.session(t, ingest.Config{ChunkMethod: spec.method, ChunkSize: spec.size,
				Algorithm: spec.algo, SuperChunkSize: scSize, Workers: workers})
			for _, shape := range shapes {
				for _, size := range sizes {
					name := fmt.Sprintf("/%s/%d", shape.name, size)
					if err := s.Backup(context.Background(), name, shape.wrap(bytes.NewReader(full[:size]))); err != nil {
						t.Fatalf("backup %s: %v", name, err)
					}
				}
			}
			mustFlush(t, s)
			for _, shape := range shapes {
				for _, size := range sizes {
					name := fmt.Sprintf("/%s/%d", shape.name, size)
					rec, err := r.dir.GetRecipe(context.Background(), name)
					if err != nil {
						t.Fatal(err)
					}
					if len(rec.Chunks) != len(want[size]) {
						t.Fatalf("%s: %d recipe entries, reference has %d", name, len(rec.Chunks), len(want[size]))
					}
					for i, e := range want[size] {
						if got := rec.Chunks[i]; got.FP != e.fp || got.Size != e.size {
							t.Fatalf("%s entry %d: (%x, %d), reference (%x, %d)", name, i, got.FP, got.Size, e.fp, e.size)
						}
					}
					if !bytes.Equal(r.restore(t, name), full[:size]) {
						t.Fatalf("%s does not restore byte-identical", name)
					}
				}
			}
		}
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", spec.name, workers), func(t *testing.T) {
				for _, x16 := range []bool{false, true} {
					restore := fingerprint.SetHashKernelsForTest(true, x16)
					t.Run(spec.algo.Impl(), func(t *testing.T) { sweep(t, workers) })
					restore()
				}
			})
		}
	}
}

// TestBatchReaderErrorAbortsItem: a reader that fails in the middle of a
// batch, well past the first super-chunk, aborts the item with the
// reader's error at the chunk stage; the catalog keeps the name's
// previous generation, nothing the failed attempt stored stays
// referenced, and the session backs up again.
func TestBatchReaderErrorAbortsItem(t *testing.T) {
	eachTransport(t, func(t *testing.T, transport string) {
		r := newRig(t, transport, 2, rigOpt{})
		s := r.session(t, ingest.Config{SuperChunkSize: 64 << 10})
		v1 := randBytes(31, 300<<10)
		mustBackup(t, s, "/data", v1)
		mustFlush(t, s)
		live := r.liveBytes()

		broken := errors.New("injected: reader broke")
		v2 := randBytes(32, 2<<20)
		failing := io.MultiReader(bytes.NewReader(v2[:1<<20+ingest.HashBatchBytes/2]), iotest.ErrReader(broken))
		err := s.Backup(context.Background(), "/data", failing)
		var berr *sderr.BackupError
		if !errors.Is(err, broken) || !errors.As(err, &berr) || berr.Name != "/data" || berr.Stage != "chunk" {
			t.Fatalf("backup from a failing reader = %v, want a chunk-stage BackupError of /data wrapping the reader's error", err)
		}
		if got := r.liveBytes(); got != live {
			t.Fatalf("live bytes %d after the aborted backup, want %d: references stranded", got, live)
		}
		if !bytes.Equal(r.restore(t, "/data"), v1) {
			t.Fatal("the previous generation does not restore after the aborted re-backup")
		}
		mustBackup(t, s, "/data", v2)
		mustFlush(t, s)
		if !bytes.Equal(r.restore(t, "/data"), v2) {
			t.Fatal("backup after the aborted one does not restore")
		}
	})
}

// stalling delivers its data and then blocks, the way a pipe whose
// writer went quiet does, until it is released (EOF) or ctx ends.
type stalling struct {
	data    *bytes.Reader
	ctx     context.Context
	release chan struct{}
}

func (r *stalling) Read(p []byte) (int, error) {
	if r.data.Len() > 0 {
		return r.data.Read(p)
	}
	select {
	case <-r.release:
		return 0, io.EOF
	case <-r.ctx.Done():
		return 0, r.ctx.Err()
	}
}

// counting counts the bytes of the super-chunks handed to Dedup.
type counting struct {
	migrate.Node
	stored *atomic.Int64
}

func (c counting) Dedup(ctx context.Context, stream string, sc *core.SuperChunk, hp core.Handprint, eager bool) ([]bool, error) {
	c.stored.Add(sc.Size())
	return c.Node.Dedup(ctx, stream, sc, hp, eager)
}

// TestStalledReaderHoldsBackOneBatch pins the one thing a batch
// hand-off changes for a caller: when the reader stalls mid-stream, the
// chunks of the unfilled batch wait client-side with the pending
// super-chunk — everything before them has reached the nodes. EOF then
// delivers the rest and the item commits; a cancel returns promptly and
// leaves nothing behind.
func TestStalledReaderHoldsBackOneBatch(t *testing.T) {
	const scSize = 32 << 10
	for _, ending := range []string{"eof", "cancel"} {
		t.Run(ending, func(t *testing.T) {
			r := newRig(t, "local", 2, rigOpt{})
			stored := new(atomic.Int64)
			for i, nd := range r.byID {
				r.byID[i] = counting{nd, stored}
			}
			s := r.session(t, ingest.Config{SuperChunkSize: scSize})
			data := randBytes(88, 250*4096)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			src := &stalling{bytes.NewReader(data), ctx, make(chan struct{})}
			result := make(chan error, 1)
			go func() { result <- s.Backup(ctx, "/stalled", src) }()

			// Fingerprinted and partitioned: all but less than one batch.
			// Stored: that, less a pending super-chunk (cut by content, at
			// most twice its nominal size).
			deadline := time.Now().Add(10 * time.Second)
			for {
				logical := s.Stats().LogicalBytes
				if held := int64(len(data)) - logical; held < ingest.HashBatchBytes && logical-stored.Load() <= 2*scSize {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("reader stalled after %d bytes: %d past the hash stage, %d stored; want all but one batch (%d) hashed and all but a pending super-chunk of that stored",
						len(data), logical, stored.Load(), ingest.HashBatchBytes)
				}
				time.Sleep(time.Millisecond)
			}
			select {
			case err := <-result:
				t.Fatalf("Backup returned (%v) while its reader was stalled", err)
			default:
			}

			if ending == "eof" {
				close(src.release)
				if err := <-result; err != nil {
					t.Fatal(err)
				}
				mustFlush(t, s)
				if !bytes.Equal(r.restore(t, "/stalled"), data) {
					t.Fatal("the item does not restore after its reader resumed with EOF")
				}
				return
			}
			canceledAt := time.Now()
			cancel()
			if err := <-result; !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled backup = %v, want context.Canceled in the chain", err)
			}
			if elapsed := time.Since(canceledAt); elapsed > 2*time.Second {
				t.Fatalf("backup took %v to honor cancellation", elapsed)
			}
			if _, err := r.dir.GetRecipe(context.Background(), "/stalled"); !errors.Is(err, director.ErrNoRecipe) {
				t.Fatalf("canceled backup is in the catalog: %v", err)
			}
			if live := r.liveBytes(); live != 0 {
				t.Fatalf("%d live bytes after the canceled backup, want 0", live)
			}
			mustBackup(t, s, "/after", data)
			mustFlush(t, s)
			if !bytes.Equal(r.restore(t, "/after"), data) {
				t.Fatal("backup after a canceled one does not restore")
			}
		})
	}
}

// counterStream is n bytes of never-repeating 4KB chunks made on the
// fly: zeros, each chunk opening with its index.
type counterStream struct{ off, n int64 }

func (c *counterStream) Read(p []byte) (int, error) {
	if c.off >= c.n {
		return 0, io.EOF
	}
	p = p[:min(int64(len(p)), c.n-c.off)]
	clear(p)
	for base := c.off - c.off%4096; base < c.off+int64(len(p)); base += 4096 {
		for k := int64(0); k < 8; k++ {
			if at := base + k - c.off; at >= 0 && at < int64(len(p)) {
				p[at] = byte(base / 4096 >> (8 * k))
			}
		}
	}
	c.off += int64(len(p))
	return len(p), nil
}

// TestMemoryPlateau: the chunk buffers a session ever allocates are the
// most it ever had out at once — the window plus the hash stage — and do
// not grow with the stream: after a 64MB item has warmed the session, a
// 256MB item allocates (nearly) nothing a second 64MB item had not, at 2
// workers and at 32, and the total stays inside that bound. Super-chunks
// of four chunks make the driving goroutine the slowest stage, so the
// queues of the hash stage fill, and keep the window (whose content-cut
// sizes vary) small beside it. How full the 32-worker queues get on a
// first item depends on what else the machine runs; the warm-up item is
// why the plateau is not measured against that.
func TestMemoryPlateau(t *testing.T) {
	const scSize = 16 << 10
	small, large := int64(64<<20), int64(256<<20)
	if raceEnabled {
		large = small
	}
	for _, workers := range []int{2, 32} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			r := &rig{dir: director.New(), members: core.DenseMembership(1), byID: []migrate.Node{discard{}}}
			s := r.session(t, ingest.Config{Workers: workers, SuperChunkSize: scSize})
			for _, name := range []string{"/warm", "/small"} {
				if err := s.Backup(context.Background(), name, &counterStream{n: small}); err != nil {
					t.Fatal(err)
				}
				mustFlush(t, s)
			}
			second := s.Stats().ChunkBufAllocs
			if err := s.Backup(context.Background(), "/large", &counterStream{n: large}); err != nil {
				t.Fatal(err)
			}
			mustFlush(t, s)
			st := s.Stats()
			if float64(st.ChunkBufAllocs) > 1.05*float64(second) {
				t.Fatalf("chunk buffers allocated: %d after two %dMB items, %d after %dMB more; want a plateau", second, small>>20, st.ChunkBufAllocs, large>>20)
			}
			// The window as measured, the pending super-chunk (at most twice
			// the nominal size), and the hash stage: 3·Depth + 4 batches.
			pc := pipeline.Config{Workers: workers}.WithDefaults()
			hashStage := int64(3*pc.Depth+4) * ingest.HashBatchBytes
			if bound := (st.PeakBufferedBytes + 2*scSize + hashStage) / 4096; st.ChunkBufAllocs > bound {
				t.Fatalf("%d chunk buffers allocated, bound %d (window %d bytes + hash stage %d bytes)",
					st.ChunkBufAllocs, bound, st.PeakBufferedBytes, hashStage)
			}
		})
	}
}

// TestOneChunkItemsReuseBuffers: a chunker draws a buffer before it can
// see the end of its stream, so every item ends on a buffer it did not
// fill. That buffer must go back to the session's pool: over 2,000
// one-chunk items the session allocates no more chunk buffers than it
// can ever hold at once, instead of one more per item. FastCDC draws its
// buffer before reading a byte, as fixed chunking does: an item of
// zeros as long as its largest chunk ends on a hard cut, with the end of
// the stream still unseen.
//
// The bound is the session's own sizes, not a measured plateau: the pool
// allocates only when the chunker's stock and the free list are both
// empty, so every buffer it ever made was out at once with the new one.
// Out are the super-chunks in the window or awaiting in-order apply —
// at most 2·Inflight, one chunk each here — plus the item's chunk and the
// buffer drawn past its end. Scheduling decides how close a run comes to
// the bound (the race detector's comes closest), not whether it holds.
func TestOneChunkItemsReuseBuffers(t *testing.T) {
	const bound = 2*ingest.DefaultInflight + 2
	for _, c := range []struct {
		cfg  ingest.Config
		size int
	}{
		{ingest.Config{ChunkMethod: chunker.Fixed}, 4096},
		{ingest.Config{ChunkMethod: chunker.FastCDC, ChunkSize: 8192}, chunker.MaxChunkSize(chunker.FastCDC, 8192)},
	} {
		t.Run(c.cfg.ChunkMethod.String(), func(t *testing.T) {
			r := &rig{dir: director.New(), members: core.DenseMembership(1), byID: []migrate.Node{discard{}}}
			s := r.session(t, c.cfg)
			data := make([]byte, c.size)
			for i := 0; i < 2000; i++ {
				data[0], data[1] = byte(i), byte(i>>8)
				if err := s.Backup(context.Background(), fmt.Sprintf("/item%d", i), bytes.NewReader(data)); err != nil {
					t.Fatal(err)
				}
			}
			mustFlush(t, s)
			if got := s.Stats().ChunkBufAllocs; got > bound {
				t.Fatalf("%d chunk buffers allocated over 2000 one-chunk items, bound %d (2·Inflight super-chunks + 2)", got, bound)
			}
		})
	}
}

// TestHashStageAllocsPerChunk pins the work count of the hand-off —
// heap allocations per chunk through chunk → SHA-1 → partition → window
// over BenchmarkHashStage's rig — where go test ./... sees it: 2.1 when
// every chunk crossed the stages alone, 0.2 in batches (what is left is
// per super-chunk). Counted at GOMAXPROCS 2 by hand: testing.AllocsPerRun
// pins GOMAXPROCS to 1, where the stages cannot overlap.
func TestHashStageAllocsPerChunk(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const size = 16 << 20
	s, content := hashStageRig(t, ingest.Config{Name: "allocs"}, size)
	mustBackup(t, s, "/warm", content)
	mustFlush(t, s)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 4
	for i := 0; i < runs; i++ {
		mustBackup(t, s, fmt.Sprintf("/run/%d", i), content) // a fresh name: discard releases nothing
		mustFlush(t, s)
	}
	runtime.ReadMemStats(&after)
	perChunk := float64(after.Mallocs-before.Mallocs) / (runs * size / 4096)
	if perChunk > 0.5 {
		t.Fatalf("%.2f allocations per chunk through the client stages, want <= 0.5", perChunk)
	}
}
