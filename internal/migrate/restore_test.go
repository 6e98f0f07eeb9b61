package migrate

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/rpc"
	"sigmadedupe/internal/sderr"
)

// nodesOf is the rig's in-process transport with some nodes gone from
// the membership.
func (r *rig) nodesOf(gone ...int) func(int) (Node, bool) {
	return func(id int) (Node, bool) {
		for _, g := range gone {
			if id == g {
				return nil, false
			}
		}
		n, ok := r.nodes[id]
		return Local(n), ok
	}
}

// overTCP serves the rig's nodes on loopback, every request held for
// delay, and returns the wire transport to them.
func (r *rig) overTCP(delay time.Duration) func(int) (Node, bool) {
	r.t.Helper()
	conns := make(map[int]*rpc.Client)
	for id, n := range r.nodes {
		srv, err := rpc.NewServer(n, "127.0.0.1:0", rpc.WithHandlerDelay(delay))
		if err != nil {
			r.t.Fatal(err)
		}
		r.t.Cleanup(func() { srv.Close() })
		conn, err := rpc.DialContext(context.Background(), srv.Addr())
		if err != nil {
			r.t.Fatal(err)
		}
		r.t.Cleanup(func() { conn.Close() })
		conns[id] = conn
	}
	return func(id int) (Node, bool) {
		conn, ok := conns[id]
		return conn, ok
	}
}

// want is the byte stream the recipe at path describes.
func (r *rig) want(path string) []byte {
	r.t.Helper()
	rec, err := r.dir.GetRecipe(context.Background(), path)
	if err != nil {
		r.t.Fatal(err)
	}
	var out bytes.Buffer
	for _, e := range rec.Chunks {
		out.Write(r.content[e.FP])
	}
	return out.Bytes()
}

// smallWindows forces many restore windows out of the rig's small
// backups for the duration of one test.
func smallWindows(t *testing.T, n int64) {
	old := restoreWindowBytes
	restoreWindowBytes = n
	t.Cleanup(func() { restoreWindowBytes = old })
}

// TestRestoreInlineAndPipelined restores the same backup through both
// halves of the scheduler — as one inline window and as a pipeline of
// many — and requires byte-identical output plus the expected
// accounting: every byte counted once, at most one batched read per node
// per window, the tenant's restored-bytes gauge fed.
func TestRestoreInlineAndPipelined(t *testing.T) {
	ctx := context.Background()
	r := newRig(t)
	r.backup("/img", 7, 0, 1, 2, 0, 1, 2, 1, 1)
	want := r.want("/img")
	const runBytes = runChunks * 4096

	for _, c := range []struct {
		name    string
		window  int64
		windows int64
	}{{"inline", int64(len(want)), 1}, {"pipelined", runBytes, 8}} {
		t.Run(c.name, func(t *testing.T) {
			smallWindows(t, c.window)
			before, _ := r.dir.TenantStatus(ctx, "default")
			var out bytes.Buffer
			st, err := Restore(ctx, r.dir, r.nodesOf(), "/img", 3, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatal("restore disagrees with the backup content")
			}
			if st.Bytes != int64(len(want)) || st.Chunks != 8*runChunks || st.FailoverReads != 0 {
				t.Fatalf("stats = %+v, want %d bytes in %d chunks", st, len(want), 8*runChunks)
			}
			if st.ReadBatches < c.windows || st.ReadBatches > 3*c.windows {
				t.Fatalf("%d batched reads over %d windows x 3 nodes", st.ReadBatches, c.windows)
			}
			after, _ := r.dir.TenantStatus(ctx, "default")
			if got := after.Usage.RestoredBytes - before.Usage.RestoredBytes; got != st.Bytes {
				t.Fatalf("tenant restored-bytes gauge moved by %d, want %d", got, st.Bytes)
			}
		})
	}

	if _, err := Restore(ctx, r.dir, r.nodesOf(), "/missing", 3, io.Discard); !errors.Is(err, sderr.ErrNotFound) {
		t.Fatalf("restore of an unknown name = %v, want ErrNotFound", err)
	}
}

// readLog records the batched reads a restore issues through the
// transports it wraps: how many fingerprints were asked for, and every
// batch returned, so a test can check that each was released.
type readLog struct {
	mu      sync.Mutex
	asked   int
	batches []*rpc.ChunkBatch
}

func (l *readLog) wrap(nodes func(int) (Node, bool)) func(int) (Node, bool) {
	return func(id int) (Node, bool) {
		n, ok := nodes(id)
		return loggedNode{n, l}, ok
	}
}

type loggedNode struct {
	Node
	log *readLog
}

func (n loggedNode) ReadBatch(ctx context.Context, fps []fingerprint.Fingerprint) (*rpc.ChunkBatch, error) {
	b, err := n.Node.ReadBatch(ctx, fps)
	n.log.mu.Lock()
	defer n.log.mu.Unlock()
	n.log.asked += len(fps)
	if err == nil {
		n.log.batches = append(n.log.batches, b)
	}
	return b, err
}

// TestRestoreWindowShapes restores recipes whose windows stress the
// recycled per-window scratch — fingerprints repeating within and across
// windows, and windows that one node holds whole between windows spread
// over all three — over both transports, and requires byte-identical
// output from no more reads than the recipe has entries.
func TestRestoreWindowShapes(t *testing.T) {
	ctx := context.Background()
	r := newRig(t)
	r.backup("/img", 31, 0, 1, 2, 0, 0, 0, 0, 1, 2)
	rec, err := r.dir.GetRecipe(ctx, "/img")
	if err != nil {
		t.Fatal(err)
	}
	run := func(k int) []director.ChunkEntry { return rec.Chunks[k*runChunks : (k+1)*runChunks] }
	// Windows of a run and a half cut runs apart, so a fingerprint's
	// repeats land both inside one window and in later ones.
	var repeats []director.ChunkEntry
	for _, k := range []int{0, 1, 0, 2, 0, 1, 1, 2, 0} {
		repeats = append(repeats, run(k)...)
	}
	repeats = append(repeats, rec.Chunks[3], rec.Chunks[0], rec.Chunks[3])
	r.putRecipe("/repeats", repeats)

	for _, tr := range []struct {
		name  string
		nodes func(int) (Node, bool)
	}{{"local", r.nodesOf()}, {"rpc", r.overTCP(0)}} {
		for _, c := range []struct {
			name, path string
			window     int64
		}{
			{"repeats across windows", "/repeats", 3 * runChunks * 4096 / 2},
			{"one node holds a window", "/img", 2 * runChunks * 4096},
		} {
			t.Run(tr.name+"/"+c.name, func(t *testing.T) {
				smallWindows(t, c.window)
				var out bytes.Buffer
				var log readLog
				st, err := Restore(ctx, r.dir, log.wrap(tr.nodes), c.path, 2, &out)
				if err != nil {
					t.Fatal(err)
				}
				if want := r.want(c.path); !bytes.Equal(out.Bytes(), want) {
					t.Fatalf("restore of %s disagrees with its recipe (%d bytes, want %d)", c.path, out.Len(), len(want))
				}
				if st.Bytes != int64(out.Len()) {
					t.Fatalf("stats count %d bytes, wrote %d", st.Bytes, out.Len())
				}
				if log.asked > int(st.Chunks) {
					t.Fatalf("asked the nodes for %d chunks to restore %d", log.asked, st.Chunks)
				}
			})
		}
	}
}

// TestRestoreAllocatesLittleOverRPC restores a backup of many default
// windows over TCP and, after a warm-up restore, requires the process to
// allocate only a small fraction of the restored bytes: reply frames
// come back out of the wire pool and the per-window scratch is recycled.
// What is left is per chunk — the codec's and the node's index slices,
// about a tenth. The least of three restores counts, so a scheduling
// hiccup that lets the pipeline outgrow the pool does not. Windows whose
// per-node replies outgrow the pool's 1MB classes (the 8MB budget's)
// allocate most reply frames afresh: about the restored bytes.
func TestRestoreAllocatesLittleOverRPC(t *testing.T) {
	r := newRig(t)
	windows := 6
	placement := make([]int, windows*int(restoreWindowBytes)/(runChunks*4096))
	for i := range placement {
		placement[i] = i % 3
	}
	r.backup("/img", 41, placement...)
	wire := r.overTCP(0)
	restore := func() int64 {
		st, err := Restore(context.Background(), r.dir, wire, "/img", 4, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return st.Bytes
	}
	restored := restore() // warm-up: fills the frame pool
	allocated := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		restore()
		runtime.ReadMemStats(&after)
		allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("restored %d bytes in %d-byte windows, allocated %d (%.1f%%)",
		restored, restoreWindowBytes, allocated, 100*float64(allocated)/float64(restored))
	if allocated > uint64(restored)/5 {
		t.Fatalf("a warm restore of %d bytes allocated %d: more than a fifth", restored, allocated)
	}
}

// stallThenFail is a restore consumer that takes its time over the first
// write, so the pipeline fills behind it, and then fails.
type stallThenFail struct{}

func (stallThenFail) Write([]byte) (int, error) {
	time.Sleep(50 * time.Millisecond)
	return 0, errors.New("injected writer failure")
}

// TestRestoreReleasesUnwrittenWindows ends pipelined restores over TCP
// with windows fetched but not yet written — the writer fails, or the
// caller cancels — and requires every batch the nodes returned to have
// been released (its frame back in the pool) by the time Restore
// returns.
func TestRestoreReleasesUnwrittenWindows(t *testing.T) {
	r := newRig(t)
	placement := make([]int, 48)
	for i := range placement {
		placement[i] = i % 3
	}
	r.backup("/img", 17, placement...)
	smallWindows(t, runChunks*4096)
	wire := r.overTCP(0)

	for _, c := range []struct {
		name string
		w    func(log *readLog, cancel context.CancelFunc) io.Writer
		want error
	}{
		{"writer fails", func(*readLog, context.CancelFunc) io.Writer { return stallThenFail{} }, nil},
		{"caller cancels", func(log *readLog, cancel context.CancelFunc) io.Writer {
			return cancelAfterBatches{log, 2, cancel}
		}, context.Canceled},
	} {
		t.Run(c.name, func(t *testing.T) {
			var log readLog
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err := Restore(ctx, r.dir, log.wrap(wire), "/img", 8, c.w(&log, cancel))
			if err == nil || c.want != nil && !errors.Is(err, c.want) {
				t.Fatalf("restore = %v, want a failure (%v)", err, c.want)
			}
			if len(log.batches) < 2 {
				t.Fatalf("only %d batches fetched: nothing was left in flight", len(log.batches))
			}
			for i, b := range log.batches {
				if b.Data != nil {
					t.Fatalf("batch %d of %d was never released", i, len(log.batches))
				}
			}
		})
	}
}

// TestRestoreFailsOverToReplicas: with a node gone from the membership
// its share of every window is served by the entries' replica owners;
// without replicas the restore fails typed rather than short.
func TestRestoreFailsOverToReplicas(t *testing.T) {
	ctx := context.Background()
	r := newRig(t)
	r.backup("/a", 11, 0, 1, 0, 2)
	want := r.want("/a")
	smallWindows(t, 2*runChunks*4096)

	if _, err := Restore(ctx, r.dir, r.nodesOf(0), "/a", 2, io.Discard); !errors.Is(err, sderr.ErrNotFound) {
		t.Fatalf("single-copy restore past a dead node = %v, want ErrNotFound", err)
	}
	for _, rec := range r.recipes() {
		if _, err := r.engine(2, nil).ReplicateRecipe(ctx, rec, r.members); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	st, err := Restore(ctx, r.dir, r.nodesOf(0), "/a", 2, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("failover restore disagrees with the backup content")
	}
	if st.FailoverReads != 2*runChunks {
		t.Fatalf("FailoverReads = %d, want node 0's %d chunks", st.FailoverReads, 2*runChunks)
	}
}

// cancelAfterWriter cancels a context after its first Write, then keeps
// accepting bytes — a restore consumer that goes away mid-stream.
type cancelAfterWriter struct {
	cancel context.CancelFunc
}

func (w cancelAfterWriter) Write(p []byte) (int, error) {
	w.cancel()
	return len(p), nil
}

// cancelAfterBatches cancels a context at the first Write after log has
// recorded n fetched batches, then keeps accepting bytes: a consumer that
// goes away with reads in flight, whatever the fetch timing.
type cancelAfterBatches struct {
	log    *readLog
	n      int
	cancel context.CancelFunc
}

func (w cancelAfterBatches) Write(p []byte) (int, error) {
	w.log.mu.Lock()
	fetched := len(w.log.batches)
	w.log.mu.Unlock()
	if fetched >= w.n {
		w.cancel()
	}
	return len(p), nil
}

// TestRestoreCancellationUnwinds cancels a pipelined restore mid-stream
// against slow servers over TCP and requires the call to return promptly
// with the cancellation, leaving the connections healthy for the next
// restore.
func TestRestoreCancellationUnwinds(t *testing.T) {
	r := newRig(t)
	placement := make([]int, 48)
	for i := range placement {
		placement[i] = i % 3
	}
	r.backup("/img", 13, placement...)
	// One run per window, each read RPC held 5ms by its server: the
	// cancel lands with dozens of windows still queued.
	smallWindows(t, runChunks*4096)
	wire := r.overTCP(5 * time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	_, err := Restore(ctx, r.dir, wire, "/img", 8, cancelAfterWriter{cancel})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled restore = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("canceled restore took %v to unwind", elapsed)
	}
	var out bytes.Buffer
	if _, err := Restore(context.Background(), r.dir, wire, "/img", 8, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), r.want("/img")) {
		t.Fatal("restore after cancellation corrupted the stream")
	}
}

// failingDecRef is a live member whose DecRef fails.
type failingDecRef struct{ Node }

func (failingDecRef) DecRef(context.Context, []fingerprint.Fingerprint, []int64) error {
	return errors.New("injected decref failure")
}

// TestDeleteMembershipRule pins the one rule of the shared delete: a
// node that left the membership took its references with it and is
// skipped — replicated or not — while an error from a live member fails
// the delete.
func TestDeleteMembershipRule(t *testing.T) {
	ctx := context.Background()
	r := newRig(t)
	r.backup("/a", 21, 0, 1)
	r.backup("/b", 22, 1, 2)

	if err := Delete(ctx, r.dir, r.nodesOf(0), "/a"); err != nil {
		t.Fatalf("single-copy delete past a dead node: %v", err)
	}
	if err := Delete(ctx, r.dir, r.nodesOf(), "/a"); !errors.Is(err, sderr.ErrNotFound) {
		t.Fatalf("double delete = %v, want ErrNotFound", err)
	}
	err := Delete(ctx, r.dir, func(id int) (Node, bool) {
		return failingDecRef{Local(r.nodes[id])}, true
	}, "/b")
	if err == nil {
		t.Fatal("a live member's DecRef failure did not fail the delete")
	}
	// Node 0 is "dead", so only the survivors are checked: /a's share on
	// node 1 was released, /b's references (its delete failed after the
	// recipe left the catalog) are what a leak looks like — still there.
	gc, err := GCStats(ctx, []int{1, 2}, r.nodesOf())
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2 * runChunks * 4096); gc.LiveBytes != want {
		t.Fatalf("survivors hold %d live bytes, want /b's %d", gc.LiveBytes, want)
	}
}
