package migrate

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"

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
	}{{"inline", restoreWindowBytes, 1}, {"pipelined", runBytes, 8}} {
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
