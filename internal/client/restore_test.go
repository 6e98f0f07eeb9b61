package client

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"sigmadedupe/internal/director"
	"sigmadedupe/internal/node"
	"sigmadedupe/internal/rpc"
)

// cancelAfterWriter cancels a context after its first Write, then keeps
// accepting bytes — simulating a restore consumer that goes away
// mid-stream.
type cancelAfterWriter struct {
	cancel context.CancelFunc
	wrote  bool
}

func (w *cancelAfterWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.wrote = true
		w.cancel()
	}
	return len(p), nil
}

// TestRestoreCancellationUnwinds cancels a batched restore mid-stream
// against a slow server and requires the call to return promptly with
// the cancellation, leaving the client healthy for the next restore.
func TestRestoreCancellationUnwinds(t *testing.T) {
	nd, err := node.New(node.Config{ID: 0, KeepPayloads: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rpc.NewServer(nd, "127.0.0.1:0", rpc.WithHandlerDelay(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	dir := director.New()
	// Tiny windows: a 1MB image becomes dozens of batch RPCs, each held
	// 5ms by the server, so the cancel lands with work still queued.
	c, err := New(context.Background(), Config{
		Name:                "t",
		SuperChunkSize:      8 << 10,
		InflightSuperChunks: 8,
		RestoreWindowBytes:  16 << 10,
	}, dir, DenseNodes([]string{srv.Addr()}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	content := randBytes(90, 1<<20)
	if err := c.BackupFile(context.Background(), "/img", bytes.NewReader(content)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelAfterWriter{cancel: cancel}
	start := time.Now()
	err = c.Restore(ctx, "/img", w)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("canceled restore reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("restore error %v does not wrap context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("canceled restore took %v to unwind", elapsed)
	}

	// The cancellation must not poison the client: a fresh restore of the
	// same backup still yields identical bytes.
	var out bytes.Buffer
	if err := c.Restore(context.Background(), "/img", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), content) {
		t.Fatal("restore after cancellation corrupted the stream")
	}
}

// TestRestoreBatchedMatchesSource restores a backup through the windowed
// scheduler and requires byte-identical output plus the expected
// accounting: every byte counted once, at most one read RPC per node
// per window.
func TestRestoreBatchedMatchesSource(t *testing.T) {
	addrs := startCluster(t, 2)
	dir := director.New()
	content := randBytes(91, 1<<20)

	c, err := New(context.Background(), Config{Name: "t", SuperChunkSize: 64 << 10}, dir, DenseNodes(addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.BackupFile(context.Background(), "/img", bytes.NewReader(content)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := c.Restore(context.Background(), "/img", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), content) {
		t.Fatal("restore disagrees with the backup content")
	}
	st := c.Stats()
	if st.RestoredBytes != int64(len(content)) {
		t.Fatalf("RestoredBytes = %d, want %d", st.RestoredBytes, len(content))
	}
	windows := (int64(len(content)) + c.Config().RestoreWindowBytes - 1) / c.Config().RestoreWindowBytes
	if max := int64(len(addrs)) * windows; st.RestoreRPCs < 1 || st.RestoreRPCs > max {
		t.Fatalf("restore used %d read RPCs, want 1..%d (nodes x windows)", st.RestoreRPCs, max)
	}
}
