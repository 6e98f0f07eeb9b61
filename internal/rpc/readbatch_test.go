package rpc

import (
	"bytes"
	"context"
	"testing"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/store"
)

// TestReadBatchRoundTrip stores several super-chunks into separate
// containers, then fetches their chunks back through one ReadBatch call
// with the fingerprints deliberately interleaved across containers,
// reversed, and repeated — the batch must come back in request order
// regardless of the disk layout the server grouped the reads by.
func TestReadBatchRoundTrip(t *testing.T) {
	_, c := startServer(t, store.Config{KeepPayloads: true})
	ctx := context.Background()

	// Three super-chunks with a Flush between each, so the chunks land in
	// three distinct sealed containers.
	var chunks []core.ChunkRef
	for seed := int64(1); seed <= 3; seed++ {
		sc := makeSC(seed, 8)
		if err := c.Store(ctx, "s", sc, true); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, sc.Chunks...)
	}

	// Request order: strided across containers, back to front, with the
	// first fingerprint repeated at the end.
	var fps []fingerprint.Fingerprint
	var want [][]byte
	for stride := 0; stride < 8; stride++ {
		for sc := 2; sc >= 0; sc-- {
			ch := chunks[sc*8+stride]
			fps = append(fps, ch.FP)
			want = append(want, ch.Data)
		}
	}
	fps = append(fps, fps[0])
	want = append(want, want[0])

	batch, err := c.ReadBatch(ctx, fps)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Data) != len(fps) {
		t.Fatalf("batch has %d payloads, want %d", len(batch.Data), len(fps))
	}
	var total int64
	for i, data := range batch.Data {
		if !bytes.Equal(data, want[i]) {
			t.Fatalf("payload %d does not match its request-order chunk", i)
		}
		total += int64(len(data))
	}
	if batch.Bytes != total {
		t.Fatalf("batch.Bytes = %d, payloads sum to %d", batch.Bytes, total)
	}
	batch.Release()
	batch.Release() // double release must be safe
}

// TestReadBatchMissingChunk verifies one unknown fingerprint fails the
// whole batch: a restore must never silently substitute data.
func TestReadBatchMissingChunk(t *testing.T) {
	_, c := startServer(t, store.Config{KeepPayloads: true})
	ctx := context.Background()
	sc := makeSC(4, 4)
	if err := c.Store(ctx, "s", sc, true); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	fps := []fingerprint.Fingerprint{
		sc.Chunks[0].FP,
		fingerprint.Sum([]byte("not stored")),
		sc.Chunks[1].FP,
	}
	if _, err := c.ReadBatch(ctx, fps); err == nil {
		t.Fatal("batch containing a missing fingerprint should fail")
	}
	// The connection must survive the failed batch.
	batch, err := c.ReadBatch(ctx, []fingerprint.Fingerprint{sc.Chunks[2].FP})
	if err != nil {
		t.Fatalf("batch after failed batch: %v", err)
	}
	if !bytes.Equal(batch.Data[0], sc.Chunks[2].Data) {
		t.Fatal("payload corrupted after failed batch")
	}
	batch.Release()
}

// TestReadBatchEmpty covers the degenerate zero-fingerprint batch.
func TestReadBatchEmpty(t *testing.T) {
	_, c := startServer(t, store.Config{KeepPayloads: true})
	batch, err := c.ReadBatch(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Data) != 0 || batch.Bytes != 0 {
		t.Fatalf("empty batch returned %d payloads, %d bytes", len(batch.Data), batch.Bytes)
	}
	batch.Release()
}
