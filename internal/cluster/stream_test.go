package cluster

import (
	"fmt"
	"testing"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/router"
	"sigmadedupe/internal/workload"
)

// splitStreams carves a generated workload into n interleaved trace
// streams, the shape BackupItems replays in parallel.
func splitStreams(t *testing.T, name string, scale float64, n int) (map[string][]Item, *ExactTracker) {
	t.Helper()
	g, err := workload.ByName(name, scale, 0)
	if err != nil {
		t.Fatal(err)
	}
	items, err := workload.Collect(g)
	if err != nil {
		t.Fatal(err)
	}
	corpus := workload.NewCorpus(0)
	exact := NewExactTracker()
	streams := make(map[string][]Item, n)
	for i, it := range items {
		refs := corpus.ChunkRefs(it, false)
		exact.Add(refs)
		key := fmt.Sprintf("stream%d", i%n)
		streams[key] = append(streams[key], Item{FileID: it.FileID, Refs: refs})
	}
	return streams, exact
}

func TestBackupItemsMultiStream(t *testing.T) {
	streams, exact := splitStreams(t, "linux", 0.4, 4)
	c, err := New(Config{N: 8, Scheme: router.Sigma})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BackupItems(streams); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.LogicalBytes != exact.Logical() {
		t.Fatalf("logical = %d, want %d (no bytes lost across streams)", st.LogicalBytes, exact.Logical())
	}
	phys := c.PhysicalBytes()
	if phys < exact.Physical() {
		t.Fatalf("physical %d below exact minimum %d", phys, exact.Physical())
	}
	if phys > st.LogicalBytes {
		t.Fatalf("physical %d exceeds logical %d", phys, st.LogicalBytes)
	}
	// Node-level accounting must balance: every chunk presented to a node
	// was counted there once.
	var nodeLogical int64
	for _, n := range c.Nodes() {
		nodeLogical += n.Stats().LogicalBytes
	}
	if nodeLogical != st.LogicalBytes {
		t.Fatalf("node logical sum %d != cluster logical %d", nodeLogical, st.LogicalBytes)
	}
	if st.Files == 0 || st.SuperChunks == 0 || st.TotalMsgs() == 0 {
		t.Fatalf("missing counters: %+v", st)
	}
}

// TestMultiStreamMatchesSingleStreamDedup checks the concurrency refactor
// does not change what deduplication finds beyond stream-interleaving
// effects: multi-stream physical size stays within a small factor of the
// single-stream replay of the same data.
func TestMultiStreamMatchesSingleStreamDedup(t *testing.T) {
	streams, exact := splitStreams(t, "linux", 0.4, 4)

	single, err := New(Config{N: 8, Scheme: router.Sigma})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for _, it := range streams[fmt.Sprintf("stream%d", i)] {
			if err := single.BackupItem(it.FileID, it.Refs); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := single.Flush(); err != nil {
		t.Fatal(err)
	}

	multi, err := New(Config{N: 8, Scheme: router.Sigma})
	if err != nil {
		t.Fatal(err)
	}
	if err := multi.BackupItems(streams); err != nil {
		t.Fatal(err)
	}
	if err := multi.Flush(); err != nil {
		t.Fatal(err)
	}

	sp, mp := single.PhysicalBytes(), multi.PhysicalBytes()
	t.Logf("physical: single=%d multi=%d exact=%d", sp, mp, exact.Physical())
	if mp < exact.Physical() {
		t.Fatalf("multi-stream physical %d below exact %d", mp, exact.Physical())
	}
	if float64(mp) > 1.25*float64(sp) {
		t.Fatalf("multi-stream physical %d more than 25%% above single-stream %d", mp, sp)
	}
}

func TestRepeatedBackupItemsFoldsShards(t *testing.T) {
	c, err := New(Config{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		streams := map[string][]Item{
			fmt.Sprintf("a%d", round): {{FileID: 1, Refs: []core.ChunkRef{{FP: [20]byte{1, byte(round)}, Size: 100}}}},
			fmt.Sprintf("b%d", round): {{FileID: 2, Refs: []core.ChunkRef{{FP: [20]byte{2, byte(round)}, Size: 50}}}},
		}
		if err := c.BackupItems(streams); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Files != 6 || st.LogicalBytes != 450 {
		t.Fatalf("stats after 3 rounds = %+v", st)
	}
	// Finished BackupItems streams are folded into the base totals; only
	// the default stream's shard stays live.
	c.shardMu.Lock()
	live := len(c.shards)
	c.shardMu.Unlock()
	if live != 1 {
		t.Fatalf("live shards = %d, want 1 (default stream only)", live)
	}
}

func TestStreamHandlesAreIndependent(t *testing.T) {
	c, err := New(Config{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Stream("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Stream("b")
	if err != nil {
		t.Fatal(err)
	}
	// Each stream's partial super-chunk stays private until its own Flush.
	refs := []core.ChunkRef{{FP: [20]byte{1}, Size: 100}}
	if err := a.BackupItem(1, refs); err != nil {
		t.Fatal(err)
	}
	if err := b.BackupItem(2, []core.ChunkRef{{FP: [20]byte{2}, Size: 50}}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().SuperChunks; got != 0 {
		t.Fatalf("super-chunks routed before flush: %d", got)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().SuperChunks; got != 1 {
		t.Fatalf("super-chunks after one stream flush = %d, want 1", got)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Files != 2 || st.SuperChunks != 2 || st.LogicalBytes != 150 {
		t.Fatalf("stats = %+v", st)
	}
}
