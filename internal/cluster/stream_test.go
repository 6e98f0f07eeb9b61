package cluster

import (
	"context"
	"fmt"
	"testing"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/router"
	"sigmadedupe/internal/workload"
)

// splitStreams carves a generated workload into n interleaved trace
// streams, the shape Replay runs in parallel.
func splitStreams(t *testing.T, name string, scale float64, n int) (map[string]Trace, *ExactTracker) {
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
	files := make([][]workload.Item, n)
	for i, it := range items {
		exact.Add(corpus.ChunkRefs(it, false))
		files[i%n] = append(files[i%n], it)
	}
	streams := make(map[string]Trace, n)
	for i := range files {
		streams[fmt.Sprintf("stream%d", i)] = func(yield func(uint64, []core.ChunkRef) error) error {
			for _, it := range files[i] {
				if err := yield(it.FileID, corpus.ChunkRefs(it, false)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return streams, exact
}

func TestReplayMultiStream(t *testing.T) {
	streams, exact := splitStreams(t, "linux", 0.4, 4)
	c, err := New(Config{N: 8, Scheme: router.Sigma})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Replay(context.Background(), streams, nil)
	if err != nil {
		t.Fatal(err)
	}
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
	if st.Files != 4 || st.SuperChunks == 0 || st.AfterRoutingMsgs == 0 {
		t.Fatalf("missing counters: %+v", st)
	}
}

// TestMultiStreamMatchesSingleStreamDedup checks that concurrent streams
// do not change what deduplication finds beyond stream-interleaving
// effects: multi-stream physical size stays within a small factor of the
// single-stream replay of the same data.
func TestMultiStreamMatchesSingleStreamDedup(t *testing.T) {
	streams, exact := splitStreams(t, "linux", 0.4, 4)

	single, err := New(Config{N: 8, Scheme: router.Sigma})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		replayOne(t, single, streams[fmt.Sprintf("stream%d", i)], nil)
	}

	multi, err := New(Config{N: 8, Scheme: router.Sigma})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := multi.Replay(context.Background(), streams, nil); err != nil {
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

// TestRepeatedReplaysKeepEarlierReferences: replays of the same stream
// name on one cluster commit distinct items, so a later replay never
// supersedes — and releases — what an earlier one stored.
func TestRepeatedReplaysKeepEarlierReferences(t *testing.T) {
	c, err := New(Config{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	refs := []core.ChunkRef{{FP: [20]byte{1}, Size: 100}, {FP: [20]byte{2}, Size: 50}}
	for round := 0; round < 3; round++ {
		if st := replayOne(t, c, refsTrace(refs), nil); st.Files != 1 || st.LogicalBytes != 150 {
			t.Fatalf("round %d: %+v", round, st)
		}
	}
	if got := len(c.Director().Files()); got != 3 {
		t.Fatalf("director holds %d replayed items, want 3", got)
	}
	for _, r := range refs {
		var refsHeld int64
		for _, n := range c.Nodes() {
			refsHeld += n.Engine().RefCount(r.FP)
		}
		if refsHeld != 3 {
			t.Fatalf("chunk %s holds %d references, want one per replay", r.FP.Short(), refsHeld)
		}
	}
}

// TestStreamHandlesAreIndependent: each stream is a session of its own —
// its partial super-chunk is cut at its own end, never merged with
// another stream's.
func TestStreamHandlesAreIndependent(t *testing.T) {
	c, err := New(Config{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Replay(context.Background(), map[string]Trace{
		"a": refsTrace([]core.ChunkRef{{FP: [20]byte{1}, Size: 100}}),
		"b": refsTrace([]core.ChunkRef{{FP: [20]byte{2}, Size: 50}}),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != 2 || st.SuperChunks != 2 || st.LogicalBytes != 150 {
		t.Fatalf("stats = %+v", st)
	}
}
