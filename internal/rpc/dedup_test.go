package rpc

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/sderr"
	"sigmadedupe/internal/store"
)

// refsOn reads a node's reference counts over a second connection.
func refsOn(t *testing.T, srv *Server, sc *core.SuperChunk) []int64 {
	t.Helper()
	return srv.Node().RefCounts(sc.Fingerprints())
}

// TestDedupRoundTrips: a super-chunk new to the node goes in one round
// trip when eager; a partly known one takes two — fingerprints, then the
// payloads of exactly what the node lacks — and a fully known one takes
// one. References land once per occurrence; nothing is stored twice.
func TestDedupRoundTrips(t *testing.T) {
	for _, network := range []string{"tcp", "unix"} {
		t.Run(network, func(t *testing.T) {
			srv, c := startServerAt(t, network, store.Config{KeepPayloads: true})
			ctx := context.Background()
			old, added := makeSC(21, 12), makeSC(22, 4)
			calls := c.Calls()
			fresh, err := c.Dedup(ctx, "s", old, old.Handprint(8), true)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.Calls() - calls; got != 1 {
				t.Fatalf("eager store of new data took %d round trips, want 1", got)
			}
			for i, f := range fresh {
				if !f {
					t.Fatalf("chunk %d of new data reported held", i)
				}
			}

			mixed := &core.SuperChunk{Chunks: append(append([]core.ChunkRef(nil), old.Chunks[:8]...), added.Chunks...)}
			calls = c.Calls()
			fresh, err = c.Dedup(ctx, "s", mixed, mixed.Handprint(8), false)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.Calls() - calls; got != 2 {
				t.Fatalf("partly known super-chunk took %d round trips, want 2", got)
			}
			for i, f := range fresh {
				if f != (i >= 8) {
					t.Fatalf("chunk %d: fresh = %v", i, f)
				}
			}
			calls = c.Calls()
			if _, err := c.Dedup(ctx, "s", mixed, mixed.Handprint(8), false); err != nil {
				t.Fatal(err)
			}
			if got := c.Calls() - calls; got != 1 {
				t.Fatalf("fully known super-chunk took %d round trips, want 1", got)
			}
			if got, want := refsOn(t, srv, mixed), []int64{3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2}; !reflect.DeepEqual(got, want) {
				t.Fatalf("references %v, want %v", got, want)
			}
			st := srv.Node().Stats()
			if st.SuperChunks != 3 || st.UniqueChunks != 16 || srv.Node().StorageUsage() != 16*4096 {
				t.Fatalf("node stats %+v, usage %d: want 3 super-chunks and 16 chunks stored once", st, srv.Node().StorageUsage())
			}
		})
	}
}

// TestDedupRefusesMalformedHandprint: the node checks the handprint it is
// asked to index and refuses a bad one with a typed error that survives
// the wire, taking no reference.
func TestDedupRefusesMalformedHandprint(t *testing.T) {
	srv, c := startServer(t, store.Config{KeepPayloads: true})
	sc := makeSC(23, 6)
	hp := sc.Handprint(8)
	fresh, err := c.Dedup(context.Background(), "s", sc, core.Handprint{hp[2], hp[1]}, true)
	if !errors.Is(err, sderr.ErrMalformed) {
		t.Fatalf("descending handprint: %v, want ErrMalformed", err)
	}
	for i, f := range fresh {
		if !f {
			t.Fatalf("chunk %d reported referenced by a refused call", i)
		}
	}
	if usage := srv.Node().StorageUsage(); usage != 0 {
		t.Fatalf("a refused call stored %d bytes", usage)
	}
}

// TestDedupMissingFailureReportsReferences: when the second round trip
// fails at the node part-way, the client reports as referenced exactly
// the chunks that hold one — the first call's duplicates and the missing
// chunks appended before the failure.
func TestDedupMissingFailureReportsReferences(t *testing.T) {
	srv, c := startServer(t, store.Config{KeepPayloads: true, ContainerCapacity: 8192})
	ctx := context.Background()
	old := makeSC(24, 2)
	if _, err := c.Dedup(ctx, "s", old, nil, true); err != nil {
		t.Fatal(err)
	}
	huge := makeSizedSC(25, 1, 3*4096).Chunks[0] // over the container capacity
	sc := &core.SuperChunk{Chunks: []core.ChunkRef{old.Chunks[0], makeSC(26, 1).Chunks[0], huge, makeSC(27, 1).Chunks[0], old.Chunks[1]}}
	unref, err := c.Dedup(ctx, "s", sc, nil, false)
	if err == nil {
		t.Fatal("storing a chunk larger than a container succeeded")
	}
	if want := []bool{false, false, true, true, false}; !reflect.DeepEqual(unref, want) {
		t.Fatalf("unreferenced = %v, want %v", unref, want)
	}
	if got, want := refsOn(t, srv, sc), []int64{2, 1, 0, 0, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("references %v, want %v", got, want)
	}
}

// TestDedupRefusesForgedChunkSizes: a chunk whose size is negative, or
// disagrees with the payload it came with, is refused the way a bad
// handprint is — typed, no reference taken, no byte accounted — and the
// connection stays.
func TestDedupRefusesForgedChunkSizes(t *testing.T) {
	srv, c := startServer(t, store.Config{KeepPayloads: true})
	ctx := context.Background()
	c.mu.Lock()
	cn := c.cn
	c.mu.Unlock()
	// Without payloads only a negative size is a forgery: the first call
	// of a fingerprint-only store cannot check a size against a payload.
	for _, tc := range []struct {
		name  string
		size  int
		eager bool
	}{{"negative", -1, true}, {"negative, fingerprints first", -1, false}, {"not the payload's", 100, true}} {
		sc := makeSC(28, 4)
		for i := range sc.Chunks {
			sc.Chunks[i].Size = tc.size
		}
		fresh, err := c.Dedup(ctx, "s", sc, nil, tc.eager)
		if !errors.Is(err, sderr.ErrMalformed) {
			t.Fatalf("%s size: %v, want ErrMalformed", tc.name, err)
		}
		for i, f := range fresh {
			if !f {
				t.Fatalf("%s size: chunk %d reported referenced by a refused call", tc.name, i)
			}
		}
		if refs := refsOn(t, srv, sc); !reflect.DeepEqual(refs, []int64{0, 0, 0, 0}) {
			t.Fatalf("%s size: references %v after a refused call", tc.name, refs)
		}
	}
	if st := srv.Node().Stats(); st.LogicalBytes != 0 || st.PhysicalBytes != 0 || srv.Node().StorageUsage() != 0 {
		t.Fatalf("refused calls were accounted: %+v, usage %d", st, srv.Node().StorageUsage())
	}
	if _, err := c.Dedup(ctx, "s", makeSC(28, 4), nil, true); err != nil {
		t.Fatalf("store after the refusals: %v", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cn != cn {
		t.Fatal("a refused call cost the connection")
	}
}
