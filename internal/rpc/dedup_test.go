package rpc

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/node"
	"sigmadedupe/internal/sderr"
)

// dedupRequest and dedupReply are an OpDedup exchange as the client and
// server encode it: the fingerprints of three chunks under the routed
// handprint, and the verdicts.
func dedupRequest() Request {
	return Request{
		ID:        43,
		Op:        OpDedup,
		Stream:    "client-a/backup-7",
		Handprint: []fingerprint.Fingerprint{testFP(1), testFP(2)},
		Chunks:    []ChunkWire{{FP: testFP(1), Size: 5}, {FP: testFP(2), Size: 9}, {FP: testFP(12), Size: 3}},
		TimeoutMS: 1500,
	}
}

func dedupReply() Response { return Response{ID: 43, Dup: []bool{true, false, true}} }

// dedupMissingRequest is the second round trip: the payload of the chunk
// the reply calls missing.
func dedupMissingRequest() Request {
	return Request{
		ID:        44,
		Op:        OpDedupMissing,
		Stream:    "client-a/backup-7",
		Handprint: []fingerprint.Fingerprint{testFP(1), testFP(2)},
		Chunks:    []ChunkWire{{FP: testFP(2), Size: 9, Data: []byte("new chunk")}},
		TimeoutMS: 1500,
	}
}

// TestDedupFrameGolden pins the encodings of the two dedup ops beside the
// version-1 digests of TestVectoredFrameGolden, which adding them left
// unchanged: the ops reuse the one request/response layout.
func TestDedupFrameGolden(t *testing.T) {
	req, reply, rest := dedupRequest(), dedupReply(), dedupMissingRequest()
	for _, tc := range []struct {
		name, want string
		enc        []byte
	}{
		{"dedup request", "387f410d6594214923258e89f52eaf8ce64330a88bbfb6fcbe2386325a94fef2", appendRequest(nil, &req)},
		{"dedup reply", "ca0b9d815f4bd624551522e1a4859d32d5b6525b3ed5a1b955a0e6e68410678c", appendResponse(nil, &reply)},
		{"dedup-missing request", "ff674589bc856fc78cbd8ad966c2bae8f427f9c3d5bc479ddc75a4986190a3d1", appendRequest(nil, &rest)},
	} {
		sum := sha256.Sum256(tc.enc)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: encoding digest %s, want %s (wire format changed)", tc.name, got, tc.want)
		}
	}
	if OpDedup != 16 || OpDedupMissing != 17 {
		t.Fatalf("op numbers %d, %d: want 16, 17", OpDedup, OpDedupMissing)
	}
}

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
			srv, c := startServerAt(t, network, node.Config{KeepPayloads: true})
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
	srv, c := startServer(t, node.Config{KeepPayloads: true})
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
	srv, c := startServer(t, node.Config{KeepPayloads: true, ContainerCapacity: 8192})
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
