package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/node"
	"sigmadedupe/internal/store"
	"sigmadedupe/internal/wire"
)

func testFP(seed byte) fingerprint.Fingerprint {
	var fp fingerprint.Fingerprint
	for i := range fp {
		fp[i] = seed + byte(i)*7
	}
	return fp
}

func sampleRequest() Request {
	return Request{
		ID:        42,
		Op:        OpStore,
		Stream:    "client-a/backup-7",
		Handprint: []fingerprint.Fingerprint{testFP(1), testFP(2), testFP(3)},
		Chunks: []ChunkWire{
			{FP: testFP(10), Size: 5, Data: []byte("hello")},
			{FP: testFP(11), Size: 9}, // fingerprint-only: no payload
			{FP: testFP(12), Size: 3, Data: []byte{0, 1, 2}},
		},
		Counts:    []int64{1, -3, 1 << 40},
		Threshold: 0.75,
		TimeoutMS: 1500,
	}
}

func sampleResponse() Response {
	return Response{
		ID:     42,
		Err:    "node 3: not found",
		Count:  17,
		Usage:  9 << 30,
		Dup:    []bool{true, false, true},
		Chunks: []ChunkWire{{FP: testFP(20), Size: 4, Data: []byte("data")}},
		Counts: []int64{2, 2, 5},
		Stats: node.Stats{
			LogicalBytes:  100,
			PhysicalBytes: 60,
			LogicalChunks: 25,
			UniqueChunks:  15,
			SuperChunks:   2,
			CacheHits:     7,
			DiskIndexHits: 3,
			Prefetches:    1,
		},
		GC: store.GCStats{
			StoredBytes:       1000,
			DeadBytes:         200,
			LiveBytes:         800,
			Containers:        4,
			RetiredContainers: 1,
			ReclaimedBytes:    150,
			CopiedBytes:       50,
			CompactRuns:       2,
		},
		Compacted: store.CompactResult{
			Scanned:          4,
			Rewritten:        1,
			Retired:          1,
			CopiedBytes:      50,
			ReclaimedBytes:   150,
			SkippedNoPayload: 1,
		},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	req := sampleRequest()
	enc := appendRequest(nil, &req)
	if want := requestSize(&req); len(enc) != want {
		t.Errorf("requestSize hint %d, encoded %d bytes", want, len(enc))
	}
	got, err := decodeRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	// Canonical comparison: re-encoding the decoded value must reproduce
	// the original bytes exactly (encoding is a pure function of the
	// message, so byte equality == semantic equality).
	if re := appendRequest(nil, &got); !bytes.Equal(re, enc) {
		t.Fatal("request did not survive the round trip")
	}
	if got.Stream != req.Stream || got.Op != req.Op || got.ID != req.ID {
		t.Fatalf("decoded header mismatch: %+v", got)
	}
	if got.Chunks[1].Data != nil {
		t.Fatal("fingerprint-only chunk decoded with non-nil Data")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := sampleResponse()
	enc := appendResponse(nil, &resp)
	if want := responseSize(&resp); len(enc) != want {
		t.Errorf("responseSize hint %d, encoded %d bytes", want, len(enc))
	}
	got, err := decodeResponse(enc)
	if err != nil {
		t.Fatal(err)
	}
	if re := appendResponse(nil, &got); !bytes.Equal(re, enc) {
		t.Fatal("response did not survive the round trip")
	}
	if got.Stats != resp.Stats || got.GC != resp.GC || got.Compacted != resp.Compacted {
		t.Fatalf("stats blocks mismatch: %+v", got)
	}
}

func TestAcksRoundTrip(t *testing.T) {
	for _, ids := range [][]uint64{nil, {7}, {1, 2, 3, 1 << 60}} {
		enc := appendAcks(nil, ids)
		got, err := decodeAcks(enc)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ids) {
			t.Fatalf("acks %v round-tripped to %v", ids, got)
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Fatalf("acks %v round-tripped to %v", ids, got)
			}
		}
	}
}

// vectoredResponse is a reply's encoding as the vectored sender lays it
// out: head, then each payload, then tail.
func vectoredResponse(resp *Response) []byte {
	b := appendResponseHead(nil, resp)
	for i := range resp.Chunks {
		b = append(b, resp.Chunks[i].Data...)
	}
	return appendResponseTail(b, resp)
}

// payloadReply is a payload-heavy ReadBatch reply: n chunks of size
// bytes each, tagged in reverse request order.
func payloadReply(n, size int) Response {
	resp := Response{ID: 77, Chunks: make([]ChunkWire, n), Idx: make([]uint32, n)}
	for i := range resp.Chunks {
		data := bytes.Repeat([]byte{byte(i)}, size)
		resp.Chunks[i] = ChunkWire{FP: testFP(byte(i)), Size: int32(size), Data: data}
		resp.Idx[i] = uint32(n - 1 - i)
	}
	return resp
}

// TestVectoredEncodingInvariant pins the contract both writev paths
// depend on: meta-then-concatenated-payloads (requests) and
// head-payloads-tail (responses) are byte-identical to the inline
// encoders, for payload-heavy, fingerprint-only and empty chunk lists
// alike — which is what keeps old and new peers interoperable.
func TestVectoredEncodingInvariant(t *testing.T) {
	errored := sampleResponse()
	errored.Chunks = nil
	resps := []Response{
		payloadReply(40, 4096),
		sampleResponse(),
		{ID: 3, Stats: sampleResponse().Stats, Usage: 5},
		errored,
	}
	for i, resp := range resps {
		if !bytes.Equal(appendResponse(nil, &resp), vectoredResponse(&resp)) {
			t.Fatalf("response %d: vectored layout diverges from inline encoding", i)
		}
	}

	reqs := []Request{
		sampleRequest(),
		{ID: 1, Op: OpFlush},
		{ID: 2, Op: OpQuery, Chunks: []ChunkWire{{FP: testFP(9), Size: 8}}},
	}
	for i, req := range reqs {
		inline := appendRequest(nil, &req)
		vectored := appendRequestMeta(nil, &req)
		for j := range req.Chunks {
			vectored = append(vectored, req.Chunks[j].Data...)
		}
		if !bytes.Equal(inline, vectored) {
			t.Fatalf("request %d: vectored layout diverges from inline encoding", i)
		}
	}
}

// TestDecodeTypedErrors: corrupt frames must fail with the wire
// package's sentinel errors so callers can errors.Is them — including
// after a TCP hop, where Call re-wraps but preserves the chain.
func TestDecodeTypedErrors(t *testing.T) {
	req := sampleRequest()
	enc := appendRequest(nil, &req)

	if _, err := decodeRequest(enc[:len(enc)-3]); !errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("truncated request: %v, want ErrTruncated or ErrMalformed", err)
	}
	if _, err := decodeRequest(append(append([]byte{}, enc...), 0xFF)); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("trailing byte: %v, want ErrMalformed", err)
	}
	if _, err := decodeRequest([]byte{frameResponse}); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("wrong kind: %v, want ErrMalformed", err)
	}
	if _, err := decodeAcks([]byte{frameAcks, 0xFF, 0xFF, 0xFF, 0xFF}); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("absurd ack count: %v, want ErrMalformed", err)
	}
	resp := sampleResponse()
	renc := appendResponse(nil, &resp)
	if _, err := decodeResponse(renc[:12]); !errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("truncated response: %v, want ErrTruncated or ErrMalformed", err)
	}
}

// FuzzFrame fuzzes the node-protocol frame decoders end to end: for an
// arbitrary body, decoding must never panic, and any body that decodes
// successfully must re-encode to a canonical byte string that decodes to
// the same message (encode∘decode is idempotent). The frame is also
// pushed through wire.WriteFrame/ReadFrame to fuzz the length-prefix
// layer together with the payload layer.
func FuzzFrame(f *testing.F) {
	req := sampleRequest()
	resp := sampleResponse()
	f.Add(appendRequest(nil, &req))
	f.Add(appendResponse(nil, &resp))
	reply := payloadReply(3, 700)
	f.Add(appendResponse(nil, &reply))
	f.Add(appendAcks(nil, []uint64{1, 2, 3}))
	f.Add(appendAcks(nil, nil))
	empty := Request{ID: 9, Op: OpStats}
	f.Add(appendRequest(nil, &empty))
	f.Add([]byte{})
	f.Add([]byte{frameRequest})
	f.Add([]byte{0xFF, 0, 1, 2})
	dreq, dreply, dmissing := dedupRequest(), dedupReply(), dedupMissingRequest()
	f.Add(appendRequest(nil, &dreq))
	f.Add(appendResponse(nil, &dreply))
	f.Add(appendRequest(nil, &dmissing))

	f.Fuzz(func(t *testing.T, body []byte) {
		// Layer 1: the length-prefixed frame transport round-trips any
		// body below the cap and rejects nothing it wrote itself.
		var buf bytes.Buffer
		if err := wire.WriteFrame(&buf, body); err != nil {
			t.Fatalf("WriteFrame(%d bytes): %v", len(body), err)
		}
		back, err := wire.ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !bytes.Equal(back, body) {
			t.Fatal("frame transport corrupted the body")
		}
		// A truncated frame must surface ErrTruncated, never hang or panic.
		if len(body) > 0 {
			var tr bytes.Buffer
			if err := wire.WriteFrame(&tr, body); err != nil {
				t.Fatal(err)
			}
			cut := tr.Bytes()[:tr.Len()-1]
			if _, err := wire.ReadFrame(bytes.NewReader(cut), 0); !errors.Is(err, wire.ErrTruncated) {
				t.Fatalf("truncated frame: %v, want ErrTruncated", err)
			}
		}

		// Layer 2: payload decoders, dispatched on the kind byte exactly
		// like the client and server read loops.
		if len(body) == 0 {
			return
		}
		switch body[0] {
		case frameRequest:
			msg, err := decodeRequest(body)
			if err != nil {
				return
			}
			canon := appendRequest(nil, &msg)
			again, err := decodeRequest(canon)
			if err != nil {
				t.Fatalf("re-decode of canonical request: %v", err)
			}
			if !bytes.Equal(appendRequest(nil, &again), canon) {
				t.Fatal("request canonical form is not a fixed point")
			}
		case frameResponse:
			msg, err := decodeResponse(body)
			if err != nil {
				return
			}
			canon := appendResponse(nil, &msg)
			if !bytes.Equal(vectoredResponse(&msg), canon) {
				t.Fatal("vectored reply layout diverges from the canonical response")
			}
			again, err := decodeResponse(canon)
			if err != nil {
				t.Fatalf("re-decode of canonical response: %v", err)
			}
			if !bytes.Equal(appendResponse(nil, &again), canon) {
				t.Fatal("response canonical form is not a fixed point")
			}
		case frameAcks:
			ids, err := decodeAcks(body)
			if err != nil {
				return
			}
			canon := appendAcks(nil, ids)
			again, err := decodeAcks(canon)
			if err != nil {
				t.Fatalf("re-decode of canonical acks: %v", err)
			}
			if fmt.Sprint(again) != fmt.Sprint(ids) {
				t.Fatal("acks canonical form is not a fixed point")
			}
		}
	})
}

func BenchmarkCodecEncodeRequest(b *testing.B) {
	req := sampleRequest()
	// Pad one chunk to a realistic 4KB payload.
	req.Chunks[0].Data = bytes.Repeat([]byte("x"), 4096)
	req.Chunks[0].Size = 4096
	buf := make([]byte, 0, requestSize(&req))
	b.SetBytes(int64(requestSize(&req)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendRequest(buf[:0], &req)
	}
}

func BenchmarkCodecDecodeRequest(b *testing.B) {
	req := sampleRequest()
	req.Chunks[0].Data = bytes.Repeat([]byte("x"), 4096)
	req.Chunks[0].Size = 4096
	enc := appendRequest(nil, &req)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeRequest(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecEncodeResponse(b *testing.B) {
	resp := sampleResponse()
	buf := make([]byte, 0, responseSize(&resp))
	b.SetBytes(int64(responseSize(&resp)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendResponse(buf[:0], &resp)
	}
}

func BenchmarkCodecDecodeResponse(b *testing.B) {
	resp := sampleResponse()
	enc := appendResponse(nil, &resp)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeResponse(enc); err != nil {
			b.Fatal(err)
		}
	}
}
