package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/wire"
)

func testFP(seed byte) fingerprint.Fingerprint {
	var fp fingerprint.Fingerprint
	for i := range fp {
		fp[i] = seed + byte(i)*7
	}
	return fp
}

// TestRequestRoundTrip: every verb's sample argument survives encode →
// decode, and re-encoding the decoded frame reproduces it byte for byte
// (encoding is a pure function of the message, so byte equality is
// semantic equality).
func TestRequestRoundTrip(t *testing.T) {
	for _, s := range samples {
		if err := s.roundTrip(); err != nil {
			t.Fatalf("op %d: %v", s.op, err)
		}
		r := wire.NewReader(s.request)
		if _, _, _, err := decodeRequestHeader(r); err != nil {
			t.Fatal(err)
		}
		arg := s.request[len(s.request)-r.Len():]
		if re, err := s.args(r); err != nil || !bytes.Equal(re, arg) {
			t.Fatalf("op %d: argument is not a fixed point (%v)", s.op, err)
		}
	}
}

// TestResponseRoundTrip is TestRequestRoundTrip for every verb's result.
func TestResponseRoundTrip(t *testing.T) {
	for _, s := range samples {
		r := wire.NewReader(s.reply)
		r.U8()
		r.U64()
		r.Bytes() // the error
		res := s.reply[len(s.reply)-r.Len():]
		if re, err := s.result(r); err != nil || !bytes.Equal(re, res) {
			t.Fatalf("op %d: result is not a fixed point (%v)", s.op, err)
		}
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

// payloadChunks is n chunks of size bytes each.
func payloadChunks(n, size int) []core.ChunkRef {
	chunks := make([]core.ChunkRef, n)
	for i := range chunks {
		chunks[i] = core.ChunkRef{FP: testFP(byte(i)), Size: size, Data: bytes.Repeat([]byte{byte(i)}, size)}
	}
	return chunks
}

// TestVectoredEncodingInvariant pins the contract the writev path
// depends on, for every payload-bearing verb's walks: the chunk list is
// the message's last field, so the encoded head followed by the payloads
// is the message (whole), which the samples' round trips decode; a
// message under vectoredMin leaves frame with the payloads joined, a
// larger one with them apart, and writeVectored puts the length prefix
// and exactly those bytes on the wire.
func TestVectoredEncodingInvariant(t *testing.T) {
	big := scArgs{"s", nil, payloadChunks(40, 4096)}
	bigReply := readReply{make([]uint32, 40), big.chunks}
	msgs := []func(*coder){
		func(x *coder) { storeChunks.args(x, &big) },
		func(x *coder) { dedup.args(x, &big) },
		func(x *coder) { dedupMissing.args(x, &big) },
		func(x *coder) { readBatch.result(x, &bigReply) },
	}
	for _, s := range samples {
		if s.class&payloads != 0 {
			msgs = append(msgs, s.walks[:]...)
		}
	}
	var v wire.VecWriter
	var buf bytes.Buffer
	for i, walk := range msgs {
		for round := 0; round < 2; round++ { // twice: the writer's scratch is reused
			x := coder{b: make([]byte, 4)}
			walk(&x)
			want := whole(&x)[4:]
			body, pays := x.frame()
			if big := payloadSize(x.payloads) >= vectoredMin; big != (pays != nil) {
				t.Fatalf("message %d: %d payload bytes, sent apart: %v", i, payloadSize(x.payloads), pays != nil)
			}
			if err := writeVectored(&v, &buf, body, pays); err != nil {
				t.Fatal(err)
			}
			got, err := wire.ReadFrame(&buf, 0)
			if err != nil {
				t.Fatal(err)
			}
			if buf.Len() != 0 || !bytes.Equal(got, want) {
				t.Fatalf("message %d: the vectored frame is not the length prefix plus the message", i)
			}
		}
	}
}

// TestDecodeTypedErrors: corrupt frames must fail with the wire
// package's sentinel errors so callers can errors.Is them.
func TestDecodeTypedErrors(t *testing.T) {
	for _, s := range samples {
		r := wire.NewReader(s.request)
		if _, _, _, err := decodeRequestHeader(r); err != nil {
			t.Fatal(err)
		}
		arg := s.request[len(s.request)-r.Len():]
		if len(arg) > 0 {
			if _, err := s.args(wire.NewReader(arg[:len(arg)-1])); !errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrMalformed) {
				t.Fatalf("op %d, truncated argument: %v, want ErrTruncated or ErrMalformed", s.op, err)
			}
		}
		if _, err := s.args(wire.NewReader(append(append([]byte{}, arg...), 0xFF))); !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("op %d, trailing byte: %v, want ErrMalformed", s.op, err)
		}
	}
	if _, _, _, err := decodeRequestHeader(wire.NewReader([]byte{frameResponse})); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("wrong kind: %v, want ErrMalformed", err)
	}
	if _, err := decodeAcks([]byte{frameAcks, 0xFF, 0xFF, 0xFF, 0xFF}); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("absurd ack count: %v, want ErrMalformed", err)
	}
	huge := wire.AppendU32(nil, 0x7FFFFFFF) // a chunk count no body holds
	if _, err := recode((*coder).chunks)(wire.NewReader(huge)); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("absurd chunk count: %v, want ErrMalformed", err)
	}
}

// FuzzFrame fuzzes the frame decoders end to end: for an arbitrary body,
// decoding must never panic, and a request whose argument, or a reply
// whose result under any verb's walk, decodes must re-encode to a
// canonical byte string that decodes to the same message (encode∘decode
// is idempotent). The frame is also pushed through wire.WriteFrame and
// ReadFrame to fuzz the length-prefix layer with the payload layer.
func FuzzFrame(f *testing.F) {
	for _, s := range samples {
		f.Add(s.request)
		f.Add(s.reply)
	}
	f.Add(appendAcks(nil, []uint64{1, 2, 3}))
	f.Add(appendAcks(nil, nil))
	f.Add([]byte{})
	f.Add([]byte{frameRequest})
	f.Add([]byte{0xFF, 0, 1, 2})

	byOp := map[opcode]sample{}
	for _, s := range samples {
		byOp[s.op] = s
	}
	fixedPoint := func(t *testing.T, what string, recode func(*wire.Reader) ([]byte, error), body []byte) {
		canon, err := recode(wire.NewReader(body))
		if err != nil {
			return
		}
		again, err := recode(wire.NewReader(canon))
		if err != nil {
			t.Fatalf("%s: re-decode of the canonical form: %v", what, err)
		}
		if !bytes.Equal(again, canon) {
			t.Fatalf("%s: the canonical form is not a fixed point", what)
		}
	}
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

		// Layer 2: the walks, dispatched on the kind byte like the client
		// and server read loops; a reply names no op, so every verb's
		// result walk tries it.
		if len(body) == 0 {
			return
		}
		r := wire.NewReader(body)
		switch body[0] {
		case frameRequest:
			if _, op, _, err := decodeRequestHeader(r); err == nil {
				if s, ok := byOp[op]; ok {
					fixedPoint(t, fmt.Sprintf("op %d argument", op), s.args, body[len(body)-r.Len():])
				}
			}
		case frameResponse:
			r.U8()
			r.U64()
			r.Bytes() // the error
			if r.Err() != nil {
				return
			}
			for _, s := range samples {
				fixedPoint(t, fmt.Sprintf("op %d result", s.op), s.result, body[len(body)-r.Len():])
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

// benchArgs is a Dedup argument with one 4 KB payload among three chunks
// under a three-fingerprint handprint.
func benchArgs() scArgs {
	return scArgs{"client-a/backup-7", []fingerprint.Fingerprint{testFP(1), testFP(2), testFP(3)}, []core.ChunkRef{
		{FP: testFP(10), Size: 4096, Data: bytes.Repeat([]byte("x"), 4096)},
		{FP: testFP(11), Size: 9},
		{FP: testFP(12), Size: 3, Data: []byte{0, 1, 2}},
	}}
}

func BenchmarkCodecEncodeRequest(b *testing.B) {
	a := benchArgs()
	x := coder{b: make([]byte, 0, 8192)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.b = appendRequestHeader(x.b[:0], 42, dedup.op, 1500)
		dedup.args(&x, &a)
		x.frame()
	}
	b.SetBytes(int64(len(x.b)))
}

func BenchmarkCodecDecodeRequest(b *testing.B) {
	a := benchArgs()
	x := coder{b: appendRequestHeader(nil, 42, dedup.op, 1500)}
	dedup.args(&x, &a)
	enc := whole(&x)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := wire.NewReader(enc)
		decodeRequestHeader(r)
		var got scArgs
		d := coder{r: r}
		dedup.args(&d, &got)
		if err := d.done(); err != nil {
			b.Fatal(err)
		}
	}
}

// The reply benchmarks walk a Dedup reply of 256 verdicts, the ingest
// path's one reply with a body.
func BenchmarkCodecEncodeResponse(b *testing.B) {
	dup := make([]bool, 256)
	x := coder{b: make([]byte, 0, 1024)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.b = appendResponseHeader(x.b[:0], 42, "")
		dedup.result(&x, &dup)
	}
	b.SetBytes(int64(len(x.b)))
}

func BenchmarkCodecDecodeResponse(b *testing.B) {
	dup := make([]bool, 256)
	x := coder{b: appendResponseHeader(nil, 42, "")}
	dedup.result(&x, &dup)
	b.SetBytes(int64(len(x.b)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := wire.NewReader(x.b)
		r.U8()
		r.U64()
		r.Bytes() // the error
		var got []bool
		d := coder{r: r}
		dedup.result(&d, &got)
		if err := d.done(); err != nil {
			b.Fatal(err)
		}
	}
}
