package fingerprint

import (
	"bytes"
	"crypto/sha1"
	"crypto/sha256"
	"math/rand"
	"testing"
)

// batchAlgorithms are the algorithms with a 16-lane kernel.
var batchAlgorithms = []Algorithm{SHA1, SHA256}

// eachBatchImpl runs f once per implementation of a's SumBatch this host
// has: the 16-lane kernel off (the loop over Sum: for SHA-1 on the
// one-lane kernel and without it) and on (alone, whatever the lane
// count, and handing the last messages of a batch to the one-lane path).
// SHA-1's subtests are named by SHA1.Impl, SHA-256's by sha256/ and what
// runs.
func eachBatchImpl(t *testing.T, a Algorithm, f func(t *testing.T)) {
	t.Helper()
	for _, x16 := range []bool{false, true} {
		for _, one := range []bool{false, true} {
			if a == SHA256 && !x16 && !one {
				continue // the loop over crypto/sha256 either way
			}
			restore := SetHashKernelsForTest(one, x16)
			name := a.Impl()
			if a == SHA256 {
				name = "sha256/" + name
				if one && x16 {
					name += "+handoff"
				}
			}
			t.Run(name, func(t *testing.T) {
				if x16 && !haveAVX512 || a == SHA1 && one && !haveSHANI {
					t.Skip("kernel not on this CPU / in this build")
				}
				f(t)
			})
			restore()
		}
	}
}

// stdlibSum is the fingerprint the Go standard library computes.
func stdlibSum(a Algorithm, b []byte) Fingerprint {
	if a == SHA256 {
		d := sha256.Sum256(b)
		return Fingerprint(d[:Size])
	}
	return sha1.Sum(b)
}

// checkSumBatch compares a's SumBatch with the standard library message
// by message and checks that nothing past len(bufs) is written.
func checkSumBatch(t *testing.T, a Algorithm, bufs [][]byte) {
	t.Helper()
	out := make([]Fingerprint, len(bufs)+1)
	guard := Fingerprint{0xee}
	out[len(bufs)] = guard
	a.SumBatch(bufs, out)
	for i, b := range bufs {
		if want := stdlibSum(a, b); out[i] != want {
			t.Fatalf("%s %s: message %d of %d (%d bytes) = %s, want %s", a, a.Impl(), i, len(bufs), len(b), out[i], want)
		}
	}
	if out[len(bufs)] != guard {
		t.Fatalf("%s %s: SumBatch of %d messages wrote out[%d]", a, a.Impl(), len(bufs), len(bufs))
	}
}

// batchOf builds the messages shape describes, two bytes each, at most
// 40: up to 188 whole blocks, then a tail biased to the padding edges —
// the last length that pads within its block, the first that spills into
// a second, a full block, once in the first block and once in the second
// — each at one of 16 alignments of seeded random content.
func batchOf(shape []byte, seed int64) [][]byte {
	tails := [8]int{55, 56, 63, 64, 119, 120, 0, 0}
	rng := rand.New(rand.NewSource(seed))
	var bufs [][]byte
	for i := 0; i+1 < len(shape) && len(bufs) < 40; i += 2 {
		v := int(shape[i])<<8 | int(shape[i+1])
		tail := tails[v&7]
		if v&7 >= 6 {
			tail = v >> 3 & 63
		}
		n := min(64*(v>>4%189)+tail, 12<<10)
		off := rng.Intn(16)
		b := make([]byte, off+n)
		rng.Read(b)
		bufs = append(bufs, b[off:])
	}
	return bufs
}

func TestSumBatchMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var batches [][][]byte
	for n := 0; n <= 40; n++ {
		shape := make([]byte, 2*n)
		rng.Read(shape)
		batches = append(batches, batchOf(shape, int64(n)))
	}
	// 4KB chunks, equal and in step; one long message among short ones
	// (its lane runs on alone, then as a straggler); all empty.
	equal, straggler := make([]byte, 2*32), []byte{0xff, 0xf2}
	for i := 0; i < 32; i++ {
		equal[2*i], equal[2*i+1] = 0x04, 0x06 // 64 blocks, no tail
		straggler = append(straggler, 0x00, byte(i%6))
	}
	batches = append(batches, batchOf(equal, 41), batchOf(straggler, 42), batchOf(bytes.Repeat([]byte{0x00, 0x06}, 20), 43))
	// FastCDC-like lengths, 2-64KB and every tail, so lanes finish at
	// different passes and the hand-off finds lanes in their data, in
	// the first block of a two-block padding and in the second.
	for seed := int64(0); seed < 4; seed++ {
		var mixed [][]byte
		for i := 0; i < 40; i++ {
			b := make([]byte, 2<<10+rng.Intn(62<<10))
			rng.Read(b)
			mixed = append(mixed, b)
		}
		batches = append(batches, mixed)
	}
	for _, a := range batchAlgorithms {
		eachBatchImpl(t, a, func(t *testing.T) {
			for _, bufs := range batches {
				checkSumBatch(t, a, bufs)
			}
		})
	}
	// MD5 loops over Sum.
	bufs := batches[40]
	out := make([]Fingerprint, len(bufs))
	MD5.SumBatch(bufs, out)
	for i, b := range bufs {
		if out[i] != MD5.Sum(b) {
			t.Fatalf("md5: SumBatch message %d differs from Sum", i)
		}
	}
}

func TestSumBatchGolden(t *testing.T) {
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(i)
	}
	msgs := [][]byte{
		nil,
		[]byte("abc"),
		[]byte("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
		bytes.Repeat([]byte{'a'}, 1000000),
		page,
	}
	// FIPS 180-4's example digests (SHA-256's truncated to Size), and a
	// 4096-byte page of 0, 1, 2, ….
	golden := map[Algorithm][]string{
		SHA1: {
			"da39a3ee5e6b4b0d3255bfef95601890afd80709",
			"a9993e364706816aba3e25717850c26c9cd0d89d",
			"84983e441c3bd26ebaae4aa1f95129e5e54670f1",
			"34aa973cd4c4daa4f61eeb2bdbad27316534016f",
			"e9dded8c84614e894501965af60c2525794a8c7d",
		},
		SHA256: {
			"e3b0c44298fc1c149afbf4c8996fb92427ae41e4",
			"ba7816bf8f01cfea414140de5dae2223b00361a3",
			"248d6a61d20638b8e5c026930c3e6039a33ce459",
			"cdc76e5c9914fb9281a1c7e284d73e67f1809a48",
			"c8f5d0341d54d951a71b136e6e2afcb14d11ed84",
		},
	}
	// Each vector alone, and all of them in rotation over 18 lanes (two
	// more messages than lanes).
	var bufs [][]byte
	for i := 0; i < 18; i++ {
		bufs = append(bufs, msgs[i%len(msgs)])
	}
	for _, a := range batchAlgorithms {
		eachBatchImpl(t, a, func(t *testing.T) {
			for i, msg := range msgs {
				var out [1]Fingerprint
				if a.SumBatch([][]byte{msg}, out[:]); out[0].String() != golden[a][i] {
					t.Errorf("%s(%.20q…, %d bytes) = %s, want %s", a, msg, len(msg), out[0], golden[a][i])
				}
			}
			out := make([]Fingerprint, len(bufs))
			a.SumBatch(bufs, out)
			for i, fp := range out {
				if want := golden[a][i%len(msgs)]; fp.String() != want {
					t.Errorf("lane %d: %s(%d bytes) = %s, want %s", i, a, len(bufs[i]), fp, want)
				}
			}
		})
	}
}

func FuzzSumBatch(f *testing.F) {
	f.Add([]byte{}, int64(0))
	f.Add([]byte{0x04, 0x06, 0x04, 0x06, 0x04, 0x06, 0x04, 0x06, 0x04, 0x06}, int64(1))
	f.Add(bytes.Repeat([]byte{0x10, 0x01}, 40), int64(2))
	f.Add(append([]byte{0xff, 0xf2}, bytes.Repeat([]byte{0x00, 0x03}, 15)...), int64(3))
	f.Fuzz(func(t *testing.T, shape []byte, seed int64) {
		bufs := batchOf(shape, seed)
		for _, a := range batchAlgorithms {
			eachBatchImpl(t, a, func(t *testing.T) { checkSumBatch(t, a, bufs) })
		}
	})
}
