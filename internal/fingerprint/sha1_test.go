package fingerprint

import (
	"bytes"
	"crypto/sha1"
	"math/rand"
	"testing"
)

// eachSHA1Impl runs f once per implementation of Sum by flipping the
// selector, so the portable path stays tested on SHA-NI hosts; the kernel
// is skipped, not failed, where the CPU or the build lacks it.
func eachSHA1Impl(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, ni := range []bool{false, true} {
		restore := SetSHA1KernelsForTest(ni, false)
		t.Run(SHA1Impl(), func(t *testing.T) {
			if ni && !haveSHANI {
				t.Skip("no SHA extensions on this CPU / in this build")
			}
			f(t)
		})
		restore()
	}
}

// eachBatchImpl is eachSHA1Impl for SumBatch: the 16-lane kernel off and
// on, each with and without the one-lane kernel (which also finishes the
// 16-lane kernel's stragglers).
func eachBatchImpl(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, x16 := range []bool{false, true} {
		for _, ni := range []bool{false, true} {
			restore := SetSHA1KernelsForTest(ni, x16)
			t.Run(SHA1Impl(), func(t *testing.T) {
				if ni && !haveSHANI || x16 && !haveAVX512 {
					t.Skip("kernel not on this CPU / in this build")
				}
				f(t)
			})
			restore()
		}
	}
}

// checkSumBatch compares SumBatch with crypto/sha1 message by message and
// checks that nothing past len(bufs) is written.
func checkSumBatch(t *testing.T, bufs [][]byte) {
	t.Helper()
	out := make([]Fingerprint, len(bufs)+1)
	guard := Fingerprint{0xee}
	out[len(bufs)] = guard
	SHA1.SumBatch(bufs, out)
	for i, b := range bufs {
		if want := Fingerprint(sha1.Sum(b)); out[i] != want {
			t.Fatalf("%s: message %d of %d (%d bytes) = %s, want %s", SHA1Impl(), i, len(bufs), len(b), out[i], want)
		}
	}
	if out[len(bufs)] != guard {
		t.Fatalf("%s: SumBatch of %d messages wrote out[%d]", SHA1Impl(), len(bufs), len(bufs))
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
	var shapes [][]byte
	for n := 0; n <= 40; n++ {
		shape := make([]byte, 2*n)
		rng.Read(shape)
		shapes = append(shapes, shape)
	}
	// 4KB chunks, equal and in step; one long message among short ones
	// (its lane runs on alone, then as a straggler); all empty.
	equal, straggler := make([]byte, 2*32), []byte{0xff, 0xf2}
	for i := 0; i < 32; i++ {
		equal[2*i], equal[2*i+1] = 0x04, 0x06 // 64 blocks, no tail
		straggler = append(straggler, 0x00, byte(i%6))
	}
	shapes = append(shapes, equal, straggler, bytes.Repeat([]byte{0x00, 0x06}, 20))
	eachBatchImpl(t, func(t *testing.T) {
		for i, shape := range shapes {
			checkSumBatch(t, batchOf(shape, int64(i)))
		}
	})
	// The other algorithms loop over Sum.
	bufs := batchOf(shapes[40], 40)
	out := make([]Fingerprint, len(bufs))
	for _, a := range []Algorithm{MD5, SHA256} {
		a.SumBatch(bufs, out)
		for i, b := range bufs {
			if out[i] != a.Sum(b) {
				t.Fatalf("%s: SumBatch message %d differs from Sum", a, i)
			}
		}
	}
}

func TestSumBatchGolden(t *testing.T) {
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(i)
	}
	golden := []struct {
		msg    []byte
		digest string
	}{
		{nil, "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
		{[]byte("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d"},
		{[]byte("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"), "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
		{page, "e9dded8c84614e894501965af60c2525794a8c7d"},
	}
	// Each vector alone, and all of them in rotation over 18 lanes (two
	// more messages than lanes).
	var bufs [][]byte
	for i := 0; i < 18; i++ {
		bufs = append(bufs, golden[i%len(golden)].msg)
	}
	eachBatchImpl(t, func(t *testing.T) {
		for _, g := range golden {
			var out [1]Fingerprint
			if SHA1.SumBatch([][]byte{g.msg}, out[:]); out[0].String() != g.digest {
				t.Errorf("SHA-1(%.20q…, %d bytes) = %s, want %s", g.msg, len(g.msg), out[0], g.digest)
			}
		}
		out := make([]Fingerprint, len(bufs))
		SHA1.SumBatch(bufs, out)
		for i, fp := range out {
			if g := golden[i%len(golden)]; fp.String() != g.digest {
				t.Errorf("lane %d: SHA-1(%.20q…, %d bytes) = %s, want %s", i, g.msg, len(g.msg), fp, g.digest)
			}
		}
	})
}

func FuzzSumBatch(f *testing.F) {
	f.Add([]byte{}, int64(0))
	f.Add([]byte{0x04, 0x06, 0x04, 0x06, 0x04, 0x06, 0x04, 0x06, 0x04, 0x06}, int64(1))
	f.Add(bytes.Repeat([]byte{0x10, 0x01}, 40), int64(2))
	f.Add(append([]byte{0xff, 0xf2}, bytes.Repeat([]byte{0x00, 0x03}, 15)...), int64(3))
	f.Fuzz(func(t *testing.T, shape []byte, seed int64) {
		bufs := batchOf(shape, seed)
		eachBatchImpl(t, func(t *testing.T) { checkSumBatch(t, bufs) })
	})
}

func checkSHA1(t *testing.T, data []byte) {
	t.Helper()
	if got, want := SHA1.Sum(data), sha1.Sum(data); got != Fingerprint(want) {
		t.Fatalf("%s: Sum(%d bytes) = %s, want %x", SHA1Impl(), len(data), got, want)
	}
}

func TestSHA1KernelMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 5<<20+16)
	rng.Read(buf)
	eachSHA1Impl(t, func(t *testing.T) {
		// Every length across the padding edges of 128 blocks, at every
		// source alignment the unaligned loads can see.
		for off := 0; off < 16; off++ {
			for n := 0; n <= 8192; n++ {
				checkSHA1(t, buf[off:off+n])
			}
		}
		for _, n := range []int{1<<20 - 1, 1 << 20, 3<<20 + 55, 5 << 20} {
			checkSHA1(t, buf[7:7+n])
		}
		// FIPS 180 example vectors.
		for _, v := range []struct{ msg, digest string }{
			{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
			{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq", "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
			{string(bytes.Repeat([]byte{'a'}, 1000000)), "34aa973cd4c4daa4f61eeb2bdbad27316534016f"},
		} {
			if got := SHA1.Sum([]byte(v.msg)).String(); got != v.digest {
				t.Errorf("SHA-1(%.20q…, %d bytes) = %s, want %s", v.msg, len(v.msg), got, v.digest)
			}
		}
	})
}

func FuzzSHA1Kernel(f *testing.F) {
	// The padding edges: the last length that pads within its block, the
	// first that spills into a second one, and a full block — once in the
	// first block and once in the second.
	for _, n := range []int{0, 1, 55, 56, 63, 64, 119, 120, 127, 128} {
		f.Add(bytes.Repeat([]byte{0xa5}, n), uint8(n))
	}
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		// Re-home the input at one of 16 alignments.
		shifted := append(make([]byte, off%16), data...)[off%16:]
		eachSHA1Impl(t, func(t *testing.T) { checkSHA1(t, shifted) })
	})
}
