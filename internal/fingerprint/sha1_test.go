package fingerprint

import (
	"bytes"
	"crypto/sha1"
	"math/rand"
	"testing"
)

// eachSHA1Impl runs f once per SHA-1 implementation by flipping the
// selector, so the portable path stays tested on SHA-NI hosts; the kernel
// is skipped, not failed, where the CPU or the build lacks it.
func eachSHA1Impl(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	saved := sha1NI
	defer func() { sha1NI = saved }()
	for _, ni := range []bool{false, true} {
		sha1NI = ni
		t.Run(SHA1Impl(), func(t *testing.T) {
			if ni && !haveSHANI {
				t.Skip("no SHA extensions on this CPU / in this build")
			}
			f(t)
		})
	}
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
