// Delete sha1_amd64.go, sha1_amd64.s and sha1_noasm.go when go.mod reaches
// 1.25: that release's crypto/sha1 runs on the SHA extensions itself, and
// sumSHA1 goes back to calling sha1.Sum directly.
//
// go1.24's crypto/sha1 tops out at its AVX2 code (blockAVX2) even on a CPU
// that advertises sha_ni — half the speed crypto/sha256 reaches on the
// same core through those extensions. The kernel in sha1_amd64.s is the
// SHA-1 counterpart, four rounds per instruction; it is chosen by CPUID and
// nothing else, and crypto/sha1 stays the path everywhere it cannot run.
//
// The 16-lane AVX-512 kernel (sha1x16_amd64.s, sha1x16_amd64.go) stays
// after 1.25: crypto/sha1 hashes one message at a time, and one message is
// a serial chain of rounds that SHA1RNDS4 already runs at its throughput
// bound (two interleaved SHA-NI streams gain ×1.08). Sixteen independent
// chunks, one per 32-bit lane, are what 512-bit ALUs can run in parallel.
// When the one-lane kernel goes, sumX16 loses its straggler step: the last
// few messages of a batch either stay on the 16-lane kernel or resume on
// crypto/sha1 from their lane state (its digest's BinaryUnmarshaler takes
// one).

package fingerprint

import "crypto/sha1"

// sha1NI says SHA-1 runs on the SHA-extensions kernel; sha1X16 that a
// batch of at least x16MinLanes runs on the 16-lane kernel. Set once, here,
// from CPUID; only SetSHA1KernelsForTest flips them.
var (
	sha1NI  = haveSHANI
	sha1X16 = haveAVX512
)

// x16MinLanes is the fewest messages worth a 16-lane pass: on the
// benchmark host (Xeon, Sapphire Rapids) a pass costs ≈190 ns per block
// however many lanes are busy, the one-lane SHA-NI kernel ≈45 ns per
// block. BenchmarkSumBatch at four 4KB lanes reads 1410 MB/s for the
// 16-lane kernel against 1393 for SHA-NI — even — so from five on.
const x16MinLanes = 5

func sumSHA1(data []byte) [Size]byte {
	if sha1NI {
		return sumSHANI(data)
	}
	return sha1.Sum(data)
}

func sumSHA1Batch(bufs [][]byte, out []Fingerprint) {
	if sha1X16 && len(bufs) >= x16MinLanes {
		sumX16(bufs, out)
		return
	}
	for i, b := range bufs {
		out[i] = sumSHA1(b)
	}
}

// SHA1Impl names the SHA-1 implementation in this process: "sha-ni" (the
// SHA-extensions kernel behind Algorithm.Sum) or "stdlib" (crypto/sha1),
// followed by "+avx512x16" where Algorithm.SumBatch runs the 16-lane
// AVX-512 kernel.
func SHA1Impl() string {
	impl := "stdlib"
	if sha1NI {
		impl = "sha-ni"
	}
	if sha1X16 {
		impl += "+avx512x16"
	}
	return impl
}

// SetSHA1KernelsForTest restricts SHA-1 to the kernels named — ni, the
// one-lane SHA-extensions kernel; x16, the 16-lane batch kernel — so that
// tests cover every implementation on one host, and returns the function
// restoring the previous choice. A kernel the CPU or the build lacks stays
// off. Not safe to call while anything hashes.
func SetSHA1KernelsForTest(ni, x16 bool) (restore func()) {
	savedNI, savedX16 := sha1NI, sha1X16
	sha1NI, sha1X16 = ni && haveSHANI, x16 && haveAVX512
	return func() { sha1NI, sha1X16 = savedNI, savedX16 }
}
