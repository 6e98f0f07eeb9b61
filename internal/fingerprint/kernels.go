// Which kernel hashes: the selectors, set once from CPUID, and the lane
// counts where the 16-lane kernels start to pay.
//
// Delete sha1_amd64.go, sha1_amd64.s and sha1_noasm.go when go.mod
// reaches 1.25: that release's crypto/sha1 runs on the SHA extensions
// itself, and sumSHA1 goes back to calling sha1.Sum directly.
//
// go1.24's crypto/sha1 tops out at its AVX2 code (blockAVX2) even on a CPU
// that advertises sha_ni — half the speed crypto/sha256 reaches on the
// same core through those extensions. The kernel in sha1_amd64.s is the
// SHA-1 counterpart, four rounds per instruction; it is chosen by CPUID and
// nothing else, and crypto/sha1 stays the path everywhere it cannot run.
//
// The 16-lane AVX-512 kernels (sha1x16_amd64.s, sha256x16_amd64.s, the
// scheduler in x16_amd64.go) stay after 1.25: crypto/sha1 and
// crypto/sha256 hash one message at a time, and one message is a serial
// chain of rounds that SHA1RNDS4 and SHA256RNDS2 already run at their
// throughput bound (two interleaved SHA-NI streams gain ×1.08). Sixteen
// independent chunks, one per 32-bit lane, are what 512-bit ALUs can run
// in parallel. When the one-lane SHA-1 kernel goes, the scheduler's SHA-1
// stragglers resume on crypto/sha1 from their lane state the way SHA-256's
// already resume on crypto/sha256 (blockSHA256: the digest's
// BinaryUnmarshaler takes the state, AppendBinary gives it back).

package fingerprint

import "crypto/sha1"

// sha1NI says SHA-1 runs on the SHA-extensions kernel — Sum, and the last
// few messages of a 16-lane batch; sha256HandOff that the last few
// messages of a 16-lane SHA-256 batch finish on crypto/sha256; x16 that a
// batch of at least the algorithm's minimum runs on its 16-lane kernel.
// Set once, here, from CPUID; only SetHashKernelsForTest flips them.
var (
	sha1NI        = haveSHANI
	sha256HandOff = true
	x16           = haveAVX512
)

// x16MinLanes is the fewest SHA-1 messages worth a 16-lane pass: on the
// benchmark host (Xeon, Sapphire Rapids) a pass costs ≈190 ns per block
// however many lanes are busy, the one-lane SHA-NI kernel ≈45 ns per
// block. BenchmarkSumBatch at four 4KB lanes reads 1410 MB/s for the
// 16-lane kernel against 1393 for SHA-NI — even — so from five on.
const x16MinLanes = 5

// x16MinLanesSHA256 is x16MinLanes for SHA-256: a pass costs ≈370 ns
// per block, about twice SHA-1's (19 vector ops per round and 11 per
// schedule step against 8 and 3), crypto/sha256's SHA-NI code ≈46 ns.
// BenchmarkSumBatch at eight 4KB lanes reads 1335-1383 MB/s for the
// 16-lane kernel against 1336-1370 for crypto/sha256 — even — so from
// nine on. Over FastCDC 8KB lengths (2-64KB tails finishing at different
// passes) the threshold barely matters: 4 / 8 / 12 read 2116 / 2251 /
// 2285 MB/s on batches of 32.
const x16MinLanesSHA256 = 9

func sumSHA1(data []byte) [Size]byte {
	if sha1NI {
		return sumSHANI(data)
	}
	return sha1.Sum(data)
}

// Impl names the implementation of a in this process: "sha-ni" (SHA-1 on
// the SHA-extensions kernel behind Algorithm.Sum) or "stdlib" (the Go
// standard library's, which for SHA-256 uses the SHA extensions itself),
// followed by "+avx512x16" where Algorithm.SumBatch runs a's 16-lane
// AVX-512 kernel.
func (a Algorithm) Impl() string {
	impl := "stdlib"
	if a != MD5 && a != SHA256 && sha1NI {
		impl = "sha-ni"
	}
	if a != MD5 && x16 {
		impl += "+avx512x16"
	}
	return impl
}

// SetHashKernelsForTest restricts hashing to the kernels named — one, the
// one-lane paths (SHA-1's SHA-extensions kernel, and the hand-off of a
// 16-lane batch's last messages to it or to crypto/sha256); x16, the
// 16-lane batch kernels of both algorithms — so that tests cover every
// implementation on one host, and returns the function restoring the
// previous choice. A kernel the CPU or the build lacks stays off. Not
// safe to call while anything hashes.
func SetHashKernelsForTest(one, x16Lanes bool) (restore func()) {
	savedNI, savedHandOff, savedX16 := sha1NI, sha256HandOff, x16
	sha1NI, sha256HandOff, x16 = one && haveSHANI, one, x16Lanes && haveAVX512
	return func() { sha1NI, sha256HandOff, x16 = savedNI, savedHandOff, savedX16 }
}
