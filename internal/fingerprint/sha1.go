// Delete sha1.go, sha1_amd64.go, sha1_amd64.s and sha1_noasm.go when go.mod
// reaches 1.25: that release's crypto/sha1 runs on the SHA extensions
// itself, and Algorithm.Sum goes back to calling sha1.Sum directly.
//
// go1.24's crypto/sha1 tops out at its AVX2 code (blockAVX2) even on a CPU
// that advertises sha_ni — half the speed crypto/sha256 reaches on the
// same core through those extensions. The kernel in sha1_amd64.s is the
// SHA-1 counterpart, four rounds per instruction; it is chosen by CPUID and
// nothing else, and crypto/sha1 stays the path everywhere it cannot run.

package fingerprint

import "crypto/sha1"

// sha1NI says SHA-1 runs on the SHA-extensions kernel. Set once, here;
// only the tests flip it, to pin both implementations on one host.
var sha1NI = haveSHANI

func sumSHA1(data []byte) [Size]byte {
	if sha1NI {
		return sumSHANI(data)
	}
	return sha1.Sum(data)
}

// SHA1Impl names the SHA-1 implementation behind Algorithm.Sum in this
// process: "sha-ni" (the SHA-extensions kernel) or "stdlib" (crypto/sha1).
func SHA1Impl() string {
	if sha1NI {
		return "sha-ni"
	}
	return "stdlib"
}
