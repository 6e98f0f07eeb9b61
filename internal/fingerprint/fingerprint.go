// Package fingerprint provides chunk fingerprints and the cryptographic
// hashing primitives used throughout the Σ-Dedupe system.
//
// A fingerprint is a fixed 20-byte value. SHA-1 fingerprints use the digest
// directly; MD5 fingerprints occupy the first 16 bytes with a zero tail.
// Both behave as approximately min-wise independent hash families, which is
// the property the handprinting technique in package core relies on
// (Broder's theorem, paper §2.2).
package fingerprint

import (
	"bytes"
	"crypto/md5"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Size is the length of a fingerprint in bytes.
const Size = 20

// Fingerprint is a 20-byte content hash of a chunk.
type Fingerprint [Size]byte

// Algorithm selects the cryptographic hash used for fingerprinting.
type Algorithm int

// Supported fingerprinting algorithms. SHA-1 is the paper's default choice
// (lower collision probability); MD5 was roughly 2x faster in the paper's
// era (Fig. 4a). SHA256 truncates a SHA-256 digest to the 20-byte
// fingerprint and is the recommended choice for its collision resistance.
// Chunk by chunk, speed is no longer an argument between the two SHAs: at
// 4KB chunks on this repository's benchmark host (2.1GHz Xeon, Sapphire
// Rapids, with the SHA extensions and AVX-512; go1.24; BenchmarkSum*_4KB,
// medians of five in one session) SHA-256 runs at 1256 MB/s, SHA-1 at
// 1417 MB/s on the kernel of sha1_amd64.s (782 MB/s on crypto/sha1's AVX2
// code, which is what runs without the extensions) and MD5 at 579 MB/s.
// The host drifts by a fifth between sessions (earlier ones read 1257 /
// 1307 / 664 / 597 and 1178 / 1086 / 552 / 538); the ratios hold. In
// batches SHA-1 pulls ahead: SumBatch runs sixteen chunks per pass on the
// AVX-512 kernel of sha1x16_amd64.s, 5350 MB/s at sixteen 4KB chunks in
// the same session (BenchmarkSumBatch), ×3.8 the one-lane kernel; at four
// chunks the two break even. SHA-256 and MD5 have no batch kernel.
const (
	SHA1 Algorithm = iota + 1
	MD5
	SHA256
)

// String returns the conventional lowercase name of the algorithm.
func (a Algorithm) String() string {
	switch a {
	case SHA1:
		return "sha1"
	case MD5:
		return "md5"
	case SHA256:
		return "sha256"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// Sum computes the fingerprint of data using algorithm a.
func (a Algorithm) Sum(data []byte) Fingerprint {
	var fp Fingerprint
	switch a {
	case MD5:
		d := md5.Sum(data)
		copy(fp[:], d[:])
	case SHA256:
		d := sha256.Sum256(data)
		copy(fp[:], d[:Size])
	default:
		fp = sumSHA1(data)
	}
	return fp
}

// SumBatch computes out[i] = a.Sum(bufs[i]) for every buffer; out must be
// at least as long as bufs. SHA-1 on a CPU with AVX-512 hashes up to
// sixteen buffers per pass (sha1x16_amd64.go); everything else loops over
// Sum. Safe for concurrent use.
func (a Algorithm) SumBatch(bufs [][]byte, out []Fingerprint) {
	out = out[:len(bufs)]
	switch a {
	case MD5, SHA256:
		for i, b := range bufs {
			out[i] = a.Sum(b)
		}
	default:
		sumSHA1Batch(bufs, out)
	}
}

// Sum computes the SHA-1 fingerprint of data. It is the package-level
// shorthand for the default algorithm.
func Sum(data []byte) Fingerprint {
	return SHA1.Sum(data)
}

// String returns the hexadecimal representation of the fingerprint.
func (f Fingerprint) String() string {
	return hex.EncodeToString(f[:])
}

// Short returns the first 4 bytes in hex, for compact logging.
func (f Fingerprint) Short() string {
	return hex.EncodeToString(f[:4])
}

// Compare lexicographically compares two fingerprints, returning
// -1, 0 or +1. The "k smallest fingerprints" of a handprint are defined by
// this ordering. The 8-byte big-endian prefix decides all but a 2⁻⁶⁴
// share of hashed pairs, so it is compared first, as one integer.
func (f Fingerprint) Compare(other Fingerprint) int {
	if a, b := f.Uint64(), other.Uint64(); a != b {
		if a < b {
			return -1
		}
		return 1
	}
	return bytes.Compare(f[8:], other[8:])
}

// Less reports whether f sorts before other.
func (f Fingerprint) Less(other Fingerprint) bool {
	if a, b := f.Uint64(), other.Uint64(); a != b {
		return a < b
	}
	return bytes.Compare(f[8:], other[8:]) < 0
}

// IsZero reports whether the fingerprint is the all-zero value, which is
// never produced by hashing and serves as "no fingerprint".
func (f Fingerprint) IsZero() bool {
	return f == Fingerprint{}
}

// Mod maps the fingerprint onto [0, n) using its leading 8 bytes, the
// modulo placement used by DHT-style routing (paper Algorithm 1 step 1:
// candidate node IDs are rfp_i mod N).
func (f Fingerprint) Mod(n int) int {
	if n <= 0 {
		return 0
	}
	return int(f.Uint64() % uint64(n))
}

// Uint64 returns the leading 8 bytes as a big-endian integer. Useful for
// cheap secondary hashing (Bloom filters, lock striping).
func (f Fingerprint) Uint64() uint64 {
	return binary.BigEndian.Uint64(f[:8])
}

// Parse decodes a hexadecimal fingerprint string.
func Parse(s string) (Fingerprint, error) {
	var fp Fingerprint
	b, err := hex.DecodeString(s)
	if err != nil {
		return fp, fmt.Errorf("parse fingerprint: %w", err)
	}
	if len(b) != Size {
		return fp, fmt.Errorf("parse fingerprint: want %d bytes, got %d", Size, len(b))
	}
	copy(fp[:], b)
	return fp, nil
}
