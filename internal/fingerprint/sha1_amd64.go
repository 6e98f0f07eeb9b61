// Delete when go.mod reaches 1.25 (see sha1.go).

//go:build amd64 && !purego

package fingerprint

import "encoding/binary"

// cpuid executes CPUID with EAX=leaf, ECX=sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// blockSHANI folds p, a positive whole number of 64-byte blocks, into h.
//
//go:noescape
func blockSHANI(h *[5]uint32, p []byte)

// haveSHANI: the kernel needs SHA (leaf 7 EBX bit 29), PSHUFB (SSSE3,
// leaf 1 ECX bit 9) and PINSRD/PEXTRD (SSE4.1, leaf 1 ECX bit 19).
var haveSHANI = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	return ecx1&(1<<9) != 0 && ecx1&(1<<19) != 0 && ebx7&(1<<29) != 0
}()

// sumSHANI is sha1.Sum on the kernel: whole blocks straight from data, then
// the FIPS 180-4 padding — 0x80, zeros, the bit length big-endian in the
// last eight bytes — in one or two blocks on the stack.
func sumSHANI(data []byte) (out [Size]byte) {
	h := [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	whole := len(data) &^ 63
	if whole > 0 {
		blockSHANI(&h, data[:whole])
	}
	var tail [128]byte
	n := copy(tail[:], data[whole:])
	tail[n] = 0x80
	end := 64
	if n >= 56 {
		end = 128
	}
	binary.BigEndian.PutUint64(tail[end-8:], uint64(len(data))<<3)
	blockSHANI(&h, tail[:end])
	for i, v := range h {
		binary.BigEndian.PutUint32(out[4*i:], v)
	}
	return out
}
