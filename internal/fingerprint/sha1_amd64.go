// Delete when go.mod reaches 1.25 (see sha1.go).

//go:build amd64 && !purego

package fingerprint

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
// the padded tail in one or two blocks on the stack.
func sumSHANI(data []byte) Fingerprint {
	h := sha1IV
	if whole := len(data) &^ 63; whole > 0 {
		blockSHANI(&h, data[:whole])
	}
	var tail [128]byte
	blockSHANI(&h, padTail(&tail, data))
	return digest(&h)
}
