// The 16-lane SHA-1 kernel's Go half: the CPU probes and the lane
// scheduler. It does not expire with go 1.25 (see sha1.go).

//go:build amd64 && !purego

package fingerprint

import (
	"encoding/binary"
	"math"
)

// cpuid executes CPUID with EAX=leaf, ECX=sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0: which register state the OS saves and restores.
func xgetbv() (eax, edx uint32)

// blockX16 folds n 64-byte blocks, at least one, into each of sixteen
// lanes: lane i reads p[i][:64*n] and its state is h[0][i] to h[4][i].
//
//go:noescape
func blockX16(h *[5][16]uint32, p *[16]*byte, n int)

// haveAVX512: the kernel needs AVX-512F (leaf 7 EBX bit 16: ternary logic,
// rotates, 512-bit shuffles) and AVX-512BW (bit 30: the 512-bit VPSHUFB),
// and an OS that saves the SSE, AVX, opmask and ZMM state (XCR0 bits 1, 2
// and 5-7) — which XGETBV may be asked once OSXSAVE (leaf 1 ECX bit 27)
// is set.
var haveAVX512 = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(1<<27) == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<16) != 0 && ebx7&(1<<30) != 0
}()

var sha1IV = [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}

// padTail writes the FIPS 180-4 padding of data's trailing partial block
// — its bytes, 0x80, zeros, the bit length big-endian in the last eight
// bytes — into tail and returns the one or two blocks it fills.
func padTail(tail *[128]byte, data []byte) []byte {
	n := copy(tail[:], data[len(data)&^63:])
	end := 64
	if n >= 56 {
		end = 128
	}
	clear(tail[n:end])
	tail[n] = 0x80
	binary.BigEndian.PutUint64(tail[end-8:], uint64(len(data))<<3)
	return tail[:end]
}

func digest(h *[5]uint32) (out Fingerprint) {
	for i, v := range h {
		binary.BigEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// sumX16 is SHA-1 SumBatch on blockX16. Messages take lanes in order and
// a lane whose message is done takes the next, so lengths need not match
// (FastCDC chunks): each pass runs until the first lane reaches the end of
// its data or of its padding. A pass costs the same however many lanes
// are busy, so once fewer than x16MinLanes messages are left the one-lane
// SHA-NI kernel, where there is one, finishes them from where they are.
func sumX16(bufs [][]byte, out []Fingerprint) {
	var (
		h     [5][16]uint32
		p     [16]*byte
		tails [16][128]byte
		// Lane i hashes message msg[i] (-1: idle): its whole blocks
		// straight from the caller's buffer, data[i], then its padded
		// tail, pad[i] (a slice of tails[i]).
		msg  [16]int
		data [16][]byte
		pad  [16][]byte
	)
	for i := range msg {
		msg[i] = -1
	}
	next := 0
	for {
		busy := 0
		for i := range msg {
			if msg[i] < 0 && next < len(bufs) {
				b := bufs[next]
				msg[i], data[i], pad[i] = next, b[:len(b)&^63], padTail(&tails[i], b)
				for j := range h {
					h[j][i] = sha1IV[j]
				}
				next++
			}
			if msg[i] >= 0 {
				busy++
			}
		}
		if busy == 0 {
			return
		}
		if busy < x16MinLanes && sha1NI { // nothing is waiting for a lane
			for i := range msg {
				if msg[i] >= 0 {
					st := column(&h, i)
					if len(data[i]) > 0 {
						blockSHANI(&st, data[i])
					}
					blockSHANI(&st, pad[i])
					out[msg[i]] = digest(&st)
				}
			}
			return
		}
		n := math.MaxInt
		var idle *byte
		for i := range msg {
			if msg[i] >= 0 {
				seg := data[i]
				if len(seg) == 0 {
					seg = pad[i]
				}
				n = min(n, len(seg)/64)
				p[i] = &seg[0]
				idle = p[i]
			}
		}
		for i := range msg {
			if msg[i] < 0 {
				p[i] = idle // read anything valid; the state is discarded
			}
		}
		blockX16(&h, &p, n)
		for i := range msg {
			switch {
			case msg[i] < 0:
			case len(data[i]) > 0:
				data[i] = data[i][64*n:]
			default:
				if pad[i] = pad[i][64*n:]; len(pad[i]) == 0 {
					st := column(&h, i)
					out[msg[i]] = digest(&st)
					msg[i] = -1
				}
			}
		}
	}
}

func column(h *[5][16]uint32, lane int) (st [5]uint32) {
	for j := range st {
		st[j] = h[j][lane]
	}
	return st
}
