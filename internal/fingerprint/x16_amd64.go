// The 16-lane kernels' Go half: the CPU probes and the lane scheduler
// both algorithms share. It does not expire with go 1.25 (see kernels.go).

//go:build amd64 && !purego

package fingerprint

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"hash"
	"math"
	"sync"
)

// cpuid executes CPUID with EAX=leaf, ECX=sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0: which register state the OS saves and restores.
func xgetbv() (eax, edx uint32)

// blockX16 folds n 64-byte blocks, at least one, into each of sixteen
// SHA-1 lanes: lane i reads p[i][:64*n] and its state is h[0][i] to
// h[4][i].
//
//go:noescape
func blockX16(h *[5][16]uint32, p *[16]*byte, n int)

// blockSHA256X16 is blockX16 for SHA-256: eight state words per lane.
//
//go:noescape
func blockSHA256X16(h *[8][16]uint32, p *[16]*byte, n int)

// haveAVX512: the kernels need AVX-512F (leaf 7 EBX bit 16: ternary
// logic, rotates, 512-bit shuffles) and AVX-512BW (bit 30: the 512-bit
// VPSHUFB), and an OS that saves the SSE, AVX, opmask and ZMM state (XCR0
// bits 1, 2 and 5-7) — which XGETBV may be asked once OSXSAVE (leaf 1 ECX
// bit 27) is set.
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

var (
	sha1IV   = [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	sha256IV = [8]uint32{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19}
)

// padTail writes the FIPS 180-4 padding of data's trailing partial block
// — its bytes, 0x80, zeros, the bit length big-endian in the last eight
// bytes — into tail and returns the one or two blocks it fills. SHA-1
// and SHA-256 pad alike.
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

// digest is the fingerprint of a final state: its first five words
// big-endian — all of SHA-1's, SHA-256's truncated to Size.
func digest(h *[5]uint32) (out Fingerprint) {
	for i, v := range h {
		binary.BigEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// sumX16 is SumBatch on the 16-lane kernel of a, SHA-1 or SHA-256.
// Messages take lanes in order and a lane whose message is done takes the
// next, so lengths need not match (FastCDC chunks): each pass runs until
// the first lane reaches the end of its data or of its padding. A pass
// costs the same however many lanes are busy, so once fewer than the
// algorithm's minimum are left (x16MinLanes, x16MinLanesSHA256) a
// one-lane implementation, where one is on, finishes them from where they
// are: SHA-NI for SHA-1, crypto/sha256 for SHA-256.
func sumX16(a Algorithm, bufs [][]byte, out []Fingerprint) {
	var (
		h     [8][16]uint32
		p     [16]*byte
		tails [16][128]byte
		// Lane i hashes message msg[i] (-1: idle): its whole blocks
		// straight from the caller's buffer, data[i], then its padded
		// tail, pad[i] (a slice of tails[i]).
		msg  [16]int
		data [16][]byte
		pad  [16][]byte
	)
	iv, minLanes, handOff := sha1IV[:], x16MinLanes, sha1NI
	if a == SHA256 {
		iv, minLanes, handOff = sha256IV[:], x16MinLanesSHA256, sha256HandOff
	}
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
				for j, v := range iv {
					h[j][i] = v
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
		if busy < minLanes && handOff { // nothing is waiting for a lane
			for i := range msg {
				if msg[i] >= 0 {
					st := column(&h, i)
					finishOneLane(a, &st, data[i], pad[i])
					out[msg[i]] = digest((*[5]uint32)(st[:5]))
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
		if a == SHA256 {
			blockSHA256X16(&h, &p, n)
		} else {
			blockX16((*[5][16]uint32)(h[:5]), &p, n)
		}
		for i := range msg {
			switch {
			case msg[i] < 0:
			case len(data[i]) > 0:
				data[i] = data[i][64*n:]
			default:
				if pad[i] = pad[i][64*n:]; len(pad[i]) == 0 {
					st := column(&h, i)
					out[msg[i]] = digest((*[5]uint32)(st[:5]))
					msg[i] = -1
				}
			}
		}
	}
}

func column(h *[8][16]uint32, lane int) (st [8]uint32) {
	for j := range st {
		st[j] = h[j][lane]
	}
	return st
}

// finishOneLane folds a lane's remaining whole blocks, data, and then
// what is left of its padded tail, pad, into its state st on a's
// one-lane implementation.
func finishOneLane(a Algorithm, st *[8]uint32, data, pad []byte) {
	if a == SHA256 {
		blockSHA256(st, data, pad)
		return
	}
	if len(data) > 0 {
		blockSHANI((*[5]uint32)(st[:5]), data)
	}
	if len(pad) > 0 {
		blockSHANI((*[5]uint32)(st[:5]), pad)
	}
}

// sha256Lane is a crypto/sha256 digest, the buffer its state crosses and
// a copy of the padded tail: the digest is an interface, so what it is
// handed escapes, and the tail lives on sumX16's stack.
type sha256Lane struct {
	d     hash.Hash
	state [108]byte // "sha\x03", h[0..7], the unused block buffer, the length
	tail  [128]byte
}

var sha256Lanes = sync.Pool{New: func() any { return &sha256Lane{d: sha256.New()} }}

// blockSHA256 folds data and then pad, whole 64-byte blocks each, into st
// on crypto/sha256 (SHA-NI where the CPU has it): the state goes in
// through the digest's UnmarshalBinary at length zero, so nothing is
// buffered and Write compresses in place, and comes back out through
// AppendBinary.
func blockSHA256(st *[8]uint32, data, pad []byte) {
	l := sha256Lanes.Get().(*sha256Lane)
	s := l.state[:]
	copy(s, "sha\x03")
	for j, v := range st {
		binary.BigEndian.PutUint32(s[4+4*j:], v)
	}
	clear(s[36:])
	if err := l.d.(encoding.BinaryUnmarshaler).UnmarshalBinary(s); err != nil {
		panic("fingerprint: crypto/sha256 refused its own state: " + err.Error())
	}
	l.d.Write(data)
	l.d.Write(l.tail[:copy(l.tail[:], pad)])
	s, err := l.d.(encoding.BinaryAppender).AppendBinary(s[:0])
	if err != nil || len(s) != len(l.state) {
		panic("fingerprint: crypto/sha256 state of an unexpected form")
	}
	for j := range st {
		st[j] = binary.BigEndian.Uint32(s[4+4*j:])
	}
	sha256Lanes.Put(l)
}
