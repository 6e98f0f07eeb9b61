package chunker

import (
	"bufio"
	"fmt"
	"io"
)

// rabinWindow is the sliding-window width in bytes for the rolling hash.
// 48–64 bytes is the range used by Cumulus and LBFS; we use 64.
const rabinWindow = 64

// rabinPoly is an irreducible polynomial over GF(2) of degree 53, the same
// degree family used by LBFS/Cumulus. Represented with the implicit x^53
// term omitted from table entries but applied during shifting.
const rabinPoly uint64 = 0x3DA3358B4DC173

// rabinTables holds the precomputed modular-shift tables for a polynomial.
type rabinTables struct {
	// modTable[b] = (b << 53) mod P for the top byte b being shifted out
	// of the 53-bit fingerprint register.
	modTable [256]uint64
	// outTable[b] = hash contribution of byte b after it has been shifted
	// through the whole window, used to remove the oldest byte in O(1).
	outTable [256]uint64
}

// newRabinTables precomputes the shift/out tables for rabinPoly.
func newRabinTables() *rabinTables {
	t := &rabinTables{}
	deg := polyDeg(rabinPoly)
	for b := 0; b < 256; b++ {
		t.modTable[b] = polyMod(uint64(b)<<uint(deg), rabinPoly) | uint64(b)<<uint(deg)
	}
	for b := 0; b < 256; b++ {
		var h uint64
		h = appendByteRabin(h, byte(b), t)
		for i := 0; i < rabinWindow-1; i++ {
			h = appendByteRabin(h, 0, t)
		}
		t.outTable[b] = h
	}
	return t
}

// polyDeg returns the degree of polynomial p (position of highest set bit).
func polyDeg(p uint64) int {
	d := -1
	for p != 0 {
		p >>= 1
		d++
	}
	return d
}

// polyMod reduces value modulo polynomial p over GF(2).
func polyMod(value, p uint64) uint64 {
	d := polyDeg(p)
	for i := 63; i >= d; i-- {
		if value&(uint64(1)<<uint(i)) != 0 {
			value ^= p << uint(i-d)
		}
	}
	return value
}

// appendByteRabin folds one byte into the rolling fingerprint.
func appendByteRabin(h uint64, b byte, t *rabinTables) uint64 {
	top := byte(h >> 45) // degree 53: top byte occupies bits 45..52
	h = (h<<8 | uint64(b)) & ((1 << 53) - 1)
	return h ^ t.modTable[top]&((1<<53)-1)
}

// _rabinTables is shared by all RabinChunkers; it is immutable after
// construction so concurrent use is safe.
var _rabinTables = newRabinTables()

// RabinChunker performs content-defined chunking with a rolling Rabin hash.
// A cut point is declared when the low bits of the window hash match a
// fixed pattern; the number of masked bits sets the average chunk size.
type RabinChunker struct {
	r          *bufio.Reader
	min        int
	max        int
	mask       uint64
	window     [rabinWindow]byte
	offset     int64
	exhausted  bool
	windowSize int
	options
}

var _ Chunker = (*RabinChunker)(nil)

// NewRabin returns a CDC chunker with the given minimum, average and
// maximum chunk sizes. avg must be a power of two; min defaults to avg/4
// and max to avg*4 when non-positive.
func NewRabin(r io.Reader, min, avg, max int, opts ...Option) (*RabinChunker, error) {
	if avg <= 0 || avg&(avg-1) != 0 {
		return nil, fmt.Errorf("%w: CDC average %d must be a positive power of two", ErrInvalidConfig, avg)
	}
	if min <= 0 {
		min = avg / 4
	}
	if max <= 0 {
		max = avg * 4
	}
	if min > avg || avg > max {
		return nil, fmt.Errorf("%w: CDC bounds min=%d avg=%d max=%d", ErrInvalidConfig, min, avg, max)
	}
	return &RabinChunker{
		r:       bufio.NewReaderSize(r, 1<<16),
		min:     min,
		max:     max,
		mask:    uint64(avg - 1),
		options: applyOptions(opts),
	}, nil
}

// Next implements Chunker.
func (rc *RabinChunker) Next() (Chunk, error) {
	if rc.exhausted {
		return Chunk{}, io.EOF
	}
	buf := rc.alloc(rc.max)[:0]
	var h uint64
	rc.windowSize = 0
	for {
		b, err := rc.r.ReadByte()
		if err == io.EOF {
			rc.exhausted = true
			if len(buf) == 0 {
				rc.unused(buf)
				return Chunk{}, io.EOF
			}
			return rc.emit(buf), nil
		}
		if err != nil {
			rc.unused(buf)
			return Chunk{}, fmt.Errorf("cdc read: %w", err)
		}
		// Slide the window: remove the contribution of the byte that
		// falls out, then append the new byte.
		idx := int(rc.offset+int64(len(buf))) % rabinWindow
		old := rc.window[idx]
		rc.window[idx] = b
		if rc.windowSize < rabinWindow {
			rc.windowSize++
		} else {
			h ^= _rabinTables.outTable[old]
		}
		h = appendByteRabin(h, b, _rabinTables)
		buf = append(buf, b)

		if len(buf) >= rc.min && h&rc.mask == rc.mask {
			return rc.emit(buf), nil
		}
		if len(buf) >= rc.max {
			return rc.emit(buf), nil
		}
	}
}

func (rc *RabinChunker) emit(buf []byte) Chunk {
	ch := Chunk{Data: buf, Offset: rc.offset}
	rc.offset += int64(len(buf))
	return ch
}
