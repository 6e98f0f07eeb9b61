// Package wire is the length-prefixed binary frame layer under the call
// layer (internal/rpc), node and director verbs alike. It replaces the
// original gob encoding, which paid for reflection and per-stream type
// metadata on every message; here every field has a fixed little-endian
// layout, chunk payloads are carried as raw byte ranges that decoders can
// alias without copying, and frame buffers come from size-classed
// sync.Pools so a steady-state connection allocates nothing per message.
//
// Stream layout:
//
//	handshake: "SDWP" | version u8 | proto u8 | reserved u16   (8 bytes)
//	frame:     length u32 LE | body (length bytes)
//
// The first body byte is a protocol-specific frame kind. The handshake is
// exchanged once per connection — client writes first, server validates
// and echoes its own — and the version byte is how the format evolves:
// a peer speaking an unknown version is rejected with errHandshake before
// any frame is interpreted.
//
// Buffer ownership: ReadFrame returns a pooled buffer; the caller must
// call PutBuf exactly once when done with it AND with every sub-slice a
// zero-copy decoder handed out of it (see internal/rpc for the rules on
// the node path).
//
// The package also owns the record log (log.go): the CRC-framed file
// format of the durable journals, built on the same Append*/Reader
// primitives.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
)

// wireVersion is the current wire format version, carried in the handshake.
const wireVersion = 1

// Protocol identifiers carried in the handshake's proto byte, so that a
// client dialing the wrong port fails fast with a typed error instead of
// a confusing decode failure.
const (
	ProtoNode     byte = 1 // internal/rpc node verbs
	ProtoDirector byte = 3 // internal/rpc director verbs (2 was their retired serial protocol)
)

// DefaultMaxFrame bounds a single frame body. It must exceed the largest
// legitimate message (a super-chunk of payloads, well under 16MB by
// default) while stopping a corrupt or hostile length prefix from
// provoking a giant allocation.
const DefaultMaxFrame = 64 << 20

var magic = [4]byte{'S', 'D', 'W', 'P'}

// Typed decode errors. Every malformed input maps onto one of these so
// callers (and the fuzz harness) can assert failure class with errors.Is.
var (
	// ErrTruncated: the stream or frame ended before a complete value.
	ErrTruncated = errors.New("wire: truncated")
	// errTooLarge: a length prefix exceeds the frame or element budget.
	errTooLarge = errors.New("wire: length exceeds limit")
	// ErrMalformed: structurally invalid content (bad kind, trailing
	// bytes, impossible element count).
	ErrMalformed = errors.New("wire: malformed message")
	// errHandshake: the peer's handshake has the wrong magic, version,
	// or protocol byte.
	errHandshake = errors.New("wire: handshake mismatch")
)

// WriteHandshake sends the 8-byte connection preamble for proto.
func WriteHandshake(w io.Writer, proto byte) error {
	var h [8]byte
	copy(h[:4], magic[:])
	h[4] = wireVersion
	h[5] = proto
	_, err := w.Write(h[:])
	return err
}

// ReadHandshake consumes and validates the peer's preamble, requiring the
// given protocol byte. It returns the peer's version (currently always
// wireVersion; a higher one is rejected so old peers never misparse frames).
func ReadHandshake(r io.Reader, proto byte) (byte, error) {
	var h [8]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return 0, fmt.Errorf("%w: short preamble", errHandshake)
		}
		return 0, err
	}
	if [4]byte(h[:4]) != magic {
		return 0, fmt.Errorf("%w: bad magic %q", errHandshake, h[:4])
	}
	if h[4] != wireVersion {
		return 0, fmt.Errorf("%w: peer version %d, want %d", errHandshake, h[4], wireVersion)
	}
	if h[5] != proto {
		return 0, fmt.Errorf("%w: peer protocol %d, want %d", errHandshake, h[5], proto)
	}
	return h[4], nil
}

// WriteFrame writes one length-prefixed frame. The caller is responsible
// for flushing if w is buffered.
func WriteFrame(w io.Writer, body []byte) error {
	if len(body) > DefaultMaxFrame {
		return fmt.Errorf("%w: frame body %d > %d", errTooLarge, len(body), DefaultMaxFrame)
	}
	// The 4-byte prefix goes through a pooled buffer: a stack array
	// passed to an io.Writer escapes, costing one heap allocation per
	// frame.
	hdr := GetBuf(4)
	binary.LittleEndian.PutUint32(hdr, uint32(len(body)))
	if _, err := w.Write(hdr); err != nil {
		PutBuf(hdr)
		return err
	}
	PutBuf(hdr)
	_, err := w.Write(body)
	return err
}

// VecWriter sends frames whose body is head ‖ payloads ‖ tail with the
// payload slices handed to writev in place, so bulk bytes cross user
// space exactly once (into the kernel). Not safe for concurrent use. The
// net.Buffers header lives here because WriteTo takes its address (a
// stack header escapes: one allocation per frame) and consumes it by
// reslicing; back keeps the backing array across frames.
type VecWriter struct {
	vecs net.Buffers
	back [][]byte
}

// Add queues p as the next piece of the frame. The first piece must begin
// with four spare bytes, which Write fills with the length prefix. Pieces
// are not copied: they must stay unmodified until Write returns.
func (v *VecWriter) Add(p []byte) {
	if len(p) > 0 {
		v.back = append(v.back, p)
	}
}

// Write sends the queued pieces as one frame (writev when w is a socket)
// and forgets them. On error the frame may be partly written: the caller
// must close the connection rather than send another frame after it.
func (v *VecWriter) Write(w io.Writer) error {
	n := -4
	for _, p := range v.back {
		n += len(p)
	}
	var err error
	if n > DefaultMaxFrame {
		err = fmt.Errorf("%w: frame body %d > %d", errTooLarge, n, DefaultMaxFrame)
	} else {
		binary.LittleEndian.PutUint32(v.back[0], uint32(n))
		v.vecs = net.Buffers(v.back)
		_, err = v.vecs.WriteTo(w)
		v.vecs = nil
	}
	clear(v.back) // drop the payload references until the next frame
	v.back = v.back[:0]
	return err
}

// ReadFrame reads one frame body into a pooled buffer; the caller must
// PutBuf it when done. io.EOF is returned verbatim only on a clean
// boundary (no header bytes at all); a partial header or body yields
// ErrTruncated. max <= 0 means DefaultMaxFrame.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	hdr := GetBuf(4) // pooled: a stack array would escape via io.ReadFull
	if _, err := io.ReadFull(r, hdr); err != nil {
		PutBuf(hdr)
		if err == io.EOF {
			return nil, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: partial frame header", ErrTruncated)
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	PutBuf(hdr)
	if n > uint32(max) {
		return nil, fmt.Errorf("%w: frame body %d > %d", errTooLarge, n, max)
	}
	body := GetBuf(int(n))
	if _, err := io.ReadFull(r, body); err != nil {
		PutBuf(body)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: partial frame body (%d bytes promised)", ErrTruncated, n)
		}
		return nil, err
	}
	return body, nil
}

// Size-classed buffer pools: powers of two from 1KB to 16MB. Requests
// above the largest class fall through to plain allocation (PutBuf drops
// them), below the smallest use the 1KB class.
const (
	minPoolClass = 10 // 1 << 10
	maxPoolClass = 24 // 1 << 24
)

// Each class is a mutex-guarded free stack rather than a sync.Pool:
// Put into a sync.Pool boxes the slice header (one heap allocation per
// release), which at chunk-frame rates was itself a top allocator. The
// stacks are bounded so an idle process retains a fixed ceiling of
// buffer memory instead of a high-water mark.
type bufClass struct {
	mu   sync.Mutex
	free [][]byte
}

var pools [maxPoolClass - minPoolClass + 1]bufClass

// freeLimit bounds how many buffers a class retains: generous for the
// small classes the hot path churns, scaled down as buffers grow. The
// mid classes carry super-chunk store frames, of which a whole in-flight
// window (plus the server-side frames being handled) can be live at
// once — retaining fewer than that re-introduces steady-state frame
// allocation.
func freeLimit(class int) int {
	switch {
	case class <= 16: // <= 64KB
		return 64
	case class <= 20: // <= 1MB
		return 16
	case class <= 22: // <= 4MB
		return 4
	}
	return 1
}

func classFor(n int) int {
	c := minPoolClass
	for n > 1<<c {
		c++
	}
	return c
}

// GetBuf returns a buffer of length n from the size-class pools. Contents
// are unspecified (callers overwrite or slice to zero length).
func GetBuf(n int) []byte {
	if n > 1<<maxPoolClass {
		return make([]byte, n)
	}
	c := classFor(n)
	p := &pools[c-minPoolClass]
	p.mu.Lock()
	if last := len(p.free) - 1; last >= 0 {
		b := p.free[last]
		p.free[last] = nil
		p.free = p.free[:last]
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	return make([]byte, n, 1<<c)
}

// PutBuf returns a buffer obtained from GetBuf (or any buffer with a
// power-of-two capacity in the pooled range) for reuse. Oversized or
// odd-capacity buffers are dropped for the GC, as are buffers beyond a
// class's retention limit.
func PutBuf(b []byte) {
	c := cap(b)
	if c < 1<<minPoolClass || c > 1<<maxPoolClass || c&(c-1) != 0 {
		return
	}
	class := classFor(c)
	p := &pools[class-minPoolClass]
	p.mu.Lock()
	if len(p.free) < freeLimit(class) {
		p.free = append(p.free, b[:0])
	}
	p.mu.Unlock()
}

// Append helpers build frame bodies in caller-provided buffers (typically
// pooled, sliced to zero length) so steady-state encoding allocates only
// on growth past the pooled capacity.

// AppendU8 appends one byte.
func AppendU8(b []byte, v byte) []byte { return append(b, v) }

// AppendU32 appends a little-endian uint32.
func AppendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// AppendU64 appends a little-endian uint64.
func AppendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendI64 appends an int64 as its two's-complement uint64.
func AppendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// AppendF64 appends a float64 as its IEEE-754 bit pattern.
func AppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendUvarint appends v as a base-128 varint: one byte below 128, the
// width of choice for counts and small IDs in journal records.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendBool appends a bool as one byte (0 or 1).
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends a u32 length prefix followed by the string bytes.
func AppendString(b []byte, v string) []byte {
	b = AppendU32(b, uint32(len(v)))
	return append(b, v...)
}

// Reader decodes a frame body with a sticky error: after the first
// failure every accessor returns zero values, so decoders can run
// straight-line and check Err once at the end. Bytes() aliases the
// underlying buffer (zero copy); String() copies.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps a frame body for decoding.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) - r.off }

// fail records the first error.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Len() < n {
		r.fail(fmt.Errorf("%w: need %d bytes, have %d", ErrTruncated, n, r.Len()))
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads one byte as a bool; any value other than 0 or 1 is
// malformed (it would round-trip differently).
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(fmt.Errorf("%w: bool byte not 0/1", ErrMalformed))
		return false
	}
}

// Bytes reads a u32-prefixed byte range, ALIASING the frame buffer. The
// result is valid only until the frame is returned to the pool; callers
// that retain it must copy.
func (r *Reader) Bytes() []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if int64(n) > int64(r.Len()) {
		r.fail(fmt.Errorf("%w: byte range %d > remaining %d", ErrTruncated, n, r.Len()))
		return nil
	}
	return r.take(int(n))
}

// String reads a u32-prefixed string (copies out of the frame).
func (r *Reader) String() string { return string(r.Bytes()) }

// Raw reads exactly n bytes with no length prefix, ALIASING the frame
// buffer (for fixed-width fields like fingerprints).
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// Count reads a u32 element count and validates that n elements of at
// least elemSize bytes each could still fit in the unread remainder —
// the guard that keeps a bit-flipped count from provoking a huge
// allocation before truncation is detected.
func (r *Reader) Count(elemSize int) int { return r.count(uint64(r.U32()), elemSize) }

// UvarintCount reads a varint element count, validated like Count.
func (r *Reader) UvarintCount(elemSize int) int { return r.count(r.Uvarint(), elemSize) }

func (r *Reader) count(n uint64, elemSize int) int {
	if r.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if n > uint64(r.Len()/elemSize) {
		r.fail(fmt.Errorf("%w: count %d x %dB > remaining %d", ErrMalformed, n, elemSize, r.Len()))
		return 0
	}
	return int(n)
}

// Uvarint reads a base-128 varint (AppendUvarint).
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	switch {
	case n == 0:
		r.fail(fmt.Errorf("%w: varint", ErrTruncated))
		return 0
	case n < 0:
		r.fail(fmt.Errorf("%w: varint overflows 64 bits", ErrMalformed))
		return 0
	}
	r.off += n
	return v
}

// Done verifies the body was consumed exactly: a sticky error wins,
// then trailing garbage is malformed.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, r.Len())
	}
	return nil
}
