// Package chunker implements the data-partitioning stage of the
// deduplication pipeline: splitting byte streams into chunks.
//
// Four algorithms are provided:
//
//   - FixedChunker: static chunking (SC) at a constant size. Negligible CPU
//     cost; the paper selects SC with 4KB chunks for its main experiments
//     (§4.3, Fig. 5a).
//   - RabinChunker: content-defined chunking (CDC) using a rolling Rabin
//     hash over a 64-byte window, Cumulus-style, with min/avg/max bounds.
//   - TTTDChunker: the Two-Threshold Two-Divisor variant of CDC used in the
//     paper's super-chunk resemblance analysis (§2.2), with 1KB minimum,
//     2KB minor mean, 4KB major mean and 32KB maximum by default.
//   - FastCDCChunker: FastCDC (Xia et al., USENIX ATC'16 / TPDS'20) with
//     a seeded gear hash and normalized chunking — an order of magnitude
//     cheaper per byte than Rabin, recommended when content-defined
//     boundaries are wanted on the hot path.
//
// All chunkers implement the Chunker interface and stream from an io.Reader
// so arbitrarily large inputs can be processed with bounded memory. All
// constructors accept options; WithAllocator plugs in a buffer pool so the
// backup path's live allocation stays bounded by the in-flight window.
package chunker

import (
	"errors"
	"fmt"
	"io"
)

// Chunk is one unit of deduplication: a contiguous span of the input stream.
type Chunk struct {
	// Data is the chunk payload. The slice is owned by the caller after
	// Next returns; chunkers never reuse it themselves. Under the default
	// allocator it is garbage-collected; with WithAllocator the buffer
	// came from the caller's pool and the caller decides when (and
	// whether) to recycle it.
	Data []byte
	// Offset is the byte offset of the chunk in the input stream.
	Offset int64
}

// Len returns the chunk payload length in bytes.
func (c Chunk) Len() int { return len(c.Data) }

// Chunker cuts a stream into chunks.
type Chunker interface {
	// Next returns the next chunk, or io.EOF after the final chunk has
	// been delivered. A terminal partial chunk (shorter than the minimum)
	// is returned rather than discarded.
	Next() (Chunk, error)
}

// Method identifies a chunking algorithm.
type Method int

// Chunking methods.
const (
	Fixed Method = iota + 1
	Rabin
	TTTD
	FastCDC
)

// String returns the paper's abbreviation for the method.
func (m Method) String() string {
	switch m {
	case Fixed:
		return "SC"
	case Rabin:
		return "CDC"
	case TTTD:
		return "TTTD"
	case FastCDC:
		return "FastCDC"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// ErrInvalidConfig reports chunker construction with nonsensical bounds.
var ErrInvalidConfig = errors.New("chunker: invalid configuration")

// Allocator supplies chunk payload buffers: it must return a slice of
// length n (capacity may exceed it). Plugging in a pool-backed allocator
// bounds the backup path's live allocation; the default is plain make.
type Allocator func(n int) []byte

// Option configures a chunker at construction.
type Option func(*options)

type options struct {
	alloc Allocator
	// unused takes back a buffer drawn from alloc that no chunk carries.
	unused func([]byte)
}

// WithAllocator makes the chunker draw chunk payload buffers from alloc
// instead of the heap. Buffers are requested at the method's maximum
// chunk size (see MaxChunkSize) or, for fixed chunking, the chunk size;
// ownership passes to the consumer with the returned Chunk. A chunker
// must draw a buffer before it can tell that the stream has ended, so
// the one it draws at the end holds nothing; if unused is given, that
// buffer (and one drawn before a read error) goes back through
// unused[0] instead of to the garbage collector.
func WithAllocator(alloc Allocator, unused ...func([]byte)) Option {
	return func(o *options) {
		o.alloc = alloc
		if len(unused) > 0 {
			o.unused = unused[0]
		}
	}
}

func applyOptions(opts []Option) options {
	o := options{
		alloc:  func(n int) []byte { return make([]byte, n) },
		unused: func([]byte) {},
	}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// MaxChunkSize returns the largest payload the method can emit for the
// given target size — the capacity a pooled allocator should provision.
func MaxChunkSize(m Method, size int) int {
	switch m {
	case Fixed:
		return size
	case TTTD:
		return DefaultTTTDConfig().Max
	default: // Rabin, FastCDC: max defaults to 4x the average
		return size * 4
	}
}

// New constructs a chunker of the given method reading from r. size is the
// fixed size for SC or the target average for CDC/FastCDC; TTTD ignores
// size and uses its standard thresholds.
func New(m Method, r io.Reader, size int, opts ...Option) (Chunker, error) {
	switch m {
	case Fixed:
		return NewFixed(r, size, opts...)
	case Rabin:
		return NewRabin(r, size/4, size, size*4, opts...)
	case TTTD:
		return NewTTTD(r, DefaultTTTDConfig(), opts...)
	case FastCDC:
		cfg := DefaultFastCDCConfig()
		if size > 0 {
			cfg.Min, cfg.Avg, cfg.Max = size/4, size, size*4
		}
		return NewFastCDC(r, cfg, opts...)
	default:
		return nil, fmt.Errorf("%w: unknown method %d", ErrInvalidConfig, int(m))
	}
}

// SplitAll drains the chunker and returns every chunk. Intended for tests
// and small inputs; large streams should consume chunks incrementally.
func SplitAll(c Chunker) ([]Chunk, error) {
	var chunks []Chunk
	for {
		ch, err := c.Next()
		if err == io.EOF {
			return chunks, nil
		}
		if err != nil {
			return chunks, err
		}
		chunks = append(chunks, ch)
	}
}

// FixedChunker slices the stream into constant-size chunks (static
// chunking). The final chunk may be shorter.
type FixedChunker struct {
	r      io.Reader
	size   int
	offset int64
	done   bool
	options
}

var _ Chunker = (*FixedChunker)(nil)

// NewFixed returns a FixedChunker producing size-byte chunks.
func NewFixed(r io.Reader, size int, opts ...Option) (*FixedChunker, error) {
	if size <= 0 {
		return nil, fmt.Errorf("%w: fixed chunk size %d", ErrInvalidConfig, size)
	}
	return &FixedChunker{r: r, size: size, options: applyOptions(opts)}, nil
}

// Next implements Chunker.
func (f *FixedChunker) Next() (Chunk, error) {
	if f.done {
		return Chunk{}, io.EOF
	}
	buf := f.alloc(f.size)
	n, err := io.ReadFull(f.r, buf)
	if n == 0 {
		f.done = true
		f.unused(buf)
		if err == io.EOF || err == io.ErrUnexpectedEOF || err == nil {
			return Chunk{}, io.EOF
		}
		return Chunk{}, err
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		f.done = true
		err = nil
	}
	if err != nil {
		f.unused(buf)
		return Chunk{}, err
	}
	ch := Chunk{Data: buf[:n], Offset: f.offset}
	f.offset += int64(n)
	return ch, nil
}
