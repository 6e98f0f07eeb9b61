package chunker

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// tttdConfig parameterizes the Two-Threshold Two-Divisor algorithm
// (Eshghi & Tang, HP TR 2005). The paper's resemblance analysis (§2.2) uses
// 1KB minimum, 2KB minor mean, 4KB major mean and 32KB maximum.
type tttdConfig struct {
	Min int // minimum chunk size (lower threshold)
	// MinorMean sets the backup divisor D' = MinorMean; a backup cut is
	// remembered whenever hash mod D' == D'-1.
	MinorMean int
	// MajorMean sets the main divisor D = MajorMean; a cut is taken
	// whenever hash mod D == D-1 past the minimum.
	MajorMean int
	Max       int // maximum chunk size (upper threshold)
}

// DefaultTTTDConfig returns the paper's TTTD parameters:
// 1KB / 2KB / 4KB / 32KB.
func DefaultTTTDConfig() tttdConfig {
	return tttdConfig{Min: 1 << 10, MinorMean: 2 << 10, MajorMean: 4 << 10, Max: 32 << 10}
}

// Validate checks threshold ordering.
func (c tttdConfig) Validate() error {
	if c.Min <= 0 || c.MinorMean <= 0 || c.MajorMean <= 0 || c.Max <= 0 {
		return fmt.Errorf("%w: TTTD thresholds must be positive: %+v", errInvalidConfig, c)
	}
	if !(c.Min < c.MinorMean && c.MinorMean <= c.MajorMean && c.MajorMean < c.Max) {
		return fmt.Errorf("%w: TTTD thresholds must satisfy min < minor <= major < max: %+v", errInvalidConfig, c)
	}
	return nil
}

// tttdChunker implements TTTD content-defined chunking. Relative to basic
// CDC it bounds the chunk-size distribution tightly: when no main-divisor
// cut appears before Max, it falls back to the most recent backup-divisor
// cut, and only then to a hard cut at Max.
type tttdChunker struct {
	r         *bufio.Reader
	cfg       tttdConfig
	window    [rabinWindow]byte
	offset    int64
	exhausted bool
	options
}

var _ Chunker = (*tttdChunker)(nil)

// NewTTTD returns a TTTD chunker with the given thresholds.
func NewTTTD(r io.Reader, cfg tttdConfig, opts ...option) (*tttdChunker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &tttdChunker{r: bufio.NewReaderSize(r, 1<<16), cfg: cfg,
		options: applyOptions(opts)}, nil
}

// Next implements Chunker.
func (tc *tttdChunker) Next() (Chunk, error) {
	if tc.exhausted {
		return Chunk{}, io.EOF
	}
	var (
		h          uint64
		buf        = tc.alloc(tc.cfg.Max)[:0]
		backupCut  = -1
		windowFill = 0
		mainDiv    = uint64(tc.cfg.MajorMean)
		backupDiv  = uint64(tc.cfg.MinorMean)
	)
	for {
		b, err := tc.r.ReadByte()
		if err == io.EOF {
			tc.exhausted = true
			if len(buf) == 0 {
				tc.unused(buf)
				return Chunk{}, io.EOF
			}
			return tc.emit(buf, len(buf)), nil
		}
		if err != nil {
			tc.unused(buf)
			return Chunk{}, fmt.Errorf("tttd read: %w", err)
		}
		idx := len(buf) % rabinWindow
		old := tc.window[idx]
		tc.window[idx] = b
		if windowFill < rabinWindow {
			windowFill++
		} else {
			h ^= _rabinTables.outTable[old]
		}
		h = appendByteRabin(h, b, _rabinTables)
		buf = append(buf, b)

		if len(buf) < tc.cfg.Min {
			continue
		}
		if h%backupDiv == backupDiv-1 {
			backupCut = len(buf)
		}
		if h%mainDiv == mainDiv-1 {
			return tc.emit(buf, len(buf)), nil
		}
		if len(buf) >= tc.cfg.Max {
			if backupCut > 0 {
				return tc.emit(buf, backupCut), nil
			}
			return tc.emit(buf, len(buf)), nil
		}
	}
}

// emit cuts buf at n bytes, pushing back any tail for the next chunk.
func (tc *tttdChunker) emit(buf []byte, n int) Chunk {
	if n < len(buf) {
		// Unread the tail so the next chunk starts at the backup cut.
		// bufio cannot unread multiple bytes, so prepend via MultiReader.
		tail := make([]byte, len(buf)-n)
		copy(tail, buf[n:])
		tc.r = bufio.NewReaderSize(io.MultiReader(bytes.NewReader(tail), tc.r), 1<<16)
		// The pushed-back bytes will be re-hashed from a fresh window on
		// the next call; reset window state.
		tc.window = [rabinWindow]byte{}
	}
	// The tail past n was already copied for pushback, so handing out the
	// full-capacity slice is safe — and keeps the capacity visible to
	// pool-backed allocators that recycle by capacity.
	ch := Chunk{Data: buf[:n], Offset: tc.offset}
	tc.offset += int64(n)
	return ch
}
