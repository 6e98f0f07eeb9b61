package chunker

import (
	"fmt"
	"io"
)

// fastCDCConfig parameterizes the FastCDC-2020 algorithm (Xia et al.,
// "FastCDC: a Fast and Efficient Content-Defined Chunking Approach for
// Data Deduplication", USENIX ATC'16; journal version IEEE TPDS 2020).
type fastCDCConfig struct {
	Min int // minimum chunk size; cut-point search skips these bytes
	Avg int // target average chunk size (the normal point); power of two
	Max int // maximum chunk size (hard cut)
	// Normalization is the normalized-chunking level (the paper's NC1-3):
	// below the normal point the cut mask uses Normalization more bits
	// than the average would dictate (making early cuts rarer), above it
	// that many fewer (making late cuts likelier), squeezing the chunk
	// size distribution toward Avg. 0 disables normalization.
	Normalization int
	// Seed selects the gear table. Both peers of a dedup domain must use
	// the same seed or cut points (and thus fingerprints) diverge.
	Seed uint64
}

// defaultGearSeed is the gear-table seed used when none is given; fixed
// so that chunk boundaries are stable across processes and versions.
const defaultGearSeed uint64 = 0x5345454447454152 // "SEEDGEAR"

// defaultFastCDCConfig returns 2KB/8KB/64KB bounds with normalization
// level 2 — the configuration evaluated in the FastCDC paper.
func defaultFastCDCConfig() fastCDCConfig {
	return fastCDCConfig{Min: 2 << 10, Avg: 8 << 10, Max: 64 << 10, Normalization: 2}
}

// Validate checks bounds and normalization level.
func (c fastCDCConfig) Validate() error {
	if c.Avg <= 0 || c.Avg&(c.Avg-1) != 0 {
		return fmt.Errorf("%w: FastCDC average %d must be a positive power of two", errInvalidConfig, c.Avg)
	}
	if c.Min <= 0 || c.Max <= 0 || c.Min > c.Avg || c.Avg > c.Max {
		return fmt.Errorf("%w: FastCDC bounds min=%d avg=%d max=%d", errInvalidConfig, c.Min, c.Avg, c.Max)
	}
	bits := 0
	for 1<<bits < c.Avg {
		bits++
	}
	if c.Normalization < 0 || c.Normalization >= bits {
		return fmt.Errorf("%w: FastCDC normalization %d out of range for avg %d", errInvalidConfig, c.Normalization, c.Avg)
	}
	return nil
}

// gearTable derives the 256-entry gear table from a seed with a
// splitmix64 sequence: deterministic, well-mixed 64-bit constants.
func gearTable(seed uint64) [256]uint64 {
	var g [256]uint64
	x := seed
	for i := range g {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		g[i] = z ^ (z >> 31)
	}
	return g
}

// fastCDCMasks returns the pre- and post-normal-point cut masks. The
// gear hash h = (h<<1) + gear[b] pushes older bytes toward high bit
// positions, so masks select high bits to keep an effective ~48-byte
// window; bit positions are spread deterministically from the seed, per
// the paper's observation that spreading beats a contiguous mask.
func fastCDCMasks(avg, norm int, seed uint64) (maskS, maskL uint64) {
	bits := 0
	for 1<<bits < avg {
		bits++
	}
	// Draw distinct bit positions in [16, 62) from a splitmix64 stream.
	pick := func(n int) uint64 {
		var mask uint64
		x := seed ^ 0xA5A5A5A5A5A5A5A5
		chosen := 0
		for chosen < n {
			x += 0x9E3779B97F4A7C15
			z := x
			z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
			z = (z ^ (z >> 27)) * 0x94D049BB133111EB
			z ^= z >> 31
			pos := 16 + z%46
			if mask&(1<<pos) == 0 {
				mask |= 1 << pos
				chosen++
			}
		}
		return mask
	}
	return pick(bits + norm), pick(bits - norm)
}

// fastCDCChunker implements FastCDC-2020: a gear rolling hash (one shift
// and one add per byte, no byte-removal step) with normalized chunking.
// It buffers up to Max bytes internally and copies each chunk out through
// the allocator, so emitted chunks never alias the work buffer.
type fastCDCChunker struct {
	r      io.Reader
	cfg    fastCDCConfig
	gear   [256]uint64
	maskS  uint64 // stricter mask, before the normal point
	maskL  uint64 // looser mask, after the normal point
	buf    []byte
	pos    int // start of unconsumed bytes in buf
	filled int // end of valid bytes in buf
	offset int64
	rerr   error // deferred read error (io.EOF when drained)
	alloc  func(n int) []byte
}

var _ Chunker = (*fastCDCChunker)(nil)

// newFastCDC returns a FastCDC chunker with the given configuration
// (zero-value Seed selects defaultGearSeed).
func newFastCDC(r io.Reader, cfg fastCDCConfig, opts ...option) (*fastCDCChunker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = defaultGearSeed
	}
	maskS, maskL := fastCDCMasks(cfg.Avg, cfg.Normalization, seed)
	return &fastCDCChunker{
		r:     r,
		cfg:   cfg,
		gear:  gearTable(seed),
		maskS: maskS,
		maskL: maskL,
		buf:   make([]byte, max(cfg.Max, 64<<10)),
		alloc: applyOptions(opts).alloc,
	}, nil
}

// fill slides unconsumed bytes to the front and reads until Max bytes
// are buffered or the reader is exhausted.
func (fc *fastCDCChunker) fill() {
	if fc.pos > 0 {
		copy(fc.buf, fc.buf[fc.pos:fc.filled])
		fc.filled -= fc.pos
		fc.pos = 0
	}
	for fc.rerr == nil && fc.filled < fc.cfg.Max {
		n, err := fc.r.Read(fc.buf[fc.filled:])
		fc.filled += n
		if err != nil {
			fc.rerr = err
		}
	}
}

// Next implements Chunker.
func (fc *fastCDCChunker) Next() (Chunk, error) {
	if fc.filled-fc.pos < fc.cfg.Max && fc.rerr == nil {
		fc.fill()
	}
	n := fc.filled - fc.pos
	if n == 0 {
		if fc.rerr != nil && fc.rerr != io.EOF {
			return Chunk{}, fmt.Errorf("fastcdc read: %w", fc.rerr)
		}
		return Chunk{}, io.EOF
	}
	if fc.rerr != nil && fc.rerr != io.EOF && n < fc.cfg.Max {
		// A real read error with a partial buffer: surface it rather
		// than emit a chunk that silently truncates the stream.
		return Chunk{}, fmt.Errorf("fastcdc read: %w", fc.rerr)
	}
	cut := fc.cutpoint(fc.buf[fc.pos : fc.pos+min(n, fc.cfg.Max)])
	out := fc.alloc(cut)[:cut]
	copy(out, fc.buf[fc.pos:fc.pos+cut])
	ch := Chunk{Data: out, Offset: fc.offset}
	fc.pos += cut
	fc.offset += int64(cut)
	return ch, nil
}

// cutpoint runs the normalized-chunking scan of the paper (Algorithm 2):
// skip Min bytes, use the stricter mask until the normal point (Avg),
// then the looser mask until Max, falling back to a hard cut.
func (fc *fastCDCChunker) cutpoint(src []byte) int {
	n := len(src)
	if n <= fc.cfg.Min {
		return n
	}
	var h uint64
	i := fc.cfg.Min
	normal := fc.cfg.Avg
	if normal > n {
		normal = n
	}
	for ; i < normal; i++ {
		h = (h << 1) + fc.gear[src[i]]
		if h&fc.maskS == 0 {
			return i + 1
		}
	}
	for ; i < n; i++ {
		h = (h << 1) + fc.gear[src[i]]
		if h&fc.maskL == 0 {
			return i + 1
		}
	}
	return n
}
