package chunker

import (
	"bytes"
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

// fastCDCStep is how much the chunker asks its reader for at a time,
// past the minimum chunk size, which it reads in the same request: the
// bytes read past a cut are carried into the next chunk's buffer, so the
// step bounds that copy, and each step is one Read. BenchmarkFastCDC
// pooled at 2 / 4 / 8KB steps read 800-950 / 905-940 / 905-980 MB/s,
// even within the host's noise.
const fastCDCStep = 4 << 10

// fastCDCChunker implements FastCDC-2020: a gear rolling hash (one shift
// and one add per byte, no byte-removal step) with normalized chunking,
// rolled two bytes per step. It reads straight into the buffer a chunk
// is handed out in, a step at a time, and scans the bytes as they arrive;
// only the bytes read past a cut (less than a step) are copied, into the
// next chunk's buffer. Without an allocator it reads into a work buffer
// of its own and copies each chunk out at its size instead: a heap buffer
// of Max bytes per chunk would hold four times the payload.
type fastCDCChunker struct {
	r   io.Reader
	cfg fastCDCConfig
	// gear is the gear table; gear2 is gear shifted left by one, and
	// maskS2 and maskL2 are the masks shifted likewise: after the first
	// byte of a step the hash is held one bit up, and since no mask has
	// bit 63 (fastCDCMasks draws from [16, 62)) h<<1 & mask<<1 == 0
	// exactly when h & mask == 0.
	gear, gear2   [256]uint64
	maskS, maskS2 uint64 // stricter mask, before the normal point
	maskL, maskL2 uint64 // looser mask, after the normal point
	carry         []byte // bytes read past the last cut
	work          []byte // the buffer every chunk is read into; nil when pooled
	offset        int64
	rerr          error // the reader's error (io.EOF when drained)
	options
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
	fc := &fastCDCChunker{
		r:       r,
		cfg:     cfg,
		gear:    gearTable(seed),
		carry:   make([]byte, 0, fastCDCStep),
		options: applyOptions(opts),
	}
	if !fc.pooled {
		fc.work = make([]byte, cfg.Max)
	}
	for i, g := range fc.gear {
		fc.gear2[i] = g << 1
	}
	fc.maskS, fc.maskL = fastCDCMasks(cfg.Avg, cfg.Normalization, seed)
	fc.maskS2, fc.maskL2 = fc.maskS<<1, fc.maskL<<1
	return fc, nil
}

// Next implements Chunker. A read error surfaces once no cut can be found
// in the bytes read before it; a chunk is never cut short by one.
func (fc *fastCDCChunker) Next() (Chunk, error) {
	if len(fc.carry) == 0 && fc.rerr != nil {
		return Chunk{}, fc.err()
	}
	buf := fc.work
	if buf == nil {
		buf = fc.alloc(fc.cfg.Max)
	}
	filled := copy(buf, fc.carry)
	fc.carry = fc.carry[:0]
	// Bytes before Min are never hashed; scanned is where the search
	// stands, h the hash of buf[Min:scanned].
	scanned, h := fc.cfg.Min, uint64(0)
	for {
		if filled > scanned {
			var cut int
			if cut, h = fc.scan(buf, scanned, filled, h); cut > 0 {
				return fc.emit(buf, cut, filled), nil
			}
			scanned = filled
		}
		if filled == fc.cfg.Max {
			return fc.emit(buf, filled, filled), nil
		}
		if fc.rerr != nil {
			break
		}
		n, err := fc.r.Read(buf[filled:min(fc.cfg.Max, max(filled, fc.cfg.Min)+fastCDCStep)])
		filled += n
		if err != nil {
			fc.rerr = err
		}
	}
	if fc.rerr == io.EOF && filled > 0 {
		return fc.emit(buf, filled, filled), nil
	}
	// Nothing left, or a read error with a partial chunk: surface it
	// rather than emit a chunk that silently truncates the stream.
	fc.unused(buf)
	return Chunk{}, fc.err()
}

func (fc *fastCDCChunker) err() error {
	if fc.rerr == io.EOF {
		return io.EOF
	}
	return fmt.Errorf("fastcdc read: %w", fc.rerr)
}

// emit hands out buf[:cut] and keeps buf[cut:filled] for the next chunk.
func (fc *fastCDCChunker) emit(buf []byte, cut, filled int) Chunk {
	fc.carry = append(fc.carry, buf[cut:filled]...)
	ch := Chunk{Data: buf[:cut], Offset: fc.offset}
	if fc.work != nil {
		ch.Data = bytes.Clone(ch.Data)
	}
	fc.offset += int64(cut)
	return ch
}

// scan continues the normalized-chunking search of the paper (Algorithm
// 2) over buf[from:to], from ≥ Min, with h the hash of buf[Min:from]: the
// stricter mask until the normal point (Avg), then the looser one. It
// returns the cut — the end of the chunk — or 0, and the hash.
func (fc *fastCDCChunker) scan(buf []byte, from, to int, h uint64) (int, uint64) {
	if normal := min(fc.cfg.Avg, to); from < normal {
		var cut int
		if cut, h = fc.roll(buf[:normal], from, h, fc.maskS, fc.maskS2); cut > 0 {
			return cut, h
		}
		from = normal
	}
	return fc.roll(buf[:to], from, h, fc.maskL, fc.maskL2)
}

// roll runs the gear hash over src[i:], two bytes a step, and returns the
// first position after which h&mask == 0, or 0. A step's hash is
// h<<2 + (gear2[a] + gear[b]): one shift and one add on the chain from
// step to step, with the first byte's check beside it (FastCDC-2020's
// rolling two bytes; BenchmarkFastCDC pooled 940 → 1140 MB/s against
// adding the bytes one after the other).
func (fc *fastCDCChunker) roll(src []byte, i int, h, mask, mask2 uint64) (int, uint64) {
	for ; i+1 < len(src); i += 2 {
		g2, g := fc.gear2[src[i]], fc.gear[src[i+1]]
		hs := h << 2
		if (hs+g2)&mask2 == 0 {
			return i + 1, h
		}
		if h = hs + (g2 + g); h&mask == 0 {
			return i + 2, h
		}
	}
	if i < len(src) {
		if h = h<<1 + fc.gear[src[i]]; h&mask == 0 {
			return i + 1, h
		}
	}
	return 0, h
}
