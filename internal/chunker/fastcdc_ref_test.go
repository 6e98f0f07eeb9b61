package chunker

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"
	"testing/iotest"
	"unsafe"
)

// refFastCDC is the FastCDC chunker as it was before it read in place: it
// buffers up to Max bytes in a work buffer, slides the unconsumed tail to
// the front on every refill, rolls the gear hash one byte at a time and
// copies each chunk out. The differential tests hold the chunker to its
// cut points and to its way of surfacing read errors.
type refFastCDC struct {
	r            io.Reader
	cfg          fastCDCConfig
	gear         [256]uint64
	maskS, maskL uint64
	buf          []byte
	pos, filled  int
	offset       int64
	rerr         error
}

func newRefFastCDC(r io.Reader, cfg fastCDCConfig) *refFastCDC {
	seed := cfg.Seed
	if seed == 0 {
		seed = defaultGearSeed
	}
	maskS, maskL := fastCDCMasks(cfg.Avg, cfg.Normalization, seed)
	return &refFastCDC{r: r, cfg: cfg, gear: gearTable(seed), maskS: maskS, maskL: maskL, buf: make([]byte, max(cfg.Max, 64<<10))}
}

func (fc *refFastCDC) Next() (Chunk, error) {
	if fc.filled-fc.pos < fc.cfg.Max && fc.rerr == nil {
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
	n := fc.filled - fc.pos
	if n == 0 {
		if fc.rerr != nil && fc.rerr != io.EOF {
			return Chunk{}, fmt.Errorf("fastcdc read: %w", fc.rerr)
		}
		return Chunk{}, io.EOF
	}
	if fc.rerr != nil && fc.rerr != io.EOF && n < fc.cfg.Max {
		return Chunk{}, fmt.Errorf("fastcdc read: %w", fc.rerr)
	}
	cut := fc.cutpoint(fc.buf[fc.pos : fc.pos+min(n, fc.cfg.Max)])
	out := bytes.Clone(fc.buf[fc.pos : fc.pos+cut])
	ch := Chunk{Data: out, Offset: fc.offset}
	fc.pos += cut
	fc.offset += int64(cut)
	return ch, nil
}

func (fc *refFastCDC) cutpoint(src []byte) int {
	n := len(src)
	if n <= fc.cfg.Min {
		return n
	}
	var h uint64
	i := fc.cfg.Min
	normal := min(fc.cfg.Avg, n)
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

// errBroken is what a reader that fails mid-stream returns.
var errBroken = errors.New("injected: reader broke")

// readerShapes slice a stream the ways a caller's reader may: whole,
// a byte at a time, half of every request, the last bytes with io.EOF,
// and failing after failAt bytes.
func readerShapes(failAt int) []struct {
	name string
	wrap func([]byte) io.Reader
} {
	return []struct {
		name string
		wrap func([]byte) io.Reader
	}{
		{"whole", func(b []byte) io.Reader { return bytes.NewReader(b) }},
		{"one-byte", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
		{"half", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
		{"data-err", func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) }},
		{fmt.Sprintf("fail-at-%d", failAt), func(b []byte) io.Reader {
			return io.MultiReader(bytes.NewReader(b[:min(failAt, len(b))]), iotest.ErrReader(errBroken))
		}},
	}
}

// drain is SplitAll that also returns the error ending the stream.
func drain(c Chunker) ([]Chunk, error) {
	var chunks []Chunk
	for {
		ch, err := c.Next()
		if err != nil {
			return chunks, err
		}
		chunks = append(chunks, ch)
	}
}

// checkAgainstReference splits data with the chunker and the reference
// through the same reader shape. Without a read error the chunks are the
// reference's, byte for byte. With one, both return it, wrapped alike;
// the chunks before it are those of the error-free stream, at least as
// many as the reference's — which reads Max bytes ahead of every cut —
// and never one cut short. With pooled buffers no two chunks alias.
func checkAgainstReference(t *testing.T, data []byte, cfg fastCDCConfig, wrap func([]byte) io.Reader, pooled bool) {
	t.Helper()
	want, err := SplitAll(newRefFastCDC(bytes.NewReader(data), cfg))
	if err != nil {
		t.Fatal(err)
	}
	refChunks, refErr := drain(newRefFastCDC(wrap(data), cfg))
	var opts []option
	if pooled {
		// No buffer is ever reused, so any overlap is the chunker's.
		opts = append(opts, WithAllocator(func(n int) []byte { return make([]byte, n) }))
	}
	c, err := newFastCDC(wrap(data), cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	got, gotErr := drain(c)
	if (refErr == io.EOF) != (gotErr == io.EOF) || refErr.Error() != gotErr.Error() {
		t.Fatalf("%+v: stream ended with %v, reference with %v", cfg, gotErr, refErr)
	}
	if gotErr != io.EOF && !errors.Is(gotErr, errBroken) {
		t.Fatalf("%+v: %v does not wrap the reader's error", cfg, gotErr)
	}
	if gotErr == io.EOF && len(got) != len(want) || len(got) < len(refChunks) || len(got) > len(want) {
		t.Fatalf("%+v: %d chunks before %v; the reference returns %d, the error-free stream has %d", cfg, len(got), gotErr, len(refChunks), len(want))
	}
	for i, ch := range got {
		if ch.Offset != want[i].Offset || !bytes.Equal(ch.Data, want[i].Data) {
			t.Fatalf("%+v: chunk %d is (%d, %d bytes), the reference's (%d, %d bytes)", cfg, i, ch.Offset, len(ch.Data), want[i].Offset, len(want[i].Data))
		}
	}
	spans := make([][2]uintptr, len(got))
	for i, ch := range got {
		at := uintptr(unsafe.Pointer(unsafe.SliceData(ch.Data)))
		spans[i] = [2]uintptr{at, at + uintptr(len(ch.Data))}
	}
	slices.SortFunc(spans, func(a, b [2]uintptr) int { return cmp.Compare(a[0], b[0]) })
	for i := 1; i < len(spans); i++ {
		if spans[i][0] < spans[i-1][1] {
			t.Fatalf("%+v: two chunks share bytes", cfg)
		}
	}
}

// TestFastCDCMatchesReference runs the chunker against the reference at
// 4-64KB averages and every normalization level, through every reader
// shape, into heap and into pooled buffers.
func TestFastCDCMatchesReference(t *testing.T) {
	data := randomBytes(35, 3<<20)
	for avgKB := 4; avgKB <= 64; avgKB *= 2 {
		for norm := 0; norm <= 3; norm++ {
			avg := avgKB << 10
			cfg := fastCDCConfig{Min: avg / 4, Avg: avg, Max: avg * 4, Normalization: norm}
			// The one-byte shape reads 3MB a byte at a time: a slice of it.
			in := data[:(norm+1)*avg*5]
			for _, shape := range readerShapes(len(in) / 2) {
				for _, pooled := range []bool{false, true} {
					t.Run(fmt.Sprintf("avg=%dKB/nc=%d/%s/pooled=%v", avgKB, norm, shape.name, pooled), func(t *testing.T) {
						checkAgainstReference(t, in, cfg, shape.wrap, pooled)
					})
				}
			}
			t.Run(fmt.Sprintf("avg=%dKB/nc=%d/3MB", avgKB, norm), func(t *testing.T) {
				checkAgainstReference(t, data, cfg, func(b []byte) io.Reader { return bytes.NewReader(b) }, true)
			})
		}
	}
}

// FuzzFastCDCReference is TestFastCDCMatchesReference over arbitrary
// input at scaled-down sizes (64B-1KB averages), so fuzz-sized inputs
// reach every region of the scan.
func FuzzFastCDCReference(f *testing.F) {
	f.Add([]byte(""), uint8(0), uint16(0))
	f.Add(bytes.Repeat([]byte{0}, 4096), uint8(9), uint16(100))
	f.Add(randomBytes(36, 8<<10), uint8(2), uint16(3000))
	f.Add(randomBytes(37, 3<<10), uint8(23), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, cfgHint uint8, failAt uint16) {
		avg := 64 << (cfgHint % 5)
		cfg := fastCDCConfig{Min: avg / 4, Avg: avg, Max: avg * 4, Normalization: int(cfgHint/5) % 4}
		for _, shape := range readerShapes(int(failAt)) {
			for _, pooled := range []bool{false, true} {
				checkAgainstReference(t, data, cfg, shape.wrap, pooled)
			}
		}
	})
}
