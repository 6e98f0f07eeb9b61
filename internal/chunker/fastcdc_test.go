package chunker

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current implementation")

func TestFastCDCReassembly(t *testing.T) {
	data := randomBytes(31, 1<<20)
	chunks := splitBoth(t, func() (Chunker, error) {
		return newFastCDC(bytes.NewReader(data), defaultFastCDCConfig())
	})
	checkReassembly(t, data, chunks)
}

func TestFastCDCBounds(t *testing.T) {
	data := randomBytes(32, 2<<20)
	cfg := defaultFastCDCConfig()
	chunks := splitBoth(t, func() (Chunker, error) { return newFastCDC(bytes.NewReader(data), cfg) })
	checkReassembly(t, data, chunks)
	checkBounds(t, chunks, cfg.Min, cfg.Max)
	if len(chunks) < 8 {
		t.Fatalf("only %d chunks from 2MB; FastCDC is not cutting", len(chunks))
	}
}

// TestFastCDCAverageSize checks that normalized chunking lands the mean
// chunk size in a sane band around the configured normal point on random
// data (the paper's NC2 squeezes the distribution toward Avg).
func TestFastCDCAverageSize(t *testing.T) {
	data := randomBytes(33, 8<<20)
	cfg := defaultFastCDCConfig()
	chunks := splitBoth(t, func() (Chunker, error) { return newFastCDC(bytes.NewReader(data), cfg) })
	avg := float64(len(data)) / float64(len(chunks))
	if avg < float64(cfg.Avg)/2 || avg > float64(cfg.Avg)*2 {
		t.Fatalf("mean chunk size %.0f, want within 2x of %d", avg, cfg.Avg)
	}
}

// TestFastCDCNormalization: raising the normalization level must tighten
// the chunk-size spread (fewer chunks far from the normal point) — the
// defining property of normalized chunking vs plain gear CDC.
func TestFastCDCNormalization(t *testing.T) {
	data := randomBytes(34, 8<<20)
	spread := func(norm int) float64 {
		cfg := defaultFastCDCConfig()
		cfg.Normalization = norm
		c, err := newFastCDC(bytes.NewReader(data), cfg)
		if err != nil {
			t.Fatal(err)
		}
		chunks, err := SplitAll(c)
		if err != nil {
			t.Fatal(err)
		}
		mean := float64(len(data)) / float64(len(chunks))
		var varsum float64
		for _, ch := range chunks {
			d := float64(len(ch.Data)) - mean
			varsum += d * d
		}
		return varsum / float64(len(chunks)) / (mean * mean) // squared coefficient of variation
	}
	if s0, s2 := spread(0), spread(2); s2 >= s0 {
		t.Fatalf("normalization did not tighten the size distribution: cv^2 %.3f (NC0) vs %.3f (NC2)", s0, s2)
	}
}

// TestFastCDCShiftResistance: inserting bytes near the front must leave
// the majority of downstream cut points intact (content-defined
// boundaries re-synchronize; fixed chunking would shift every one).
func TestFastCDCShiftResistance(t *testing.T) {
	data := randomBytes(35, 1<<20)
	cfg := defaultFastCDCConfig()
	cuts := func(input []byte) map[string]struct{} {
		c, err := newFastCDC(bytes.NewReader(input), cfg)
		if err != nil {
			t.Fatal(err)
		}
		chunks, err := SplitAll(c)
		if err != nil {
			t.Fatal(err)
		}
		set := make(map[string]struct{}, len(chunks))
		for _, ch := range chunks {
			set[string(ch.Data)] = struct{}{}
		}
		return set
	}
	orig := cuts(data)
	shifted := cuts(append([]byte("INSERTED-PREFIX-BYTES"), data...))
	shared := 0
	for k := range shifted {
		if _, ok := orig[k]; ok {
			shared++
		}
	}
	if frac := float64(shared) / float64(len(orig)); frac < 0.9 {
		t.Fatalf("only %.0f%% of chunks survive a front insertion, want >= 90%%", frac*100)
	}
}

func TestFastCDCConfigValidate(t *testing.T) {
	bad := []fastCDCConfig{
		{Min: 0, Avg: 8192, Max: 65536},
		{Min: 2048, Avg: 8191, Max: 65536},  // avg not a power of two
		{Min: 16384, Avg: 8192, Max: 65536}, // min > avg
		{Min: 2048, Avg: 8192, Max: 4096},   // avg > max
		{Min: 2048, Avg: 8192, Max: 65536, Normalization: -1},
		{Min: 2048, Avg: 8192, Max: 65536, Normalization: 13},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %d (%+v) validated, want error", i, cfg)
		}
	}
	if err := defaultFastCDCConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

// TestFastCDCSeedDivergence: different gear seeds must produce different
// cut points (peers of one dedup domain must share the seed).
func TestFastCDCSeedDivergence(t *testing.T) {
	data := randomBytes(36, 1<<20)
	cfg := defaultFastCDCConfig()
	offsets := func(seed uint64) []int64 {
		c := cfg
		c.Seed = seed
		ck, err := newFastCDC(bytes.NewReader(data), c)
		if err != nil {
			t.Fatal(err)
		}
		chunks, err := SplitAll(ck)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int64, len(chunks))
		for i, ch := range chunks {
			out[i] = ch.Offset
		}
		return out
	}
	a, b := offsets(1), offsets(2)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical cut points")
	}
}

// TestFastCDCGoldenCutPoints pins the exact cut points of the default
// configuration on a fixed pseudo-random input. Chunk boundaries are the
// dedup domain's shared vocabulary: any drift in the gear table, masks,
// or scan loop silently destroys cross-version deduplication, so the
// boundary layout is a compatibility contract, not an implementation
// detail. Regenerate deliberately with -update after an intentional
// format break.
func TestFastCDCGoldenCutPoints(t *testing.T) {
	data := randomBytes(1234, 512<<10)
	c, err := newFastCDC(bytes.NewReader(data), defaultFastCDCConfig())
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := SplitAll(c)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, ch := range chunks {
		fmt.Fprintf(&sb, "%d %d\n", ch.Offset, len(ch.Data))
	}
	got := sb.String()

	golden := filepath.Join("testdata", "fastcdc_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("cut points diverge from golden at chunk %d: got %q, want %q (format break? regenerate with -update)", i, gl[i], wl[i])
			}
		}
		t.Fatalf("cut-point count diverges from golden: got %d chunks, want %d", len(gl)-1, len(wl)-1)
	}
	// Sanity-pin the first cut so the golden itself can't silently rot:
	// it must parse and reassemble to the input length.
	var total int
	for _, line := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		_, lenStr, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		n, err := strconv.Atoi(lenStr)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != len(data) {
		t.Fatalf("golden covers %d bytes, input is %d", total, len(data))
	}
}

// BenchmarkFastCDC splits 4MB of random data at the default 8KB average,
// into heap buffers and into buffers a pool recycles as soon as a chunk
// is consumed — the backup path's allocator, under which chunks are read
// in place.
func BenchmarkFastCDC(b *testing.B) {
	data := randomBytes(103, 4<<20)
	b.Run("heap", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for b.Loop() {
			c, _ := newFastCDC(bytes.NewReader(data), defaultFastCDCConfig())
			if _, err := SplitAll(c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		var free [][]byte
		alloc := func(n int) []byte {
			if k := len(free) - 1; k >= 0 {
				buf := free[k]
				free = free[:k]
				return buf[:n]
			}
			return make([]byte, n)
		}
		release := func(buf []byte) { free = append(free, buf) }
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for b.Loop() {
			c, _ := newFastCDC(bytes.NewReader(data), defaultFastCDCConfig(), WithAllocator(alloc, release))
			for {
				ch, err := c.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
				release(ch.Data)
			}
		}
	})
}
