package chunker

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// fuzzTTTD is a scaled-down TTTD configuration so that fuzz-sized inputs
// (bytes to a few KB) actually exercise the main-divisor, backup-divisor
// and hard-cut paths instead of always returning one terminal chunk.
func fuzzTTTD() tttdConfig {
	return tttdConfig{Min: 64, MinorMean: 128, MajorMean: 256, Max: 512}
}

// fuzzFastCDC is the matching scaled-down FastCDC configuration: small
// inputs hit the stricter-mask, looser-mask and hard-cut regions of
// Algorithm 2 rather than always terminating early.
func fuzzFastCDC() fastCDCConfig {
	return fastCDCConfig{Min: 64, Avg: 128, Max: 512, Normalization: 2}
}

// splitBoth runs a fresh chunker twice over the same input and checks
// determinism, then returns the chunks of the first run.
func splitBoth(t *testing.T, mk func() (Chunker, error)) []Chunk {
	t.Helper()
	c1, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	first, err := SplitAll(c1)
	if err != nil {
		t.Fatalf("SplitAll: %v", err)
	}
	c2, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	second, err := SplitAll(c2)
	if err != nil {
		t.Fatalf("SplitAll (2nd run): %v", err)
	}
	if len(first) != len(second) {
		t.Fatalf("non-deterministic: %d chunks then %d", len(first), len(second))
	}
	for i := range first {
		if first[i].Offset != second[i].Offset || !bytes.Equal(first[i].Data, second[i].Data) {
			t.Fatalf("non-deterministic at chunk %d", i)
		}
	}
	return first
}

// checkReassembly: chunks concatenate byte-identically back to the input
// and offsets are contiguous.
func checkReassembly(t *testing.T, input []byte, chunks []Chunk) {
	t.Helper()
	var rebuilt []byte
	var offset int64
	for i, ch := range chunks {
		if ch.Offset != offset {
			t.Fatalf("chunk %d offset = %d, want %d (gap or overlap)", i, ch.Offset, offset)
		}
		if len(ch.Data) == 0 {
			t.Fatalf("chunk %d is empty", i)
		}
		rebuilt = append(rebuilt, ch.Data...)
		offset += int64(len(ch.Data))
	}
	if !bytes.Equal(rebuilt, input) {
		t.Fatalf("reassembly mismatch: %d bytes in, %d bytes out", len(input), len(rebuilt))
	}
}

// checkBounds: every chunk respects [min, max]; only the terminal chunk
// may undercut min (a stream tail shorter than the minimum is emitted,
// not discarded).
func checkBounds(t *testing.T, chunks []Chunk, min, max int) {
	t.Helper()
	for i, ch := range chunks {
		if len(ch.Data) > max {
			t.Fatalf("chunk %d is %d bytes, above max %d", i, len(ch.Data), max)
		}
		if len(ch.Data) < min && i != len(chunks)-1 {
			t.Fatalf("non-terminal chunk %d is %d bytes, below min %d", i, len(ch.Data), min)
		}
	}
}

// FuzzChunkers is the property harness for all three chunking
// algorithms: for arbitrary inputs, chunks must concatenate back to the
// input, every chunk must respect the configured bounds (terminal chunk
// excepted below min), and chunking must be deterministic.
func FuzzChunkers(f *testing.F) {
	f.Add([]byte(""), uint16(1))
	f.Add([]byte("a"), uint16(1))
	f.Add([]byte("hello, chunked world"), uint16(7))
	f.Add(bytes.Repeat([]byte{0}, 4096), uint16(64))
	f.Add(bytes.Repeat([]byte("ab"), 1000), uint16(3))
	rng := rand.New(rand.NewSource(99))
	big := make([]byte, 8<<10)
	rng.Read(big)
	f.Add(big, uint16(128))
	f.Add(big[:2222], uint16(513))

	f.Fuzz(func(t *testing.T, data []byte, sizeHint uint16) {
		// Fixed: every chunk exactly size bytes, except a shorter last.
		size := 1 + int(sizeHint)%4096
		fixed := splitBoth(t, func() (Chunker, error) { return newFixed(bytes.NewReader(data), size) })
		checkReassembly(t, data, fixed)
		checkBounds(t, fixed, size, size)
		for i, ch := range fixed {
			if len(ch.Data) != size && i != len(fixed)-1 {
				t.Fatalf("fixed chunk %d is %d bytes, want %d", i, len(ch.Data), size)
			}
		}

		// Rabin CDC: avg must be a power of two; default min=avg/4,
		// max=avg*4.
		avg := 1 << (3 + int(sizeHint)%8) // 8..1024
		rabin := splitBoth(t, func() (Chunker, error) { return NewRabin(bytes.NewReader(data), 0, avg, 0) })
		checkReassembly(t, data, rabin)
		checkBounds(t, rabin, avg/4, avg*4)

		// TTTD with fuzz-scaled thresholds.
		cfg := fuzzTTTD()
		tttd := splitBoth(t, func() (Chunker, error) { return NewTTTD(bytes.NewReader(data), cfg) })
		checkReassembly(t, data, tttd)
		checkBounds(t, tttd, cfg.Min, cfg.Max)

		// FastCDC with fuzz-scaled bounds.
		fcfg := fuzzFastCDC()
		fc := splitBoth(t, func() (Chunker, error) { return newFastCDC(bytes.NewReader(data), fcfg) })
		checkReassembly(t, data, fc)
		checkBounds(t, fc, fcfg.Min, fcfg.Max)
	})
}

// TestChunkerPropertiesOnRandomInputs is the always-on (non-fuzz) slice
// of the property suite: the same invariants over a spread of seeded
// random inputs, so plain `go test` exercises them without -fuzz.
func TestChunkerPropertiesOnRandomInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{0, 1, 63, 64, 65, 1000, 4096, 10000, 64 << 10}
	for _, n := range sizes {
		data := make([]byte, n)
		rng.Read(data)
		for _, hint := range []uint16{1, 64, 512, 4095} {
			size := 1 + int(hint)%4096
			fixed := splitBoth(t, func() (Chunker, error) { return newFixed(bytes.NewReader(data), size) })
			checkReassembly(t, data, fixed)
			checkBounds(t, fixed, size, size)

			avg := 1 << (3 + int(hint)%8)
			rabin := splitBoth(t, func() (Chunker, error) { return NewRabin(bytes.NewReader(data), 0, avg, 0) })
			checkReassembly(t, data, rabin)
			checkBounds(t, rabin, avg/4, avg*4)

			cfg := fuzzTTTD()
			tttd := splitBoth(t, func() (Chunker, error) { return NewTTTD(bytes.NewReader(data), cfg) })
			checkReassembly(t, data, tttd)
			checkBounds(t, tttd, cfg.Min, cfg.Max)

			fcfg := fuzzFastCDC()
			fc := splitBoth(t, func() (Chunker, error) { return newFastCDC(bytes.NewReader(data), fcfg) })
			checkReassembly(t, data, fc)
			checkBounds(t, fc, fcfg.Min, fcfg.Max)
		}
	}
}

// TestTTTDDefaultConfigBounds runs the paper's real TTTD thresholds over
// larger inputs (the fuzz harness uses scaled-down ones).
func TestTTTDDefaultConfigBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := make([]byte, 256<<10)
	rng.Read(data)
	cfg := DefaultTTTDConfig()
	chunks := splitBoth(t, func() (Chunker, error) { return NewTTTD(bytes.NewReader(data), cfg) })
	checkReassembly(t, data, chunks)
	checkBounds(t, chunks, cfg.Min, cfg.Max)
	if len(chunks) < 4 {
		t.Fatalf("only %d chunks from 256KB; TTTD is not cutting", len(chunks))
	}
}

// TestChunkersDrainAfterEOF: a drained chunker keeps returning io.EOF.
func TestChunkersDrainAfterEOF(t *testing.T) {
	data := bytes.Repeat([]byte("x"), 300)
	mks := map[string]func() (Chunker, error){
		"fixed":   func() (Chunker, error) { return newFixed(bytes.NewReader(data), 128) },
		"rabin":   func() (Chunker, error) { return NewRabin(bytes.NewReader(data), 0, 64, 0) },
		"tttd":    func() (Chunker, error) { return NewTTTD(bytes.NewReader(data), fuzzTTTD()) },
		"fastcdc": func() (Chunker, error) { return newFastCDC(bytes.NewReader(data), fuzzFastCDC()) },
	}
	for name, mk := range mks {
		c, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SplitAll(c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < 3; i++ {
			if _, err := c.Next(); err != io.EOF {
				t.Fatalf("%s: Next after drain = %v, want io.EOF", name, err)
			}
		}
	}
}
