package chunker

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomBytes returns n deterministic pseudo-random bytes.
func randomBytes(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// reassemble concatenates chunk payloads.
func reassemble(chunks []Chunk) []byte {
	var out []byte
	for _, c := range chunks {
		out = append(out, c.Data...)
	}
	return out
}

// checkOffsets verifies chunk offsets are contiguous from zero.
func checkOffsets(t *testing.T, chunks []Chunk) {
	t.Helper()
	var want int64
	for i, c := range chunks {
		if c.Offset != want {
			t.Fatalf("chunk %d offset = %d, want %d", i, c.Offset, want)
		}
		want += int64(len(c.Data))
	}
}

func TestFixedChunkerExactMultiple(t *testing.T) {
	data := randomBytes(1, 4096*4)
	c, err := newFixed(bytes.NewReader(data), 4096)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := SplitAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 4 {
		t.Fatalf("got %d chunks, want 4", len(chunks))
	}
	for i, ch := range chunks {
		if ch.Len() != 4096 {
			t.Errorf("chunk %d len = %d, want 4096", i, ch.Len())
		}
	}
	if !bytes.Equal(reassemble(chunks), data) {
		t.Fatal("reassembled data differs from input")
	}
	checkOffsets(t, chunks)
}

func TestFixedChunkerTail(t *testing.T) {
	data := randomBytes(2, 10000)
	c, _ := newFixed(bytes.NewReader(data), 4096)
	chunks, err := SplitAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 3 {
		t.Fatalf("got %d chunks, want 3", len(chunks))
	}
	if chunks[2].Len() != 10000-2*4096 {
		t.Fatalf("tail len = %d, want %d", chunks[2].Len(), 10000-2*4096)
	}
	if !bytes.Equal(reassemble(chunks), data) {
		t.Fatal("reassembled data differs from input")
	}
}

func TestFixedChunkerEmpty(t *testing.T) {
	c, _ := newFixed(bytes.NewReader(nil), 4096)
	chunks, err := SplitAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 0 {
		t.Fatalf("got %d chunks from empty input, want 0", len(chunks))
	}
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("Next after EOF = %v, want io.EOF", err)
	}
}

func TestFixedChunkerInvalidSize(t *testing.T) {
	for _, size := range []int{0, -1} {
		if _, err := newFixed(bytes.NewReader(nil), size); err == nil {
			t.Errorf("newFixed(size=%d) succeeded, want error", size)
		}
	}
}

func TestRabinReassembly(t *testing.T) {
	data := randomBytes(3, 1<<20)
	c, err := NewRabin(bytes.NewReader(data), 0, 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := SplitAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reassemble(chunks), data) {
		t.Fatal("reassembled data differs from input")
	}
	checkOffsets(t, chunks)
}

func TestRabinBounds(t *testing.T) {
	data := randomBytes(4, 1<<20)
	c, _ := NewRabin(bytes.NewReader(data), 1024, 4096, 16384)
	chunks, err := SplitAll(c)
	if err != nil {
		t.Fatal(err)
	}
	for i, ch := range chunks {
		if i < len(chunks)-1 && ch.Len() < 1024 {
			t.Errorf("chunk %d len %d < min 1024", i, ch.Len())
		}
		if ch.Len() > 16384 {
			t.Errorf("chunk %d len %d > max 16384", i, ch.Len())
		}
	}
}

func TestRabinAverageSize(t *testing.T) {
	data := randomBytes(5, 4<<20)
	c, _ := NewRabin(bytes.NewReader(data), 0, 4096, 0)
	chunks, err := SplitAll(c)
	if err != nil {
		t.Fatal(err)
	}
	avg := len(data) / len(chunks)
	// On random data the observed mean should be within 2x of target.
	if avg < 2048 || avg > 8192 {
		t.Fatalf("average chunk size %d not near 4096", avg)
	}
}

func TestRabinDeterministic(t *testing.T) {
	data := randomBytes(6, 1<<19)
	cut := func() []int {
		c, _ := NewRabin(bytes.NewReader(data), 0, 4096, 0)
		chunks, err := SplitAll(c)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, len(chunks))
		for i, ch := range chunks {
			out[i] = ch.Len()
		}
		return out
	}
	a, b := cut(), cut()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic chunk count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chunk %d size differs: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestRabinShiftResistance is the core CDC property: inserting bytes near
// the front of a stream must not change the cut points far downstream.
// This is what lets CDC find more redundancy than SC on edited data.
func TestRabinShiftResistance(t *testing.T) {
	base := randomBytes(7, 1<<20)
	shifted := append(randomBytes(8, 13), base...) // 13-byte insertion

	cutSet := func(data []byte) map[string]bool {
		c, _ := NewRabin(bytes.NewReader(data), 0, 4096, 0)
		chunks, _ := SplitAll(c)
		set := make(map[string]bool, len(chunks))
		for _, ch := range chunks {
			set[string(ch.Data)] = true
		}
		return set
	}
	baseSet := cutSet(base)
	shiftedSet := cutSet(shifted)
	var shared int
	for k := range shiftedSet {
		if baseSet[k] {
			shared++
		}
	}
	// All but the first few chunks should realign.
	if frac := float64(shared) / float64(len(baseSet)); frac < 0.9 {
		t.Fatalf("only %.0f%% of chunks shared after 13-byte insertion; CDC should realign", frac*100)
	}
}

func TestRabinInvalidConfig(t *testing.T) {
	tests := []struct {
		name          string
		min, avg, max int
	}{
		{"avg not power of two", 0, 5000, 0},
		{"avg zero", 0, 0, 0},
		{"min above avg", 8192, 4096, 16384},
		{"max below avg", 1024, 4096, 2048},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewRabin(bytes.NewReader(nil), tt.min, tt.avg, tt.max); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestTTTDReassembly(t *testing.T) {
	data := randomBytes(9, 1<<20)
	c, err := NewTTTD(bytes.NewReader(data), DefaultTTTDConfig())
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := SplitAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reassemble(chunks), data) {
		t.Fatal("reassembled data differs from input")
	}
	checkOffsets(t, chunks)
}

func TestTTTDBounds(t *testing.T) {
	data := randomBytes(10, 2<<20)
	cfg := DefaultTTTDConfig()
	c, _ := NewTTTD(bytes.NewReader(data), cfg)
	chunks, err := SplitAll(c)
	if err != nil {
		t.Fatal(err)
	}
	for i, ch := range chunks {
		if i < len(chunks)-1 && ch.Len() < cfg.Min {
			t.Errorf("chunk %d len %d < min %d", i, ch.Len(), cfg.Min)
		}
		if ch.Len() > cfg.Max {
			t.Errorf("chunk %d len %d > max %d", i, ch.Len(), cfg.Max)
		}
	}
	avg := len(data) / len(chunks)
	if avg < cfg.Min || avg > cfg.Max/2 {
		t.Fatalf("TTTD average chunk size %d outside plausible band [%d,%d]", avg, cfg.Min, cfg.Max/2)
	}
}

func TestTTTDConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  tttdConfig
		ok   bool
	}{
		{"default", DefaultTTTDConfig(), true},
		{"zero min", tttdConfig{0, 2048, 4096, 32768}, false},
		{"min >= minor", tttdConfig{2048, 2048, 4096, 32768}, false},
		{"major >= max", tttdConfig{1024, 2048, 32768, 32768}, false},
		{"minor == major ok", tttdConfig{1024, 4096, 4096, 32768}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err == nil) != tt.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestNewDispatch(t *testing.T) {
	data := randomBytes(11, 1<<16)
	for _, m := range []Method{Fixed, Rabin, TTTD, FastCDC} {
		c, err := New(m, bytes.NewReader(data), 4096)
		if err != nil {
			t.Fatalf("New(%v): %v", m, err)
		}
		chunks, err := SplitAll(c)
		if err != nil {
			t.Fatalf("SplitAll(%v): %v", m, err)
		}
		if !bytes.Equal(reassemble(chunks), data) {
			t.Fatalf("method %v: reassembly mismatch", m)
		}
	}
	if _, err := New(Method(42), bytes.NewReader(data), 4096); err == nil {
		t.Fatal("New(unknown) succeeded, want error")
	}
}

func TestMethodString(t *testing.T) {
	if Fixed.String() != "SC" || Rabin.String() != "CDC" || TTTD.String() != "TTTD" {
		t.Fatal("method names changed")
	}
}

// Property: every chunker preserves the byte stream exactly, regardless of
// input size or content.
func TestPropertyReassemblyAllMethods(t *testing.T) {
	f := func(seed int64, kb uint8) bool {
		data := randomBytes(seed, int(kb)*512)
		for _, m := range []Method{Fixed, Rabin, TTTD, FastCDC} {
			c, err := New(m, bytes.NewReader(data), 1024)
			if err != nil {
				return false
			}
			chunks, err := SplitAll(c)
			if err != nil {
				return false
			}
			if !bytes.Equal(reassemble(chunks), data) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRabinCDC4KB(b *testing.B) {
	data := randomBytes(100, 4<<20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, _ := NewRabin(bytes.NewReader(data), 0, 4096, 0)
		if _, err := SplitAll(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFixed4KB(b *testing.B) {
	data := randomBytes(101, 4<<20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, _ := newFixed(bytes.NewReader(data), 4096)
		if _, err := SplitAll(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTTTD(b *testing.B) {
	data := randomBytes(102, 4<<20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, _ := NewTTTD(bytes.NewReader(data), DefaultTTTDConfig())
		if _, err := SplitAll(c); err != nil {
			b.Fatal(err)
		}
	}
}
