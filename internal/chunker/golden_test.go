package chunker

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// cutPoints chunks data through New — the constructor every product path
// uses — and returns each chunk's end offset, checking that the chunks
// tile the input.
func cutPoints(t *testing.T, m Method, size int, data []byte) []int64 {
	t.Helper()
	c, err := New(m, bytes.NewReader(data), size)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := SplitAll(c)
	if err != nil {
		t.Fatal(err)
	}
	cuts := make([]int64, len(chunks))
	var next int64
	for i, ch := range chunks {
		if ch.Offset != next {
			t.Fatalf("%v: chunk %d starts at %d, want %d", m, i, ch.Offset, next)
		}
		next += int64(len(ch.Data))
		cuts[i] = next
	}
	if next != int64(len(data)) {
		t.Fatalf("%v: chunks cover %d of %d bytes", m, next, len(data))
	}
	return cuts
}

// TestGoldenCutPoints pins, per chunking method, where a seeded 1 MB
// buffer is cut: the chunk count, the first 16 cut offsets and the
// SHA-256 of the whole offset list (decimal, one per line). Chunk
// boundaries are the dedup domain's vocabulary — a faster scan loop that
// moves one silently stops new backups deduplicating against old ones —
// so a change that alters this table is a format break, not a refactor.
// (Table in the style of fastcdc2020's SekienAkashita vectors.)
func TestGoldenCutPoints(t *testing.T) {
	data := randomBytes(20120712, 1<<20)
	for _, g := range []struct {
		method Method
		size   int
		chunks int
		first  [16]int64
		sha256 string
	}{
		{Fixed, 4096, 256,
			[16]int64{4096, 8192, 12288, 16384, 20480, 24576, 28672, 32768, 36864, 40960, 45056, 49152, 53248, 57344, 61440, 65536},
			"6f86bcf9f915bf2a761420315a769b5728ef2bc13914f3d4f097595e50c2e346"},
		{Rabin, 8192, 107,
			[16]int64{9316, 13983, 40808, 51396, 58278, 88064, 105707, 113616, 125660, 136252, 159252, 162984, 165996, 169172, 172633, 177910},
			"82d2cbd7fc3ef81ddacb48cf2393d4e8861a90b61172e8b9b35ece5a99276de1"},
		{TTTD, 0, 213, // New ignores size for TTTD: standard thresholds
			[16]int64{3036, 9316, 13983, 15259, 23168, 34029, 40808, 51396, 52764, 58278, 61588, 63439, 77293, 81873, 88064, 100204},
			"0faec701f51ef6577ae360a36bbfc4d4d3c3bc47c2bedc9fc7980365b57f2f28"},
		{FastCDC, 8192, 120,
			[16]int64{8335, 13897, 22582, 32156, 40972, 45883, 55640, 66286, 74830, 83670, 92765, 95341, 101209, 116115, 128354, 138123},
			"a212be341784ff8c92fd39d6df56ee165c2878d5a88e0bc706d6d5005cbf7b33"},
	} {
		cuts := cutPoints(t, g.method, g.size, data)
		h := sha256.New()
		for _, c := range cuts {
			fmt.Fprintf(h, "%d\n", c)
		}
		sum := hex.EncodeToString(h.Sum(nil))
		if len(cuts) != g.chunks || sum != g.sha256 {
			t.Errorf("%v: %d chunks, offsets sha256 %s; golden %d chunks, %s",
				g.method, len(cuts), sum, g.chunks, g.sha256)
		}
		for i, want := range g.first {
			if i < len(cuts) && cuts[i] != want {
				t.Errorf("%v: cut %d at %d, golden %d", g.method, i, cuts[i], want)
				break
			}
		}
	}
}
