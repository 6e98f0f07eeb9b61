package fingerprint

import (
	"bytes"
	"crypto/sha1"
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func TestSumSHA1MatchesStdlib(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	want := sha1.Sum(data)
	got := Sum(data)
	if got != Fingerprint(want) {
		t.Fatalf("Sum() = %s, want %x", got, want)
	}
}

func TestSumMD5ZeroTail(t *testing.T) {
	fp := MD5.Sum([]byte("hello"))
	for i := 16; i < Size; i++ {
		if fp[i] != 0 {
			t.Fatalf("MD5 fingerprint byte %d = %#x, want zero tail", i, fp[i])
		}
	}
	if fp.IsZero() {
		t.Fatal("MD5 fingerprint of non-empty data should not be zero")
	}
}

func TestAlgorithmString(t *testing.T) {
	tests := []struct {
		algo Algorithm
		want string
	}{
		{SHA1, "sha1"},
		{MD5, "md5"},
		{Algorithm(99), "algorithm(99)"},
	}
	for _, tt := range tests {
		if got := tt.algo.String(); got != tt.want {
			t.Errorf("Algorithm(%d).String() = %q, want %q", int(tt.algo), got, tt.want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	fp := Sum([]byte("roundtrip"))
	got, err := Parse(fp.String())
	if err != nil {
		t.Fatalf("Parse(%q): %v", fp.String(), err)
	}
	if got != fp {
		t.Fatalf("Parse round trip = %s, want %s", got, fp)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"not hex", "zz"},
		{"too short", "abcd"},
		{"too long", Sum([]byte("x")).String() + "00"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(tt.in); err == nil {
				t.Fatalf("Parse(%q) succeeded, want error", tt.in)
			}
		})
	}
}

func TestCompareConsistency(t *testing.T) {
	a := Sum([]byte("a"))
	b := Sum([]byte("b"))
	if a.Compare(a) != 0 {
		t.Error("Compare(self) != 0")
	}
	if a.Compare(b) == 0 {
		t.Error("distinct fingerprints compare equal")
	}
	if a.Less(b) == b.Less(a) {
		t.Error("Less must order distinct fingerprints strictly")
	}
	if a.Less(b) != (a.Compare(b) < 0) {
		t.Error("Less disagrees with Compare")
	}
}

// TestCompareIsByteOrder: deciding on the 8-byte prefix first is still
// the lexicographic byte order — handprints and everything sorted by them
// depend on it — including pairs whose prefixes tie and differ only in the
// tail.
func TestCompareIsByteOrder(t *testing.T) {
	f := func(a, b Fingerprint, tieUpTo uint8) bool {
		copy(b[:int(tieUpTo)%(Size+1)], a[:])
		want := bytes.Compare(a[:], b[:])
		return a.Compare(b) == want && b.Compare(a) == -want && a.Less(b) == (want < 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestModRange(t *testing.T) {
	f := func(data []byte, n uint8) bool {
		fp := Sum(data)
		nodes := int(n%128) + 1
		m := fp.Mod(nodes)
		return m >= 0 && m < nodes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestModZeroNodes(t *testing.T) {
	fp := Sum([]byte("x"))
	if got := fp.Mod(0); got != 0 {
		t.Fatalf("Mod(0) = %d, want 0", got)
	}
	if got := fp.Mod(-3); got != 0 {
		t.Fatalf("Mod(-3) = %d, want 0", got)
	}
}

func TestModUniformity(t *testing.T) {
	// Theorem 2 rests on the universal distribution of cryptographic hash
	// outputs: fp mod N should be close to uniform.
	const n = 16
	const samples = 8000
	counts := make([]int, n)
	buf := make([]byte, 8)
	for i := 0; i < samples; i++ {
		buf[0], buf[1], buf[2], buf[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
		counts[Sum(buf).Mod(n)]++
	}
	want := samples / n
	for node, c := range counts {
		if c < want*7/10 || c > want*13/10 {
			t.Errorf("node %d got %d placements, want within 30%% of %d", node, c, want)
		}
	}
}

func TestUint64MatchesModArithmetic(t *testing.T) {
	f := func(data []byte) bool {
		fp := Sum(data)
		return fp.Mod(97) == int(fp.Uint64()%97)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSortOrderStable(t *testing.T) {
	fps := make([]Fingerprint, 0, 64)
	for i := 0; i < 64; i++ {
		fps = append(fps, Sum([]byte{byte(i)}))
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i].Less(fps[j]) })
	for i := 1; i < len(fps); i++ {
		if fps[i].Less(fps[i-1]) {
			t.Fatalf("sort order violated at %d", i)
		}
	}
}

func TestShort(t *testing.T) {
	fp := Sum([]byte("short"))
	s := fp.Short()
	if len(s) != 8 {
		t.Fatalf("Short() length = %d, want 8", len(s))
	}
	if fp.String()[:8] != s {
		t.Fatalf("Short() = %q, want prefix of %q", s, fp.String())
	}
}

func benchSum4KB(b *testing.B, a Algorithm) {
	data := make([]byte, 4096)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Sum(data)
	}
}

// BenchmarkSumSHA1_4KB reports each SHA-1 implementation this host can
// run, so the kernel's gain is read off one session.
func BenchmarkSumSHA1_4KB(b *testing.B) {
	for _, ni := range []bool{false, true} {
		if ni && !haveSHANI {
			continue
		}
		restore := SetHashKernelsForTest(ni, false)
		b.Run(SHA1.Impl(), func(b *testing.B) { benchSum4KB(b, SHA1) })
		restore()
	}
}

// BenchmarkSumBatch hashes batches of 1 to 16 4KB chunks on the one-lane
// path (SHA-NI for SHA-1, crypto/sha256 for SHA-256) and on the 16-lane
// kernel alone (no hand-off of stragglers, whatever the lane count),
// which shows the lane count where the 16-lane pass starts to win:
// x16MinLanes, x16MinLanesSHA256.
func BenchmarkSumBatch(b *testing.B) {
	for _, k := range []struct {
		name  string
		a     Algorithm
		one   bool
		x16   bool
		lanes []int
	}{
		{"sha-ni", SHA1, true, false, []int{1, 4, 8, 16}},
		{"avx512x16", SHA1, false, true, []int{1, 4, 8, 16}},
		{"sha256-stdlib", SHA256, true, false, []int{1, 16}},
		{"sha256-avx512x16", SHA256, false, true, []int{1, 4, 8, 9, 16}},
	} {
		if k.a == SHA1 && k.one && !haveSHANI || k.x16 && !haveAVX512 {
			continue
		}
		restore := SetHashKernelsForTest(k.one, k.x16)
		for _, lanes := range k.lanes {
			bufs := make([][]byte, lanes)
			for i := range bufs {
				bufs[i] = make([]byte, 4096)
				bufs[i][0] = byte(i)
			}
			out := make([]Fingerprint, lanes)
			b.Run(fmt.Sprintf("%s/lanes=%d", k.name, lanes), func(b *testing.B) {
				b.SetBytes(int64(lanes * 4096))
				for b.Loop() {
					if k.x16 {
						sumX16(k.a, bufs, out)
					} else {
						k.a.SumBatch(bufs, out)
					}
				}
			})
		}
		restore()
	}
}

func BenchmarkSumMD5_4KB(b *testing.B) { benchSum4KB(b, MD5) }

func BenchmarkSumSHA256_4KB(b *testing.B) { benchSum4KB(b, SHA256) }
