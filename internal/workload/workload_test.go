package workload

import (
	"bytes"
	"testing"

	"sigmadedupe/internal/fingerprint"
)

func dedupRatio(t *testing.T, g Generator) float64 {
	t.Helper()
	items, err := Collect(g)
	if err != nil {
		t.Fatal(err)
	}
	logical := TotalBytes(items)
	physical := int64(UniqueBlocks(items)) * BlockSize
	if physical == 0 {
		t.Fatal("no data generated")
	}
	return float64(logical) / float64(physical)
}

func TestBlockDataDeterministic(t *testing.T) {
	a := blockData(42)
	b := blockData(42)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed must produce identical block content")
	}
	c := blockData(43)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds must produce different content")
	}
	if len(a) != BlockSize {
		t.Fatalf("block size = %d, want %d", len(a), BlockSize)
	}
}

func TestMaterializeConcatenatesBlocks(t *testing.T) {
	it := Item{Blocks: []uint64{1, 2, 3}}
	data := Materialize(it)
	if int64(len(data)) != it.Size() {
		t.Fatalf("materialized %d bytes, want %d", len(data), it.Size())
	}
	if !bytes.Equal(data[:BlockSize], blockData(1)) {
		t.Fatal("first block mismatch")
	}
	if !bytes.Equal(data[2*BlockSize:], blockData(3)) {
		t.Fatal("last block mismatch")
	}
}

func TestCorpusFingerprintMatchesDirectHash(t *testing.T) {
	c := NewCorpus(fingerprint.SHA1)
	want := fingerprint.Sum(blockData(7))
	if got := c.Fingerprint(7); got != want {
		t.Fatalf("corpus fp = %s, want %s", got, want)
	}
	// Memoized second call must agree.
	if got := c.Fingerprint(7); got != want {
		t.Fatal("memoized fingerprint differs")
	}
}

func TestCorpusChunkRefs(t *testing.T) {
	c := NewCorpus(0)
	it := Item{Blocks: []uint64{1, 2}}
	refs := c.ChunkRefs(it, false)
	if len(refs) != 2 {
		t.Fatalf("got %d refs, want 2", len(refs))
	}
	if refs[0].Data != nil {
		t.Fatal("keepData=false must not materialize payloads")
	}
	refs = c.ChunkRefs(it, true)
	if !bytes.Equal(refs[0].Data, blockData(1)) {
		t.Fatal("keepData=true payload mismatch")
	}
	if refs[0].Size != BlockSize {
		t.Fatalf("ref size = %d, want %d", refs[0].Size, BlockSize)
	}
}

func TestLinuxDeterministic(t *testing.T) {
	g1, _ := NewLinux(DefaultLinuxConfig())
	g2, _ := NewLinux(DefaultLinuxConfig())
	a, _ := Collect(g1)
	b, _ := Collect(g2)
	if len(a) != len(b) {
		t.Fatalf("nondeterministic item count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].Blocks) != len(b[i].Blocks) {
			t.Fatalf("item %d differs between runs", i)
		}
		for j := range a[i].Blocks {
			if a[i].Blocks[j] != b[i].Blocks[j] {
				t.Fatalf("item %d block %d differs", i, j)
			}
		}
	}
}

// TestTable2DedupRatios validates the calibration of all four generators
// against the paper's Table 2 (4KB static chunking): Linux 7.96, VM 4.11,
// Mail 10.52, Web 1.9. Tolerances are generous — the shape matters, not
// the third digit.
func TestTable2DedupRatios(t *testing.T) {
	tests := []struct {
		name   string
		lo, hi float64
	}{
		{"linux", 6.0, 10.5},
		{"vm", 3.2, 5.5},
		{"mail", 8.0, 13.5},
		{"web", 1.5, 2.4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g, err := ByName(tt.name, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			dr := dedupRatio(t, g)
			t.Logf("%s DR = %.2f (paper target band [%.1f, %.1f])", tt.name, dr, tt.lo, tt.hi)
			if dr < tt.lo || dr > tt.hi {
				t.Fatalf("%s DR = %.2f outside calibration band [%.1f, %.1f]", tt.name, dr, tt.lo, tt.hi)
			}
		})
	}
}

func TestFileInfoFlags(t *testing.T) {
	for _, name := range Names() {
		g, err := ByName(name, 0.3, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantFiles := name == "linux" || name == "vm"
		if g.HasFileInfo() != wantFiles {
			t.Errorf("%s HasFileInfo = %v, want %v", name, g.HasFileInfo(), wantFiles)
		}
	}
}

func TestTraceItemsHaveNoFileID(t *testing.T) {
	g, _ := ByName("mail", 0.2, 0)
	items, _ := Collect(g)
	for _, it := range items {
		if it.FileID != 0 {
			t.Fatal("trace items must carry FileID 0")
		}
	}
}

func TestFileWorkloadsHaveDistinctFileIDs(t *testing.T) {
	for _, name := range []string{"linux", "vm"} {
		g, _ := ByName(name, 0.3, 0)
		items, _ := Collect(g)
		seen := make(map[uint64]bool, len(items))
		for _, it := range items {
			if it.FileID == 0 {
				t.Fatalf("%s: zero FileID on file workload", name)
			}
			if seen[it.FileID] {
				t.Fatalf("%s: duplicate FileID %d", name, it.FileID)
			}
			seen[it.FileID] = true
		}
	}
}

// TestVMSkewedFileSizes checks the property Fig. 8 depends on: VM images
// have a skewed size distribution (largest ≫ smallest), while Linux files
// are uniformly small.
func TestVMSkewedFileSizes(t *testing.T) {
	g, _ := newVM(defaultVMConfig())
	items, _ := Collect(g)
	var min, max int64 = 1 << 62, 0
	for _, it := range items {
		if s := it.Size(); s < min {
			min = s
		}
		if s := it.Size(); s > max {
			max = s
		}
	}
	if max < 3*min {
		t.Fatalf("VM image sizes not skewed: min=%d max=%d", min, max)
	}
	if max < 4<<20 {
		t.Fatalf("VM images too small (max=%d); must dwarf super-chunks", max)
	}
}

func TestLinuxFilesAreSmall(t *testing.T) {
	g, _ := NewLinux(DefaultLinuxConfig())
	items, _ := Collect(g)
	for _, it := range items {
		if it.Size() > 64<<10 {
			t.Fatalf("linux file %s is %d bytes; sources should be small", it.Name, it.Size())
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope", 1, 0); err == nil {
		t.Fatal("unknown dataset should error")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewLinux(LinuxConfig{Versions: 0, Files: 1, MinBlocks: 1, MaxBlocks: 2}); err == nil {
		t.Fatal("linux: zero versions should error")
	}
	if _, err := NewLinux(LinuxConfig{Versions: 1, Files: 1, MinBlocks: 3, MaxBlocks: 2}); err == nil {
		t.Fatal("linux: inverted block bounds should error")
	}
	if _, err := newVM(vmConfig{Images: 0, ImageBlocks: 1, Fulls: 1, PoolBlocks: 1}); err == nil {
		t.Fatal("vm: zero images should error")
	}
	if _, err := newVM(vmConfig{Images: 1, ImageBlocks: 1, Fulls: 1, PoolBlocks: 1, Churn: 2}); err == nil {
		t.Fatal("vm: churn > 1 should error")
	}
	if _, err := newTrace(traceConfig{Segments: 1, SegmentBlocks: 1, MeanRunBlocks: 1, FreshProbability: 0}); err == nil {
		t.Fatal("trace: zero fresh probability should error")
	}
}

func TestUniqueBlocksAndTotals(t *testing.T) {
	items := []Item{
		{Blocks: []uint64{1, 2, 3}},
		{Blocks: []uint64{2, 3, 4}},
	}
	if got := UniqueBlocks(items); got != 4 {
		t.Fatalf("UniqueBlocks = %d, want 4", got)
	}
	if got := TotalBytes(items); got != 6*BlockSize {
		t.Fatalf("TotalBytes = %d, want %d", got, 6*BlockSize)
	}
}

func TestSeedStreamsDoNotCollide(t *testing.T) {
	a := newSeedStream(1, 1)
	b := newSeedStream(1, 2)
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		sa, sb := a.fresh(), b.fresh()
		if seen[sa] || seen[sb] || sa == sb {
			t.Fatal("seed collision across tagged streams")
		}
		seen[sa], seen[sb] = true, true
	}
}
