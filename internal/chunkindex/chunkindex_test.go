package chunkindex

import (
	"math/rand"
	"sync"
	"testing"

	"sigmadedupe/internal/container"
	"sigmadedupe/internal/fingerprint"
)

func randFPs(seed int64, n int) []fingerprint.Fingerprint {
	rng := rand.New(rand.NewSource(seed))
	out := make([]fingerprint.Fingerprint, n)
	var b [16]byte
	for i := range out {
		rng.Read(b[:])
		out[i] = fingerprint.Sum(b[:])
	}
	return out
}

func TestInsertLookup(t *testing.T) {
	x, err := New(1000)
	if err != nil {
		t.Fatal(err)
	}
	fps := randFPs(1, 100)
	for i, fp := range fps {
		x.Insert(fp, container.Loc{CID: uint64(i), Offset: 8, Length: 16})
	}
	for i, fp := range fps {
		loc, ok := x.Lookup(fp)
		if !ok || loc.CID != uint64(i) {
			t.Fatalf("Lookup %d = (%+v,%v)", i, loc, ok)
		}
	}
	if x.Len() != 100 {
		t.Fatalf("Len = %d, want 100", x.Len())
	}
}

func TestBloomShortCircuit(t *testing.T) {
	x, _ := New(10000)
	for i, fp := range randFPs(2, 1000) {
		x.Insert(fp, container.Loc{CID: uint64(i)})
	}
	// Probe absent fingerprints: the vast majority must be screened by
	// the Bloom filter without a disk read.
	for _, fp := range randFPs(99, 2000) {
		x.Lookup(fp)
	}
	diskReads, bloomSkips, falsePos := x.Stats()
	if bloomSkips < 1900 {
		t.Fatalf("bloomSkips = %d, want most of 2000 absent probes screened", bloomSkips)
	}
	if diskReads != falsePos {
		t.Fatalf("all disk reads on absent probes should be false positives: reads=%d fp=%d", diskReads, falsePos)
	}
}

func TestDiskReadChargedOnHit(t *testing.T) {
	x, _ := New(100)
	fp := fingerprint.Sum([]byte("present"))
	x.Insert(fp, container.Loc{CID: 5})
	x.Lookup(fp)
	diskReads, _, falsePos := x.Stats()
	if diskReads != 1 {
		t.Fatalf("diskReads = %d, want 1", diskReads)
	}
	if falsePos != 0 {
		t.Fatalf("falsePos = %d, want 0", falsePos)
	}
}

// TestLocateSkipsBloom: Locate answers from the table alone — an entry
// the filter never learned is still found, which Lookup's probe would
// have screened out — and charges one disk read per call, hit or miss,
// without counting a Bloom skip or false positive.
func TestLocateSkipsBloom(t *testing.T) {
	x, _ := New(100)
	fp := fingerprint.Sum([]byte("stored"))
	x.m[fp] = container.Loc{CID: 9}
	if _, ok := x.Lookup(fp); ok {
		t.Fatal("Lookup found a key its Bloom filter never learned")
	}
	if loc, ok := x.Locate(fp); !ok || loc.CID != 9 {
		t.Fatalf("Locate = (%+v,%v), want container 9", loc, ok)
	}
	if _, ok := x.Locate(fingerprint.Sum([]byte("collected"))); ok {
		t.Fatal("Locate found an absent key")
	}
	diskReads, bloomSkips, falsePos := x.Stats()
	if diskReads != 2 || bloomSkips != 1 || falsePos != 0 {
		t.Fatalf("reads/skips/false positives = %d/%d/%d, want 2/1/0 (only Lookup probes the filter)",
			diskReads, bloomSkips, falsePos)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("New(0) should error")
	}
}

func TestFootprints(t *testing.T) {
	x, _ := New(1000)
	for i, fp := range randFPs(3, 50) {
		x.Insert(fp, container.Loc{CID: uint64(i)})
	}
	if x.DiskBytes() != 50*EntryBytes {
		t.Fatalf("DiskBytes = %d, want %d", x.DiskBytes(), 50*EntryBytes)
	}
	if x.RAMBytes() <= 0 {
		t.Fatal("RAMBytes should be positive (Bloom filter)")
	}
	if x.RAMBytes() >= x.DiskBytes()*EntryBytes {
		t.Log("RAM footprint plausibly smaller than naive table") // informational
	}
}

func TestConcurrent(t *testing.T) {
	x, _ := New(10000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fps := randFPs(int64(w), 300)
			for i, fp := range fps {
				x.Insert(fp, container.Loc{CID: uint64(i)})
			}
			for _, fp := range fps {
				if _, ok := x.Lookup(fp); !ok {
					t.Error("lost insert")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if x.Len() != 8*300 {
		t.Fatalf("Len = %d, want 2400", x.Len())
	}
}
