package store

import (
	"math/rand"
	"sync"
	"testing"

	"sigmadedupe/internal/container"
	"sigmadedupe/internal/fingerprint"
)

func indexFPs(seed int64, n int) []fingerprint.Fingerprint {
	rng := rand.New(rand.NewSource(seed))
	out := make([]fingerprint.Fingerprint, n)
	var b [16]byte
	for i := range out {
		rng.Read(b[:])
		out[i] = fingerprint.Sum(b[:])
	}
	return out
}

func TestChunkIndexInsertLookup(t *testing.T) {
	x, err := newChunkIndex(1000)
	if err != nil {
		t.Fatal(err)
	}
	fps := indexFPs(1, 100)
	for i, fp := range fps {
		x.insert(fp, container.Loc{CID: uint64(i), Offset: 8, Length: 16})
	}
	for i, fp := range fps {
		loc, ok := x.lookup(fp)
		if !ok || loc.CID != uint64(i) {
			t.Fatalf("lookup %d = (%+v,%v)", i, loc, ok)
		}
	}
	if len(x.m) != 100 {
		t.Fatalf("len = %d, want 100", len(x.m))
	}
}

func TestChunkIndexBloomShortCircuit(t *testing.T) {
	x, _ := newChunkIndex(10000)
	for i, fp := range indexFPs(2, 1000) {
		x.insert(fp, container.Loc{CID: uint64(i)})
	}
	// Probe absent fingerprints: the vast majority must be screened by
	// the Bloom filter without a disk read.
	for _, fp := range indexFPs(99, 2000) {
		x.lookup(fp)
	}
	diskReads, bloomSkips, falsePos := x.stats()
	if bloomSkips < 1900 {
		t.Fatalf("bloomSkips = %d, want most of 2000 absent probes screened", bloomSkips)
	}
	if diskReads != falsePos {
		t.Fatalf("all disk reads on absent probes should be false positives: reads=%d fp=%d", diskReads, falsePos)
	}
}

func TestChunkIndexDiskReadChargedOnHit(t *testing.T) {
	x, _ := newChunkIndex(100)
	fp := fingerprint.Sum([]byte("present"))
	x.insert(fp, container.Loc{CID: 5})
	x.lookup(fp)
	diskReads, _, falsePos := x.stats()
	if diskReads != 1 {
		t.Fatalf("diskReads = %d, want 1", diskReads)
	}
	if falsePos != 0 {
		t.Fatalf("falsePos = %d, want 0", falsePos)
	}
}

// TestChunkIndexLocateSkipsBloom: locate answers from the table alone — an entry
// the filter never learned is still found, which Lookup's probe would
// have screened out — and charges one disk read per call, hit or miss,
// without counting a Bloom skip or false positive.
func TestChunkIndexLocateSkipsBloom(t *testing.T) {
	x, _ := newChunkIndex(100)
	fp := fingerprint.Sum([]byte("stored"))
	x.m[fp] = container.Loc{CID: 9}
	if _, ok := x.lookup(fp); ok {
		t.Fatal("lookup found a key its Bloom filter never learned")
	}
	if loc, ok := x.locate(fp); !ok || loc.CID != 9 {
		t.Fatalf("locate = (%+v,%v), want container 9", loc, ok)
	}
	if _, ok := x.locate(fingerprint.Sum([]byte("collected"))); ok {
		t.Fatal("locate found an absent key")
	}
	diskReads, bloomSkips, falsePos := x.stats()
	if diskReads != 2 || bloomSkips != 1 || falsePos != 0 {
		t.Fatalf("reads/skips/false positives = %d/%d/%d, want 2/1/0 (only lookup probes the filter)",
			diskReads, bloomSkips, falsePos)
	}
}

func TestChunkIndexValidation(t *testing.T) {
	if _, err := newChunkIndex(0); err == nil {
		t.Fatal("newChunkIndex(0) should error")
	}
}

func TestChunkIndexConcurrent(t *testing.T) {
	x, _ := newChunkIndex(10000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fps := indexFPs(int64(w), 300)
			for i, fp := range fps {
				x.insert(fp, container.Loc{CID: uint64(i)})
			}
			for _, fp := range fps {
				if _, ok := x.lookup(fp); !ok {
					t.Error("lost insert")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if len(x.m) != 8*300 {
		t.Fatalf("len = %d, want 2400", len(x.m))
	}
}
