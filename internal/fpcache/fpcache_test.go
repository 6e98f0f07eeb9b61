package fpcache

import (
	"math/rand"
	"sync"
	"testing"

	"sigmadedupe/internal/fingerprint"
)

func fps(seed int64, n int) []fingerprint.Fingerprint {
	rng := rand.New(rand.NewSource(seed))
	out := make([]fingerprint.Fingerprint, n)
	var b [16]byte
	for i := range out {
		rng.Read(b[:])
		out[i] = fingerprint.Sum(b[:])
	}
	return out
}

// cached reports whether cid is in c.
func cached(c *Cache, cid uint64) bool {
	_, ok := c.Cached(cid)
	return ok
}

func TestAddLookup(t *testing.T) {
	c, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	set := fps(1, 10)
	c.AddContainer(100, set)
	for _, fp := range set {
		cid, ok := c.Lookup(fp)
		if !ok || cid != 100 {
			t.Fatalf("Lookup = (%d,%v), want (100,true)", cid, ok)
		}
	}
	if c.Contains(fingerprint.Sum([]byte("absent"))) {
		t.Fatal("absent fingerprint reported cached")
	}
}

func TestLRUEviction(t *testing.T) {
	c, _ := New(2)
	a, b, d := fps(2, 4), fps(3, 4), fps(4, 4)
	c.AddContainer(1, a)
	c.AddContainer(2, b)
	c.AddContainer(3, d) // evicts container 1
	if cached(c, 1) {
		t.Fatal("container 1 should have been evicted")
	}
	if !cached(c, 2) || !cached(c, 3) {
		t.Fatal("recent containers evicted")
	}
	if c.Contains(a[0]) {
		t.Fatal("fingerprints of evicted container still indexed")
	}
	_, _, ev, _ := c.Stats()
	if ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestLookupRefreshesLRU(t *testing.T) {
	c, _ := New(2)
	a, b, d := fps(5, 4), fps(6, 4), fps(7, 4)
	c.AddContainer(1, a)
	c.AddContainer(2, b)
	c.Lookup(a[0])       // touch container 1
	c.AddContainer(3, d) // should evict container 2, not 1
	if !cached(c, 1) {
		t.Fatal("recently touched container evicted")
	}
	if cached(c, 2) {
		t.Fatal("LRU container survived")
	}
}

func TestReAddRefreshes(t *testing.T) {
	c, _ := New(2)
	c.AddContainer(1, fps(8, 2))
	c.AddContainer(2, fps(9, 2))
	c.AddContainer(1, nil) // refresh, not duplicate
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	c.AddContainer(3, fps(10, 2)) // evicts 2
	if cached(c, 2) || !cached(c, 1) {
		t.Fatal("re-add did not refresh LRU position")
	}
}

// TestExtendAddsOnlyTheTail: a growing open container is refreshed with
// the fingerprints appended since it was cached — from where Cached says
// the entry ends — and a stale or overlapping tail adds nothing twice.
func TestExtendAddsOnlyTheTail(t *testing.T) {
	c, _ := New(2)
	all := fps(13, 10)
	c.AddContainer(1, all[:4])
	if n, ok := c.Cached(1); !ok || n != 4 {
		t.Fatalf("Cached = (%d,%v), want (4,true)", n, ok)
	}
	if !c.Extend(1, 4, all[4:7]) {
		t.Fatal("Extend of a cached container refused")
	}
	// A racing refresh that read from position 5 overlaps by two.
	if !c.Extend(1, 5, all[5:10]) {
		t.Fatal("overlapping Extend refused")
	}
	if n, _ := c.Cached(1); n != 10 {
		t.Fatalf("entry holds %d fingerprints, want 10", n)
	}
	for _, fp := range all {
		if cid, ok := c.Lookup(fp); !ok || cid != 1 {
			t.Fatalf("Lookup = (%d,%v), want (1,true)", cid, ok)
		}
	}
	if c.Extend(1, 11, fps(14, 1)) || c.Extend(2, 0, all) {
		t.Fatal("Extend past the entry's end or of an uncached container accepted")
	}
	// An eviction removes every fingerprint the extensions added.
	c.AddContainer(2, fps(15, 1))
	c.AddContainer(3, fps(16, 1))
	if _, ok := c.Cached(1); ok || c.Contains(all[9]) {
		t.Fatal("evicted container's extended fingerprints still indexed")
	}
}

func TestSharedFingerprintSurvivesEviction(t *testing.T) {
	c, _ := New(2)
	shared := fps(11, 1)[0]
	c.AddContainer(1, []fingerprint.Fingerprint{shared})
	c.AddContainer(2, []fingerprint.Fingerprint{shared}) // re-maps fp to cid 2
	c.AddContainer(3, fps(12, 2))                        // evicts container 1
	cid, ok := c.Lookup(shared)
	if !ok || cid != 2 {
		t.Fatalf("shared fp = (%d,%v), want (2,true): eviction of old container must not drop re-mapped fps", cid, ok)
	}
}

func TestStatsAndHitRate(t *testing.T) {
	c, _ := New(4)
	set := fps(13, 2)
	c.AddContainer(1, set)
	c.Lookup(set[0])
	c.Lookup(fingerprint.Sum([]byte("miss")))
	hits, misses, _, prefetches := c.Stats()
	if hits != 1 || misses != 1 || prefetches != 1 {
		t.Fatalf("stats = (%d,%d,_,%d), want (1,1,_,1)", hits, misses, prefetches)
	}
	if got := c.HitRate(); got != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", got)
	}
	empty, _ := New(1)
	if empty.HitRate() != 0 {
		t.Fatal("HitRate before lookups should be 0")
	}
}

func TestNewValidation(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		if _, err := New(capacity); err == nil {
			t.Errorf("New(%d) should error", capacity)
		}
	}
}

func TestCallerMutationDoesNotCorrupt(t *testing.T) {
	c, _ := New(2)
	set := fps(14, 3)
	c.AddContainer(1, set)
	orig := set[0]
	set[0] = fingerprint.Sum([]byte("mutated"))
	if !c.Contains(orig) {
		t.Fatal("cache must copy the fingerprint slice at the boundary")
	}
}

func TestConcurrentUse(t *testing.T) {
	c, _ := New(32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				cid := uint64(w*1000 + i)
				set := fps(int64(cid), 8)
				c.AddContainer(cid, set)
				c.Lookup(set[0])
				cached(c, cid)
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 32 {
		t.Fatalf("Len = %d exceeds capacity 32", c.Len())
	}
}

// TestLocalityWorkload demonstrates the locality-preserved caching effect:
// a backup stream that revisits the same containers should enjoy a high
// hit rate with a small cache.
func TestLocalityWorkload(t *testing.T) {
	c, _ := New(4)
	containers := make([][]fingerprint.Fingerprint, 8)
	for i := range containers {
		containers[i] = fps(int64(100+i), 64)
	}
	// First pass: prefetch each container once, then probe fingerprints
	// in container order (perfect locality).
	for cid, set := range containers {
		c.AddContainer(uint64(cid), set)
		for _, fp := range set {
			if !c.Contains(fp) {
				t.Fatalf("miss immediately after prefetch (cid=%d)", cid)
			}
		}
	}
	if hr := c.HitRate(); hr < 0.99 {
		t.Fatalf("locality hit rate = %v, want ~1.0", hr)
	}
}

func BenchmarkLookup(b *testing.B) {
	c, _ := New(64)
	sets := make([][]fingerprint.Fingerprint, 64)
	for i := range sets {
		sets[i] = fps(int64(i), 1024)
		c.AddContainer(uint64(i), sets[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := sets[i%64]
		c.Lookup(set[i%1024])
	}
}
