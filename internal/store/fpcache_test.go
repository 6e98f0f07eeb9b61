package store

import (
	"math/rand"
	"sync"
	"testing"

	"sigmadedupe/internal/fingerprint"
)

func cacheFPs(seed int64, n int) []fingerprint.Fingerprint {
	rng := rand.New(rand.NewSource(seed))
	out := make([]fingerprint.Fingerprint, n)
	var b [16]byte
	for i := range out {
		rng.Read(b[:])
		out[i] = fingerprint.Sum(b[:])
	}
	return out
}

// isCached reports whether cid is in c.
func isCached(c *fpCache, cid uint64) bool {
	_, ok := c.cached(cid)
	return ok
}

// contains reports whether fp is cached, counting the probe.
func contains(c *fpCache, fp fingerprint.Fingerprint) bool {
	_, ok := c.lookup(fp)
	return ok
}

func TestFPCacheAddLookup(t *testing.T) {
	c, err := newFPCache(4)
	if err != nil {
		t.Fatal(err)
	}
	set := cacheFPs(1, 10)
	c.addContainer(100, set)
	for _, fp := range set {
		cid, ok := c.lookup(fp)
		if !ok || cid != 100 {
			t.Fatalf("lookup = (%d,%v), want (100,true)", cid, ok)
		}
	}
	if contains(c, fingerprint.Sum([]byte("absent"))) {
		t.Fatal("absent fingerprint reported cached")
	}
}

func TestFPCacheLRUEviction(t *testing.T) {
	c, _ := newFPCache(2)
	a, b, d := cacheFPs(2, 4), cacheFPs(3, 4), cacheFPs(4, 4)
	c.addContainer(1, a)
	c.addContainer(2, b)
	c.addContainer(3, d) // evicts container 1
	if isCached(c, 1) {
		t.Fatal("container 1 should have been evicted")
	}
	if !isCached(c, 2) || !isCached(c, 3) {
		t.Fatal("recent containers evicted")
	}
	if contains(c, a[0]) {
		t.Fatal("fingerprints of evicted container still indexed")
	}
}

func TestFPCacheLookupRefreshesLRU(t *testing.T) {
	c, _ := newFPCache(2)
	a, b, d := cacheFPs(5, 4), cacheFPs(6, 4), cacheFPs(7, 4)
	c.addContainer(1, a)
	c.addContainer(2, b)
	c.lookup(a[0])       // touch container 1
	c.addContainer(3, d) // should evict container 2, not 1
	if !isCached(c, 1) {
		t.Fatal("recently touched container evicted")
	}
	if isCached(c, 2) {
		t.Fatal("LRU container survived")
	}
}

func TestFPCacheReAddRefreshes(t *testing.T) {
	c, _ := newFPCache(2)
	c.addContainer(1, cacheFPs(8, 2))
	c.addContainer(2, cacheFPs(9, 2))
	c.addContainer(1, nil) // refresh, not duplicate
	if c.ll.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.ll.Len())
	}
	c.addContainer(3, cacheFPs(10, 2)) // evicts 2
	if isCached(c, 2) || !isCached(c, 1) {
		t.Fatal("re-add did not refresh LRU position")
	}
}

// TestFPCacheExtendAddsOnlyTheTail: a growing open container is refreshed with
// the fingerprints appended since it was cached — from where cached says
// the entry ends — and a stale or overlapping tail adds nothing twice.
func TestFPCacheExtendAddsOnlyTheTail(t *testing.T) {
	c, _ := newFPCache(2)
	all := cacheFPs(13, 10)
	c.addContainer(1, all[:4])
	if n, ok := c.cached(1); !ok || n != 4 {
		t.Fatalf("cached = (%d,%v), want (4,true)", n, ok)
	}
	if !c.extend(1, 4, all[4:7]) {
		t.Fatal("extend of a cached container refused")
	}
	// A racing refresh that read from position 5 overlaps by two.
	if !c.extend(1, 5, all[5:10]) {
		t.Fatal("overlapping extend refused")
	}
	if n, _ := c.cached(1); n != 10 {
		t.Fatalf("entry holds %d fingerprints, want 10", n)
	}
	for _, fp := range all {
		if cid, ok := c.lookup(fp); !ok || cid != 1 {
			t.Fatalf("lookup = (%d,%v), want (1,true)", cid, ok)
		}
	}
	if c.extend(1, 11, cacheFPs(14, 1)) || c.extend(2, 0, all) {
		t.Fatal("extend past the entry's end or of an uncached container accepted")
	}
	// An eviction removes every fingerprint the extensions added.
	c.addContainer(2, cacheFPs(15, 1))
	c.addContainer(3, cacheFPs(16, 1))
	if _, ok := c.cached(1); ok || contains(c, all[9]) {
		t.Fatal("evicted container's extended fingerprints still indexed")
	}
}

func TestFPCacheSharedFingerprintSurvivesEviction(t *testing.T) {
	c, _ := newFPCache(2)
	shared := cacheFPs(11, 1)[0]
	c.addContainer(1, []fingerprint.Fingerprint{shared})
	c.addContainer(2, []fingerprint.Fingerprint{shared}) // re-maps fp to cid 2
	c.addContainer(3, cacheFPs(12, 2))                   // evicts container 1
	cid, ok := c.lookup(shared)
	if !ok || cid != 2 {
		t.Fatalf("shared fp = (%d,%v), want (2,true): eviction of old container must not drop re-mapped fps", cid, ok)
	}
}

func TestFPCacheHitRate(t *testing.T) {
	c, _ := newFPCache(4)
	set := cacheFPs(13, 2)
	c.addContainer(1, set)
	c.lookup(set[0])
	c.lookup(fingerprint.Sum([]byte("miss")))
	if c.hits != 1 || c.misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", c.hits, c.misses)
	}
	if got := c.hitRate(); got != 0.5 {
		t.Fatalf("hitRate = %v, want 0.5", got)
	}
	empty, _ := newFPCache(1)
	if empty.hitRate() != 0 {
		t.Fatal("hitRate before lookups should be 0")
	}
}

func TestFPCacheNewValidation(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		if _, err := newFPCache(capacity); err == nil {
			t.Errorf("newFPCache(%d) should error", capacity)
		}
	}
}

func TestFPCacheCallerMutationDoesNotCorrupt(t *testing.T) {
	c, _ := newFPCache(2)
	set := cacheFPs(14, 3)
	c.addContainer(1, set)
	orig := set[0]
	set[0] = fingerprint.Sum([]byte("mutated"))
	if !contains(c, orig) {
		t.Fatal("cache must copy the fingerprint slice at the boundary")
	}
}

func TestFPCacheConcurrentUse(t *testing.T) {
	c, _ := newFPCache(32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				cid := uint64(w*1000 + i)
				set := cacheFPs(int64(cid), 8)
				c.addContainer(cid, set)
				c.lookup(set[0])
				isCached(c, cid)
			}
		}(w)
	}
	wg.Wait()
	if c.ll.Len() > 32 {
		t.Fatalf("len = %d exceeds capacity 32", c.ll.Len())
	}
}

// TestFPCacheLocalityWorkload demonstrates the locality-preserved caching effect:
// a backup stream that revisits the same containers should enjoy a high
// hit rate with a small cache.
func TestFPCacheLocalityWorkload(t *testing.T) {
	c, _ := newFPCache(4)
	containers := make([][]fingerprint.Fingerprint, 8)
	for i := range containers {
		containers[i] = cacheFPs(int64(100+i), 64)
	}
	// First pass: prefetch each container once, then probe fingerprints
	// in container order (perfect locality).
	for cid, set := range containers {
		c.addContainer(uint64(cid), set)
		for _, fp := range set {
			if !contains(c, fp) {
				t.Fatalf("miss immediately after prefetch (cid=%d)", cid)
			}
		}
	}
	if hr := c.hitRate(); hr < 0.99 {
		t.Fatalf("locality hit rate = %v, want ~1.0", hr)
	}
}

func BenchmarkFPCacheLookup(b *testing.B) {
	c, _ := newFPCache(64)
	sets := make([][]fingerprint.Fingerprint, 64)
	for i := range sets {
		sets[i] = cacheFPs(int64(i), 1024)
		c.addContainer(uint64(i), sets[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := sets[i%64]
		c.lookup(set[i%1024])
	}
}
