package store

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
)

// The engine as one deduplication node: its dedup verdicts, restore,
// routing bids and defaults.

func TestStoreUniqueThenDuplicate(t *testing.T) {
	n, err := New(Config{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	sc := makeSC(rng, 32, false)

	res, err := n.StoreSuperChunk("s", sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.UniqueChunks != 32 || res.DupChunks != 0 {
		t.Fatalf("first store = %+v, want all unique", res)
	}

	res2, err := n.StoreSuperChunk("s", cloneSC(sc))
	if err != nil {
		t.Fatal(err)
	}
	if res2.DupChunks != 32 || res2.UniqueChunks != 0 {
		t.Fatalf("second store = %+v, want all duplicate", res2)
	}

	st := n.Stats()
	if st.LogicalBytes != 2*32*4096 || st.PhysicalBytes != 32*4096 {
		t.Fatalf("stats = %+v", st)
	}
	if st.DedupRatio() != 2 {
		t.Fatalf("DedupRatio = %v, want 2", st.DedupRatio())
	}
}

func TestIntraSuperChunkDuplicates(t *testing.T) {
	n, _ := New(Config{})
	data := make([]byte, 4096)
	fp := fingerprint.Sum(data)
	sc := &core.SuperChunk{Chunks: []core.ChunkRef{
		{FP: fp, Size: 4096},
		{FP: fp, Size: 4096},
		{FP: fp, Size: 4096},
	}}
	res, err := n.StoreSuperChunk("s", sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.UniqueChunks != 1 || res.DupChunks != 2 {
		t.Fatalf("res = %+v, want 1 unique + 2 dups", res)
	}
}

func TestSimilarityOnlyModeDetectsDups(t *testing.T) {
	// With the chunk index disabled, duplicate detection rides entirely
	// on the similarity index + container prefetch (Fig. 5b mode).
	n, _ := New(Config{DisableChunkIndex: true, HandprintSize: 8})
	rng := rand.New(rand.NewSource(2))
	sc := makeSC(rng, 64, false)
	if _, err := n.StoreSuperChunk("s", sc); err != nil {
		t.Fatal(err)
	}
	res, err := n.StoreSuperChunk("s", cloneSC(sc))
	if err != nil {
		t.Fatal(err)
	}
	if res.DupChunks != 64 {
		t.Fatalf("similarity-only re-store found %d/64 dups, want 64 (identical super-chunk)", res.DupChunks)
	}
	if _, err := n.ReadChunk(sc.Chunks[0].FP); err == nil {
		t.Fatal("restore must be rejected without the chunk index")
	}
}

func TestSimilarityOnlyApproximate(t *testing.T) {
	// A super-chunk that shares no representative fingerprints with stored
	// data can evade similarity-only dedup even if some chunks repeat —
	// that is the approximation the paper accepts. Verify no crash and
	// sane accounting rather than exactness.
	n, _ := New(Config{DisableChunkIndex: true, HandprintSize: 1})
	rng := rand.New(rand.NewSource(3))
	a := makeSC(rng, 16, false)
	b := makeSC(rng, 16, false)
	b.Chunks[8] = a.Chunks[8] // one shared chunk, likely not the RFP
	if _, err := n.StoreSuperChunk("s", a); err != nil {
		t.Fatal(err)
	}
	res, err := n.StoreSuperChunk("s", b)
	if err != nil {
		t.Fatal(err)
	}
	if res.UniqueChunks+res.DupChunks != 16 {
		t.Fatalf("chunk accounting broken: %+v", res)
	}
}

func TestExactModeCatchesCrossSuperChunkDup(t *testing.T) {
	n, _ := New(Config{HandprintSize: 4})
	rng := rand.New(rand.NewSource(4))
	a := makeSC(rng, 16, false)
	b := makeSC(rng, 16, false)
	b.Chunks[3] = a.Chunks[5] // one shared chunk, handprints disjoint
	n.StoreSuperChunk("s", a)
	res, err := n.StoreSuperChunk("s", b)
	if err != nil {
		t.Fatal(err)
	}
	if res.DupChunks != 1 {
		t.Fatalf("exact mode found %d dups, want 1 (via chunk index)", res.DupChunks)
	}
	st := n.Stats()
	if st.DiskIndexHits != 1 {
		t.Fatalf("DiskIndexHits = %d, want 1", st.DiskIndexHits)
	}
}

func TestQuerySuperChunkNonMutating(t *testing.T) {
	n, _ := New(Config{})
	rng := rand.New(rand.NewSource(5))
	sc := makeSC(rng, 8, false)
	verdicts := n.QuerySuperChunk(sc)
	for i, dup := range verdicts {
		if dup {
			t.Fatalf("chunk %d reported dup on empty node", i)
		}
	}
	if n.StorageUsage() != 0 {
		t.Fatal("query must not store data")
	}
	n.StoreSuperChunk("s", sc)
	verdicts = n.QuerySuperChunk(cloneSC(sc))
	for i, dup := range verdicts {
		if !dup {
			t.Fatalf("chunk %d reported unique after store", i)
		}
	}
}

func TestRestoreRoundTrip(t *testing.T) {
	n, _ := New(Config{KeepPayloads: true})
	rng := rand.New(rand.NewSource(6))
	sc := makeSC(rng, 8, true)
	if _, err := n.StoreSuperChunk("s", sc); err != nil {
		t.Fatal(err)
	}
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, ch := range sc.Chunks {
		got, err := n.ReadChunk(ch.FP)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if !bytes.Equal(got, ch.Data) {
			t.Fatalf("chunk %d payload corrupted", i)
		}
	}
	if _, err := n.ReadChunk(fingerprint.Sum([]byte("missing"))); err == nil {
		t.Fatal("restore of unknown chunk should fail")
	}
}

func TestCountHandprintMatches(t *testing.T) {
	n, _ := New(Config{HandprintSize: 8})
	rng := rand.New(rand.NewSource(7))
	sc := makeSC(rng, 64, false)
	hp := sc.Handprint(8)
	if got := n.CountHandprintMatches(hp); got != 0 {
		t.Fatalf("empty node bid = %d, want 0", got)
	}
	n.StoreSuperChunk("s", sc)
	if got := n.CountHandprintMatches(hp); got != 8 {
		t.Fatalf("bid after store = %d, want 8", got)
	}
}

func TestStorageUsageTracksPhysicalBytes(t *testing.T) {
	n, _ := New(Config{})
	rng := rand.New(rand.NewSource(8))
	sc := makeSC(rng, 16, false)
	n.StoreSuperChunk("s", sc)
	n.StoreSuperChunk("s", cloneSC(sc))
	if n.StorageUsage() != 16*4096 {
		t.Fatalf("StorageUsage = %d, want %d", n.StorageUsage(), 16*4096)
	}
}

func TestCachePrefetchServesSecondPass(t *testing.T) {
	n, _ := New(Config{HandprintSize: 8})
	rng := rand.New(rand.NewSource(9))
	sc := makeSC(rng, 64, false)
	n.StoreSuperChunk("s", sc)
	n.Flush()
	n.StoreSuperChunk("s", cloneSC(sc))
	st := n.Stats()
	// The second pass should be served mostly by the cache, not by disk
	// index reads (locality-preserved caching).
	if st.CacheHits < 60 {
		t.Fatalf("CacheHits = %d, want most of 64 duplicate verdicts from cache", st.CacheHits)
	}
	if st.DiskIndexHits > 4 {
		t.Fatalf("DiskIndexHits = %d, want few; cache should absorb the stream", st.DiskIndexHits)
	}
}

func TestConcurrentStreams(t *testing.T) {
	n, _ := New(Config{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			stream := string(rune('a' + w))
			for i := 0; i < 10; i++ {
				sc := makeSC(rng, 8, false)
				if _, err := n.StoreSuperChunk(stream, sc); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := n.Stats()
	if st.SuperChunks != 40 {
		t.Fatalf("SuperChunks = %d, want 40", st.SuperChunks)
	}
}

func TestConfigDefaults(t *testing.T) {
	n, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := n.Config()
	if cfg.HandprintSize != core.DefaultHandprintSize {
		t.Fatalf("default k = %d", cfg.HandprintSize)
	}
	if cfg.CacheContainers <= 0 || cfg.ContainerCapacity <= 0 {
		t.Fatal("defaults must be positive")
	}
	if cfg.ReadCacheBytes <= 0 {
		t.Fatal("store defaults must be echoed")
	}
}

func TestDedupRatioEmpty(t *testing.T) {
	var s engineStats
	if s.DedupRatio() != 0 {
		t.Fatal("empty stats dedup ratio should be 0")
	}
}

// TestPrefetchAblation quantifies locality-preserved caching: after a
// seal, a second pass over the same super-chunk finds its duplicates in
// the fingerprint cache, which container prefetch primed, not in the
// on-disk chunk index.
func TestPrefetchAblation(t *testing.T) {
	n, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	sc := makeSC(rng, 64, false)
	n.StoreSuperChunk("s", sc)
	n.Flush()
	n.StoreSuperChunk("s", cloneSC(sc))
	if with := n.Stats(); with.CacheHits < 60 {
		t.Fatalf("with prefetch: cache hits = %d, want most of 64", with.CacheHits)
	}
}
