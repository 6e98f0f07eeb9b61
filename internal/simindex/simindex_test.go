package simindex

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

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
	x, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	fps := randFPs(1, 100)
	for i, fp := range fps {
		x.Insert(fp, uint64(i))
	}
	for i, fp := range fps {
		cid, ok := x.Lookup(fp)
		if !ok || cid != uint64(i) {
			t.Fatalf("Lookup(%s) = (%d,%v), want (%d,true)", fp.Short(), cid, ok, i)
		}
	}
	if _, ok := x.Lookup(fingerprint.Sum([]byte("absent"))); ok {
		t.Fatal("lookup of absent fingerprint succeeded")
	}
	if x.Len() != 100 {
		t.Fatalf("Len = %d, want 100", x.Len())
	}
}

func TestOverwriteKeepsLatest(t *testing.T) {
	x, _ := New(4)
	fp := fingerprint.Sum([]byte("rfp"))
	x.Insert(fp, 1)
	x.Insert(fp, 2)
	cid, ok := x.Lookup(fp)
	if !ok || cid != 2 {
		t.Fatalf("got (%d,%v), want latest container 2", cid, ok)
	}
	if x.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after overwrite", x.Len())
	}
}

func TestStripeRounding(t *testing.T) {
	tests := []struct{ in, want int }{{1, 1}, {2, 2}, {3, 4}, {1000, 1024}, {1024, 1024}}
	for _, tt := range tests {
		x, err := New(tt.in)
		if err != nil {
			t.Fatal(err)
		}
		if x.Stripes() != tt.want {
			t.Errorf("New(%d).Stripes() = %d, want %d", tt.in, x.Stripes(), tt.want)
		}
	}
	if _, err := New(0); err == nil {
		t.Fatal("New(0) should error")
	}
}

func TestCountMatches(t *testing.T) {
	x, _ := New(8)
	fps := randFPs(2, 16)
	for _, fp := range fps[:8] {
		x.Insert(fp, 7)
	}
	if got := x.CountMatches(fps); got != 8 {
		t.Fatalf("CountMatches = %d, want 8", got)
	}
	if got := x.CountMatches(nil); got != 0 {
		t.Fatalf("CountMatches(nil) = %d, want 0", got)
	}
}

func TestLookupContainersDedup(t *testing.T) {
	x, _ := New(8)
	fps := randFPs(3, 6)
	x.Insert(fps[0], 10)
	x.Insert(fps[1], 10) // same container
	x.Insert(fps[2], 20)
	cids := x.LookupContainers(fps)
	if len(cids) != 2 {
		t.Fatalf("got %d containers, want 2 distinct", len(cids))
	}
	if cids[0] != 10 || cids[1] != 20 {
		t.Fatalf("container order = %v, want [10 20] (first-seen)", cids)
	}
}

func TestStatsCounters(t *testing.T) {
	x, _ := New(4)
	fp := fingerprint.Sum([]byte("a"))
	x.Insert(fp, 1)
	x.Lookup(fp)
	x.Lookup(fingerprint.Sum([]byte("b")))
	lookups, hits := x.Stats()
	if lookups != 2 || hits != 1 {
		t.Fatalf("Stats = (%d,%d), want (2,1)", lookups, hits)
	}
}

func TestSizeBytes(t *testing.T) {
	x, _ := New(4)
	for i, fp := range randFPs(4, 25) {
		x.Insert(fp, uint64(i))
	}
	if got := x.SizeBytes(); got != 25*entryBytes {
		t.Fatalf("SizeBytes = %d, want %d", got, 25*entryBytes)
	}
}

// TestConcurrentAccess exercises parallel insert+lookup across stripes;
// run with -race to validate the locking discipline.
func TestConcurrentAccess(t *testing.T) {
	for _, locks := range []int{1, 8, 1024} {
		x, _ := New(locks)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				fps := randFPs(int64(w), 500)
				for i, fp := range fps {
					x.Insert(fp, uint64(i))
				}
				for _, fp := range fps {
					if _, ok := x.Lookup(fp); !ok {
						t.Errorf("lost insert under concurrency (locks=%d)", locks)
						return
					}
				}
				x.CountMatches(fps)
			}(w)
		}
		wg.Wait()
		if x.Len() != 8*500 {
			t.Fatalf("locks=%d: Len = %d, want %d", locks, x.Len(), 8*500)
		}
	}
}

func TestPropertyInsertThenFound(t *testing.T) {
	x, _ := New(64)
	f := func(data []byte, cid uint64) bool {
		fp := fingerprint.Sum(data)
		x.Insert(fp, cid)
		got, ok := x.Lookup(fp)
		return ok && got == cid
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookupParallel(b *testing.B) {
	x, _ := New(1024)
	fps := randFPs(9, 1<<16)
	for i, fp := range fps {
		x.Insert(fp, uint64(i))
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			x.Lookup(fps[i&(1<<16-1)])
			i++
		}
	})
}

// TestSummaryTracksInserts checks the bid summary never misses an
// indexed RFP, including across growth rebuilds under concurrent insert.
func TestSummaryTracksInserts(t *testing.T) {
	x, err := New(64)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 4, 3000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				var fp fingerprint.Fingerprint
				rng.Read(fp[:])
				x.Insert(fp, uint64(i))
				if !x.SummaryMayContainAny([]fingerprint.Fingerprint{fp}) {
					t.Errorf("summary missed just-inserted fp (worker %d, i %d)", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	missed := 0
	x.Range(func(fp fingerprint.Fingerprint) bool {
		if !x.Summary().MayContain(fp) {
			missed++
		}
		return true
	})
	if missed > 0 {
		t.Fatalf("summary missed %d of %d indexed RFPs (rebuilds=%d)", missed, x.Len(), x.Summary().Rebuilds())
	}
	if x.Summary().Rebuilds() == 0 {
		t.Fatalf("expected growth rebuilds for %d inserts from default capacity", x.Len())
	}
}
