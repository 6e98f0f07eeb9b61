package bloom

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"sigmadedupe/internal/fingerprint"
)

// TestSummaryNoFalseNegatives is the bid-summary safety property: every
// added key must be reported present, across growth rebuilds that mirror
// how simindex feeds the summary (key visible to the enumeration source
// before Add is called).
func TestSummaryNoFalseNegatives(t *testing.T) {
	s, err := NewSummary(64, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var index []fingerprint.Fingerprint // authoritative source, grows first
	for i := 0; i < 5000; i++ {
		fp := randFP(rng)
		index = append(index, fp)
		if s.Add(fp) {
			snapshot := append([]fingerprint.Fingerprint(nil), index...)
			if err := s.Rebuild(2*s.Capacity(), func(yield func(fingerprint.Fingerprint) bool) {
				for _, fp := range snapshot {
					if !yield(fp) {
						return
					}
				}
			}); err != nil {
				t.Fatalf("rebuild at %d keys: %v", len(index), err)
			}
		}
		// Spot-check a prefix each round; full check at the end.
		if i%512 == 0 {
			for j := 0; j <= i; j += 97 {
				if !s.MayContain(index[j]) {
					t.Fatalf("false negative for key %d after %d inserts", j, i+1)
				}
			}
		}
	}
	for i, fp := range index {
		if !s.MayContain(fp) {
			t.Fatalf("false negative for key %d after all inserts", i)
		}
	}
	if s.Rebuilds() == 0 {
		t.Fatal("expected at least one growth rebuild over 5000 keys from capacity 64")
	}
	if got := s.g.Inserts(); got < 5000 {
		t.Fatalf("inserts = %d, want >= 5000 (rebuild resets to enumeration count)", got)
	}
}

// TestSummaryFPRateWithinEstimate checks the measured false-positive
// rate of a summary filled to capacity stays within 2x of the rate it was
// sized for (plus a small absolute floor for sampling noise).
func TestSummaryFPRateWithinEstimate(t *testing.T) {
	const n = 20000
	s, err := NewSummary(n, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < n; i++ {
		s.Add(randFP(rng))
	}
	probe := rand.New(rand.NewSource(4242))
	falsePos := 0
	const trials = 50000
	for i := 0; i < trials; i++ {
		if s.MayContain(randFP(probe)) {
			falsePos++
		}
	}
	rate := float64(falsePos) / trials
	const est = 0.01 // the rate NewSummary sized the filter for
	if limit := 2*est + 0.002; rate > limit {
		t.Fatalf("measured FP rate %v exceeds 2x target %v (+noise floor) = %v", rate, est, limit)
	}
}

// TestSummaryMayContainAny covers the router's one-shot candidate
// pre-filter.
func TestSummaryMayContainAny(t *testing.T) {
	s, err := NewSummary(1000, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	var in []fingerprint.Fingerprint
	for i := 0; i < 100; i++ {
		fp := randFP(rng)
		in = append(in, fp)
		s.Add(fp)
	}
	var out []fingerprint.Fingerprint
	for i := 0; i < 8; i++ {
		out = append(out, randFP(rng))
	}
	if !s.MayContainAny(append(append([]fingerprint.Fingerprint(nil), out...), in[42])) {
		t.Fatal("MayContainAny missed a present key")
	}
	if s.MayContainAny(nil) {
		t.Fatal("MayContainAny(nil) should be false")
	}
}

// TestSummaryRebuildSkipsWhenLargeEnough verifies redundant rebuild
// requests (concurrent growers racing past the same threshold) collapse.
func TestSummaryRebuildSkipsWhenLargeEnough(t *testing.T) {
	s, err := NewSummary(1024, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	src := func(yield func(fingerprint.Fingerprint) bool) { calls++ }
	if err := s.Rebuild(512, src); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(1024, src); err != nil {
		t.Fatal(err)
	}
	if calls != 0 || s.Rebuilds() != 0 {
		t.Fatalf("rebuild ran for capacity <= current (calls=%d rebuilds=%d)", calls, s.Rebuilds())
	}
	if err := s.Rebuild(2048, src); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || s.Rebuilds() != 1 || s.Capacity() != 2048 {
		t.Fatalf("growth rebuild not applied (calls=%d rebuilds=%d cap=%d)", calls, s.Rebuilds(), s.Capacity())
	}
	if err := s.Rebuild(0, src); err == nil {
		t.Fatal("Rebuild(0) should fail")
	}
}

// TestSummaryConcurrentAddQuery exercises the summary under the race
// detector: writers adding and triggering rebuilds while readers probe.
func TestSummaryConcurrentAddQuery(t *testing.T) {
	s, err := NewSummary(256, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	var srcMu sync.Mutex
	var index []fingerprint.Fingerprint
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				fp := randFP(rng)
				srcMu.Lock()
				index = append(index, fp)
				srcMu.Unlock()
				if s.Add(fp) {
					srcMu.Lock()
					snapshot := append([]fingerprint.Fingerprint(nil), index...)
					srcMu.Unlock()
					s.Rebuild(2*s.Capacity(), func(yield func(fingerprint.Fingerprint) bool) {
						for _, fp := range snapshot {
							if !yield(fp) {
								return
							}
						}
					})
				}
			}
		}(int64(100 + w))
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				s.MayContain(randFP(rng))
				s.SizeBytes()
			}
		}(int64(200 + r))
	}
	wg.Wait()
	srcMu.Lock()
	defer srcMu.Unlock()
	for i, fp := range index {
		if !s.MayContain(fp) {
			t.Fatalf("false negative for key %d after concurrent load", i)
		}
	}
}

func TestSummaryDefaultsAndValidation(t *testing.T) {
	s, err := NewSummary(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Capacity() != DefaultSummaryCapacity {
		t.Fatalf("default capacity = %d, want %d", s.Capacity(), DefaultSummaryCapacity)
	}
	if _, err := NewSummary(10, 1.5); err == nil {
		t.Fatal("NewSummary with fpRate >= 1 should fail")
	}
}

// fuzzFPs derives a deterministic fingerprint set from raw fuzz input:
// each 8-byte window (stride 3 for overlap variety) hashes to one key.
func fuzzFPs(data []byte) []fingerprint.Fingerprint {
	var fps []fingerprint.Fingerprint
	for i := 0; i+8 <= len(data) && len(fps) < 4096; i += 3 {
		fps = append(fps, fingerprint.Sum(data[i:i+8]))
	}
	return fps
}

// FuzzFilter fuzzes the blocked filter and the Summary wrapper with
// arbitrary key sets: no added key may ever be reported absent, before
// or after a growth rebuild, and the empty filter must report nothing.
func FuzzFilter(f *testing.F) {
	seed := func(n int, seedVal int64) []byte {
		rng := rand.New(rand.NewSource(seedVal))
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	f.Add([]byte(nil))
	f.Add([]byte("sigma-dedupe"))
	f.Add(seed(64, 1))
	f.Add(seed(512, 2))
	f.Add(seed(4096, 3))
	var counter [8]byte
	binary.BigEndian.PutUint64(counter[:], 0x0102030405060708)
	f.Add(counter[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		fps := fuzzFPs(data)
		flt, err := newFilter(len(fps)+1, 0.01)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		s, err := NewSummary(8, 0.01)
		if err != nil {
			t.Fatalf("NewSummary: %v", err)
		}
		for i, fp := range fps {
			flt.Add(fp)
			if !flt.MayContain(fp) {
				t.Fatalf("filter false negative immediately after Add (key %d)", i)
			}
			if s.Add(fp) {
				added := fps[:i+1]
				if err := s.Rebuild(2*s.Capacity(), func(yield func(fingerprint.Fingerprint) bool) {
					for _, fp := range added {
						if !yield(fp) {
							return
						}
					}
				}); err != nil {
					t.Fatalf("rebuild: %v", err)
				}
			}
		}
		for i, fp := range fps {
			if !flt.MayContain(fp) {
				t.Fatalf("filter false negative for key %d of %d", i, len(fps))
			}
			if !s.MayContain(fp) {
				t.Fatalf("summary false negative for key %d of %d (rebuilds=%d)", i, len(fps), s.Rebuilds())
			}
		}
		if len(fps) > 0 && !s.MayContainAny(fps) {
			t.Fatal("MayContainAny false for a set containing added keys")
		}
	})
}
