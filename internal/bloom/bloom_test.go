package bloom

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sigmadedupe/internal/fingerprint"
)

func randFP(rng *rand.Rand) fingerprint.Fingerprint {
	var b [16]byte
	rng.Read(b[:])
	return fingerprint.Sum(b[:])
}

func TestNoFalseNegatives(t *testing.T) {
	f, err := newFilter(10000, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	added := make([]fingerprint.Fingerprint, 5000)
	for i := range added {
		added[i] = randFP(rng)
		f.Add(added[i])
	}
	for i, fp := range added {
		if !f.MayContain(fp) {
			t.Fatalf("false negative for element %d", i)
		}
	}
}

func TestFalsePositiveRateNearTarget(t *testing.T) {
	f, _ := newFilter(10000, 0.01)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		f.Add(randFP(rng))
	}
	probe := rand.New(rand.NewSource(999))
	falsePos := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if f.MayContain(randFP(probe)) {
			falsePos++
		}
	}
	rate := float64(falsePos) / trials
	if rate > 0.03 {
		t.Fatalf("observed FP rate %v, want <= 0.03 (target 0.01)", rate)
	}
}

func TestEmptyFilterContainsNothing(t *testing.T) {
	f, _ := newFilter(100, 0.01)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		if f.MayContain(randFP(rng)) {
			t.Fatal("empty filter claims membership")
		}
	}
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		n    int
		rate float64
	}{
		{0, 0.01}, {-5, 0.01}, {100, 0}, {100, 1}, {100, -0.5},
	}
	for _, tt := range tests {
		if _, err := newFilter(tt.n, tt.rate); err == nil {
			t.Errorf("New(%d, %v) succeeded, want error", tt.n, tt.rate)
		}
	}
}

func TestSizeScalesWithCapacity(t *testing.T) {
	small, _ := newFilter(1000, 0.01)
	large, _ := newFilter(100000, 0.01)
	if large.SizeBytes() <= small.SizeBytes() {
		t.Fatal("larger capacity must use more bits")
	}
	// ~9.6 bits/entry at 1% FP rate.
	bitsPer := float64(large.SizeBytes()*8) / 100000
	if bitsPer < 8 || bitsPer > 12 {
		t.Fatalf("bits per entry = %v, want ~9.6", bitsPer)
	}
}

func TestInsertsCounter(t *testing.T) {
	f, _ := newFilter(100, 0.01)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 7; i++ {
		f.Add(randFP(rng))
	}
	if f.Inserts() != 7 {
		t.Fatalf("Inserts() = %d, want 7", f.Inserts())
	}
}

func TestPropertyAddedAlwaysFound(t *testing.T) {
	f, _ := newFilter(5000, 0.01)
	check := func(data []byte) bool {
		fp := fingerprint.Sum(data)
		f.Add(fp)
		return f.MayContain(fp)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
