package bloom

import (
	"fmt"
	"sync"

	"sigmadedupe/internal/fingerprint"
)

// Summary sizing defaults. Bid summaries trade a little RAM for dropping
// the bid fan-out from O(N) index queries per super-chunk to O(1)
// expected positive probes: at the default 1% target rate a summary costs
// ~15 bits per representative fingerprint (with the blocked layout's 25%
// oversizing), so a node holding one million RFPs carries a ~1.9MB
// summary — small next to the 40B/entry similarity index it shadows.
const (
	// DefaultSummaryCapacity is the initial key capacity of a Growable.
	DefaultSummaryCapacity = 1 << 12
	// defaultSummaryFPRate is the target false-positive rate a Growable
	// is sized for at capacity.
	defaultSummaryFPRate = 0.01
)

// Growable is a Bloom filter sized by what it holds: it starts small and
// grows by rebuilding. Add reports when the filter has been fed more keys
// than it was sized for, and the owner then calls Rebuild with a fresh
// enumeration of its authoritative key set at twice the capacity. A
// rebuild also forgets keys the owner has since deleted. Growable is not
// safe for concurrent use: Summary wraps one in its own lock, and the
// chunk index keeps one under the lock that guards its map.
type Growable struct {
	f        *filter
	capacity int
	fpRate   float64
	rebuilds uint64
}

// NewGrowable creates a filter sized for capacity keys at the given
// target false-positive rate. Zero/negative arguments select the package
// defaults.
func NewGrowable(capacity int, fpRate float64) (Growable, error) {
	if capacity <= 0 {
		capacity = DefaultSummaryCapacity
	}
	if fpRate <= 0 {
		fpRate = defaultSummaryFPRate
	}
	if fpRate >= 1 {
		return Growable{}, fmt.Errorf("bloom: growable false-positive rate %v must be in (0,1)", fpRate)
	}
	f, err := newFilter(capacity, fpRate)
	if err != nil {
		return Growable{}, err
	}
	return Growable{f: f, capacity: capacity, fpRate: fpRate}, nil
}

// Add inserts fp and reports whether the filter is now overfull — fed
// more keys than its sized capacity — meaning the owner should Rebuild
// it from the authoritative key set at a larger capacity. The filter
// keeps absorbing keys while overfull (its false-positive rate degrades,
// never its no-false-negative guarantee).
func (g *Growable) Add(fp fingerprint.Fingerprint) (overfull bool) {
	g.f.Add(fp)
	return g.f.Inserts() > uint64(g.capacity)
}

// MayContain reports whether fp may have been added. False means
// definitely absent.
func (g *Growable) MayContain(fp fingerprint.Fingerprint) bool { return g.f.MayContain(fp) }

// Rebuild replaces the filter with one sized for capacity keys, refilled
// from source — an enumeration of the authoritative key set. If the
// capacity already covers the request the rebuild is skipped.
func (g *Growable) Rebuild(capacity int, source func(yield func(fp fingerprint.Fingerprint) bool)) error {
	if capacity <= 0 {
		return fmt.Errorf("bloom: rebuild capacity %d must be positive", capacity)
	}
	if g.capacity >= capacity {
		return nil
	}
	f, err := newFilter(capacity, g.fpRate)
	if err != nil {
		return err
	}
	source(func(fp fingerprint.Fingerprint) bool {
		f.Add(fp)
		return true
	})
	g.f = f
	g.capacity = capacity
	g.rebuilds++
	return nil
}

// Capacity returns the key capacity the filter is currently sized for.
func (g *Growable) Capacity() int { return g.capacity }

// Inserts returns the number of keys fed to the current filter (a
// rebuild resets it to the enumeration's count).
func (g *Growable) Inserts() uint64 { return g.f.Inserts() }

// Rebuilds returns how many growth rebuilds the filter has absorbed.
func (g *Growable) Rebuilds() uint64 { return g.rebuilds }

// Summary is a concurrency-safe Growable over one node's similarity-index
// representative fingerprints — the per-node "bid summary" consulted by
// routers before fanning a handprint out to candidate nodes, and by the
// node before a bid walks its index. A caller that sees MayContainAny ==
// false skips the bid entirely without risking a missed dedup match,
// because the summary never reports a false negative for a key it was
// given.
//
// Correctness across a rebuild relies on the owner's insert order: the
// key must be visible to the enumeration source BEFORE Add(key) is
// called, so a key that a concurrent rebuild's enumeration misses is
// re-added afterwards by its pending Add (which serializes behind the
// rebuild's write lock).
type Summary struct {
	mu sync.RWMutex
	g  Growable
}

// NewSummary creates a bid summary sized for capacity keys at the given
// target false-positive rate. Zero/negative arguments select the package
// defaults.
func NewSummary(capacity int, fpRate float64) (*Summary, error) {
	g, err := NewGrowable(capacity, fpRate)
	if err != nil {
		return nil, err
	}
	return &Summary{g: g}, nil
}

// Add inserts fp and reports whether the summary is now overfull (see
// Growable.Add).
func (s *Summary) Add(fp fingerprint.Fingerprint) (overfull bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.g.Add(fp)
}

// MayContain reports whether fp may have been added. False means
// definitely absent.
func (s *Summary) MayContain(fp fingerprint.Fingerprint) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.g.MayContain(fp)
}

// MayContainAny reports whether any of the fingerprints may be present —
// the one-shot pre-filter of a handprint's bid. False means a bid for it
// is guaranteed to return a zero resemblance count.
func (s *Summary) MayContainAny(fps []fingerprint.Fingerprint) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, fp := range fps {
		if s.g.MayContain(fp) {
			return true
		}
	}
	return false
}

// Rebuild regrows the summary from source (see Growable.Rebuild). A
// request its capacity already covers is skipped, collapsing the
// redundant rebuilds that concurrent Add callers trigger around the same
// growth point.
func (s *Summary) Rebuild(capacity int, source func(yield func(fp fingerprint.Fingerprint) bool)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.g.Rebuild(capacity, source)
}

// Capacity returns the key capacity the summary is currently sized for.
func (s *Summary) Capacity() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.g.Capacity()
}

// Rebuilds returns how many growth rebuilds the summary has absorbed.
func (s *Summary) Rebuilds() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.g.Rebuilds()
}

// SizeBytes returns the current filter's bit-array footprint.
func (s *Summary) SizeBytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.g.f.SizeBytes()
}
