package core

import (
	"math"

	"sigmadedupe/internal/fingerprint"
)

// Handprint is the set of k smallest chunk fingerprints of a super-chunk,
// sorted ascending. It is the deterministic sample that Broder's theorem
// (and its generalization, Eq. 5 in the paper) turns into a resemblance
// detector: Pr[two handprints intersect] ≥ 1-(1-r)^k ≥ r.
type Handprint []fingerprint.Fingerprint

// NewHandprint selects the k smallest distinct fingerprints from fps.
// Duplicate fingerprints within the super-chunk are collapsed first, as
// the Jaccard resemblance in Eq. (1) is defined over fingerprint sets.
// If fewer than k distinct fingerprints exist, all are returned.
//
// The selection is a bounded insertion over a k-element window rather
// than a full sort: handprinting runs once per super-chunk on the ingest
// hot path, and with k (8) far below the chunk count (hundreds) almost
// every fingerprint is rejected with the single comparison against the
// current k-th smallest.
func NewHandprint(fps []fingerprint.Fingerprint, k int) Handprint {
	if k <= 0 || len(fps) == 0 {
		return Handprint{}
	}
	w := newWindow(k)
	for i := range fps {
		w.offer(&fps[i])
	}
	return w.hp
}

// window is the bounded insertion behind handprinting: the k (> 0)
// smallest distinct fingerprints offered so far, sorted ascending. Once
// it is full, limit is the 8-byte prefix of its largest entry, so the
// rejection is one integer comparison.
type window struct {
	hp    Handprint
	k     int
	limit uint64
}

func newWindow(k int) window {
	return window{hp: make(Handprint, 0, k), k: k, limit: math.MaxUint64}
}

func (w *window) offer(fp *fingerprint.Fingerprint) {
	if fp.Uint64() <= w.limit {
		w.insert(fp)
	}
}

// insert places fp by a scan from the top: k is small, and most
// fingerprints that pass offer's prefix test belong near it.
func (w *window) insert(p *fingerprint.Fingerprint) {
	fp, out := *p, w.hp
	i := len(out)
	for i > 0 && fp.Less(out[i-1]) {
		i--
	}
	if i == w.k || (i > 0 && out[i-1] == fp) {
		return // not among the k smallest, or already in
	}
	if len(out) < w.k {
		out = append(out, fingerprint.Fingerprint{})
	}
	copy(out[i+1:], out[i:])
	out[i] = fp
	if len(out) == w.k {
		w.limit = out[w.k-1].Uint64()
	}
	w.hp = out
}

// Resemblance computes the exact Jaccard resemblance (Eq. 1) between two
// fingerprint multisets, treating them as sets: |A∩B| / |A∪B|.
func Resemblance(a, b []fingerprint.Fingerprint) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	setA := make(map[fingerprint.Fingerprint]struct{}, len(a))
	for _, fp := range a {
		setA[fp] = struct{}{}
	}
	setB := make(map[fingerprint.Fingerprint]struct{}, len(b))
	for _, fp := range b {
		setB[fp] = struct{}{}
	}
	inter := 0
	for fp := range setB {
		if _, ok := setA[fp]; ok {
			inter++
		}
	}
	union := len(setA) + len(setB) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// EstimateResemblance estimates the Jaccard resemblance of two fingerprint
// sets from their size-k handprints: the fraction of the union of the two
// handprints that is shared, the standard k-min sketch estimator. As k
// grows the estimate converges to the true resemblance (paper Fig. 1).
func EstimateResemblance(a, b []fingerprint.Fingerprint, k int) float64 {
	ha, hb := NewHandprint(a, k), NewHandprint(b, k)
	return ha.Estimate(hb)
}

// Estimate computes the sketch resemblance estimate between two handprints:
// |h∩other| / min(k, |h∪other|) where k is the larger handprint size. Using
// the k smallest of the union as the comparison frame makes the estimator
// unbiased for equal-size sketches.
func (h Handprint) Estimate(other Handprint) float64 {
	if len(h) == 0 && len(other) == 0 {
		return 1
	}
	if len(h) == 0 || len(other) == 0 {
		return 0
	}
	k := len(h)
	if len(other) > k {
		k = len(other)
	}
	// Merge to find the k smallest of the union, counting those present
	// in both sketches.
	i, j, inUnion, shared := 0, 0, 0, 0
	for inUnion < k && (i < len(h) || j < len(other)) {
		switch {
		case i >= len(h):
			j++
		case j >= len(other):
			i++
		default:
			switch h[i].Compare(other[j]) {
			case -1:
				i++
			case 1:
				j++
			default:
				shared++
				i++
				j++
			}
		}
		inUnion++
	}
	return float64(shared) / float64(inUnion)
}
