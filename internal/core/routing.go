package core

import "math"

// Weak-bid balance override: a candidate whose bid matched at most
// weakBidMaxResemblance representative fingerprints and whose storage
// usage already exceeds weakBidUsageSlack × the candidate-set mean loses
// to the least-loaded candidate. A single-RFP match carries almost no
// expected overlap (Theorem 1 ties resemblance to dedup via the FULL
// handprint), but a globally popular block — boilerplate shared by a few
// percent of all super-chunks — plants its fingerprint in thousands of
// handprints and would otherwise drag every one of those super-chunks,
// fresh unique bytes and all, onto whichever node stored it first: the
// usage discount of Algorithm 1 cannot save an attractor that is the
// sole positive bidder. Measured on the generational linux workload at
// 128 nodes this override cuts max/mean node bytes from ~1.9 to ~1.15 at
// no observable dedup cost.
const (
	weakBidMaxResemblance = 1
	weakBidUsageSlack     = 1.05
)

// RouteDecision is the outcome of Algorithm 1 for one super-chunk.
type RouteDecision struct {
	// Node is the selected target node ID.
	Node int
	// Resemblance is the raw representative-fingerprint match count r_i
	// observed at the chosen node.
	Resemblance int
	// Score is the usage-discounted value r_i/w_i the node won with.
	Score float64
	// Second is the runner-up: what the same rule picks with Node taken
	// out, among positive bids only; -1 when there is none.
	Second int
}

// SelectTarget implements steps 2–4 of Algorithm 1 (similarity-based
// stateful data routing): given the candidate node IDs, the count of
// matching representative fingerprints r_i reported by each candidate, and
// each candidate's physical storage usage, it discounts each resemblance by
// relative storage usage (usage_i / mean usage) and picks the candidate
// maximizing r_i / w_i.
//
// Tie-breaking: the candidate with the lower storage usage wins, then the
// lower node ID, making the decision deterministic. When every candidate
// reports zero resemblance the least-loaded candidate is chosen, which is
// what yields near-global load balance (Theorem 2): candidates are
// uniformly distributed by the hash, and among them we fill valleys first.
func SelectTarget(candidates []int, counts []int, usage []int64) RouteDecision {
	if len(candidates) == 0 {
		return RouteDecision{Node: -1, Second: -1}
	}
	// Mean usage over the candidate set; +1 byte avoids division by zero
	// on an empty cluster while preserving ordering.
	var total float64
	for _, u := range usage {
		total += float64(u)
	}
	mean := total/float64(len(usage)) + 1

	best, score := strongestBid(candidates, counts, usage, mean, -1)
	d := RouteDecision{Second: -1}
	if best >= 0 {
		d.Node, d.Resemblance, d.Score = candidates[best], counts[best], score
	} else {
		// Either no candidate has seen any of this super-chunk's
		// representative fingerprints, or the only bids were weak ones from
		// already-overloaded nodes (see the weak-bid override above): fall
		// back to the least-loaded candidate. Candidates are uniformly
		// distributed by the hash (Theorem 2), so filling valleys first
		// approaches global balance.
		for i, node := range candidates {
			if best == -1 || usage[i] < usage[best] ||
				(usage[i] == usage[best] && node < candidates[best]) {
				best = i
			}
		}
		d.Node = candidates[best]
	}
	if second, _ := strongestBid(candidates, counts, usage, mean, best); second >= 0 {
		d.Second = candidates[second]
	}
	return d
}

// strongestBid is Algorithm 1 step 4 over the candidates but the one at
// index skip: the positive bid maximizing r_i/w_i (ties: lower usage, then
// lower ID) with its score, or -1 if there is none or it is a weak bid
// from an overloaded node. Zero-resemblance candidates never outbid a
// node holding matching data, however empty they are (else sparse large
// clusters would route similar data away from its home for balance).
func strongestBid(candidates, counts []int, usage []int64, mean float64, skip int) (int, float64) {
	best := -1
	var bestScore float64
	for i, node := range candidates {
		if counts[i] == 0 || i == skip {
			continue
		}
		w := (float64(usage[i]) + 1) / mean // relative storage usage
		score := float64(counts[i]) / w
		if best == -1 || score > bestScore ||
			(score == bestScore && usage[i] < usage[best]) ||
			(score == bestScore && usage[i] == usage[best] && node < candidates[best]) {
			best, bestScore = i, score
		}
	}
	if best >= 0 && counts[best] <= weakBidMaxResemblance &&
		float64(usage[best])+1 > weakBidUsageSlack*mean {
		return -1, 0
	}
	return best, bestScore
}

// SkewRatio returns σ/α — the ratio of standard deviation to mean of
// per-node physical storage usage — the imbalance term in the paper's
// normalized effective deduplication ratio (Eq. 7).
func SkewRatio(usage []int64) float64 {
	if len(usage) == 0 {
		return 0
	}
	var sum float64
	for _, u := range usage {
		sum += float64(u)
	}
	mean := sum / float64(len(usage))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, u := range usage {
		d := float64(u) - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(usage))) / mean
}
