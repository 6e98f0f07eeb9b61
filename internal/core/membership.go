package core

import (
	"sort"

	"sigmadedupe/internal/fingerprint"
)

// Membership is one epoch of the cluster's live node set. Node IDs are
// stable for the lifetime of a node but the set is elastic: adding a
// node appends a fresh ID, removing one leaves a hole. Every membership
// change bumps Epoch, and routing decisions are made against one pinned
// Membership value so a backup item never sees a torn member list.
//
// Placement over a Membership uses rendezvous (highest-random-weight)
// hashing rather than the dense mod-N of the fixed-size experiment path:
// when the cluster grows from N to N+1 nodes, each fingerprint's owner
// changes with probability 1/(N+1) instead of N/(N+1), which is what
// keeps similarity routing — and with it the cluster's dedup ratio —
// stable across membership changes.
type Membership struct {
	// Epoch is the membership generation, bumped by every change.
	Epoch uint64
	// Nodes holds the live node IDs, ascending.
	Nodes []int
	// keys caches each node's rendezvous multiplier, aligned with Nodes.
	// At 128 nodes a single super-chunk ranks every member once per
	// handprint fingerprint; precomputing the per-node half of the mix
	// keeps that scan to one xor-multiply chain per (fp, node) pair. A
	// zero-value Membership (nil keys) still works — nodeKey recomputes.
	keys []uint64
}

// nodeKeys builds the cached rendezvous multipliers for ids.
func nodeKeys(ids []int) []uint64 {
	keys := make([]uint64, len(ids))
	for i, id := range ids {
		keys[i] = (uint64(id) + 1) * 0x9E3779B97F4A7C15
	}
	return keys
}

// nodeKey returns the rendezvous multiplier of the i-th member.
func (m Membership) nodeKey(i int) uint64 {
	if m.keys != nil {
		return m.keys[i]
	}
	return (uint64(m.Nodes[i]) + 1) * 0x9E3779B97F4A7C15
}

// NewMembership builds a membership over the given node IDs (copied,
// sorted ascending).
func NewMembership(epoch uint64, ids []int) Membership {
	out := make([]int, len(ids))
	copy(out, ids)
	sort.Ints(out)
	return Membership{Epoch: epoch, Nodes: out, keys: nodeKeys(out)}
}

// DenseMembership is the fixed-cluster membership 0..n-1 at epoch 1.
func DenseMembership(n int) Membership {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return Membership{Epoch: 1, Nodes: ids, keys: nodeKeys(ids)}
}

// Len returns the live node count.
func (m Membership) Len() int { return len(m.Nodes) }

// Contains reports whether id is live in this epoch.
func (m Membership) Contains(id int) bool {
	i := sort.SearchInts(m.Nodes, id)
	return i < len(m.Nodes) && m.Nodes[i] == id
}

// Without returns the membership with id removed (same epoch; callers
// bump the epoch when the change commits).
func (m Membership) Without(id int) Membership {
	out := make([]int, 0, len(m.Nodes))
	for _, n := range m.Nodes {
		if n != id {
			out = append(out, n)
		}
	}
	return Membership{Epoch: m.Epoch, Nodes: out, keys: nodeKeys(out)}
}

// mixWeight is the HRW score of (fp, node): a splitmix64 finalizer over
// the fingerprint's 64-bit prefix mixed with the node's cached key
// ((node+1) × the golden-ratio constant, see nodeKeys). Any fixed
// avalanche mix works; this one is allocation-free and stable across
// processes, which the on-disk recipe/placement state requires. The
// ranking loops hoist the fingerprint prefix: the inner loop is xor + 3
// multiply-shift rounds, nothing recomputed per node.
func mixWeight(fp64, nodeKey uint64) uint64 {
	x := fp64 ^ nodeKey
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Owner returns the live node that owns fp under rendezvous hashing: the
// member with the highest weight for fp. Adding one node to an N-node
// membership moves any given fingerprint's owner with probability
// 1/(N+1); removing a node moves only the fingerprints it owned.
// Returns -1 on an empty membership.
func (m Membership) Owner(fp fingerprint.Fingerprint) int {
	first, _ := m.owners2(fp)
	return first
}

// ReplicaTarget returns the replica owner for fp given its primary: the
// highest-weight live node other than primary. This generalizes owners2
// — when primary is the rank-1 owner the replica is the rank-2 owner,
// and when a bid placed the data off its rank-1 owner the replica is the
// rank-1 owner itself — so primary and replica never coincide. Returns
// -1 when the membership has no second node.
func (m Membership) ReplicaTarget(fp fingerprint.Fingerprint, primary int) int {
	best := -1
	var bestW uint64
	fp64 := fp.Uint64()
	for i, id := range m.Nodes {
		if id == primary {
			continue
		}
		w := mixWeight(fp64, m.nodeKey(i))
		if best == -1 || w > bestW || (w == bestW && id < best) {
			best, bestW = id, w
		}
	}
	return best
}

// SeedOwner returns the rendezvous owner of a synthetic fingerprint
// derived from seed — the stable route of a degenerate (empty-handprint)
// super-chunk. Distinct seeds spread across the membership like any
// other fingerprints; a fixed fallback node would concentrate every
// degenerate super-chunk on it. Returns -1 on an empty membership.
func (m Membership) SeedOwner(seed uint64) int {
	return m.Owner(seedFingerprint(seed))
}

// seedFingerprint builds the synthetic fingerprint SeedOwner routes by:
// the seed in the 8-byte big-endian prefix (all Fingerprint.Uint64
// reads), avalanche-mixed so sequential seeds don't correlate.
func seedFingerprint(seed uint64) fingerprint.Fingerprint {
	x := seed
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	var fp fingerprint.Fingerprint
	for i := 0; i < 8; i++ {
		fp[i] = byte(x >> (56 - 8*i))
	}
	return fp
}

// owners2 returns the two highest-weight live nodes for fp (second is
// -1 on a single-node membership).
func (m Membership) owners2(fp fingerprint.Fingerprint) (int, int) {
	first, second := -1, -1
	var firstW, secondW uint64
	fp64 := fp.Uint64()
	for i, id := range m.Nodes {
		w := mixWeight(fp64, m.nodeKey(i))
		switch {
		case first == -1 || w > firstW || (w == firstW && id < first):
			second, secondW = first, firstW
			first, firstW = id, w
		case second == -1 || w > secondW || (w == secondW && id < second):
			second, secondW = id, w
		}
	}
	return first, second
}

// Candidates maps each representative fingerprint of hp to its
// highest-ranked rendezvous owner(s) among the live nodes (Algorithm 1
// step 1, epoch-aware): the deduplicated union, at most 2k candidates
// regardless of cluster size — the message cost stays N-independent.
//
// On a cluster whose membership never changed (epoch 1) each
// fingerprint contributes its single owner — the paper's k-candidate
// cost, bit for bit. From the first membership change on (epoch ≥ 2)
// each fingerprint contributes its top TWO owners: one added node can
// push a previous owner from rank 1 to rank 2 but never out of the
// candidate set, so a re-backup still bids the node that holds the
// data — and the bid, not hash churn, decides placement. Only removal
// of the owner itself forces movement, which is exactly the minimal
// set; the price of elasticity is at most a doubled (still
// N-independent) pre-routing message cost.
//
// An empty handprint still routes somewhere: the fallback is the
// rendezvous owner of a synthetic fingerprint derived from seed
// (SeedOwner), so degenerate super-chunks with distinct seeds spread
// across the membership instead of all landing on the first live node.
// Callers pass a stable per-super-chunk seed (SuperChunk.Seed).
func (m Membership) Candidates(hp Handprint, seed uint64) []int {
	if len(m.Nodes) == 0 {
		return nil
	}
	return m.AppendCandidates(make([]int, 0, 2*len(hp)), hp, seed)
}

// AppendCandidates is Candidates with caller-owned storage: it appends
// the candidate set to dst and returns the extended slice, allocating
// nothing when dst has capacity for it (≤ 2·len(hp)+1 entries). Routers
// ranking every super-chunk at 64–128 nodes reuse a stack buffer here so
// candidate selection stays allocation-free on the routing hot path.
func (m Membership) AppendCandidates(dst []int, hp Handprint, seed uint64) []int {
	if len(m.Nodes) == 0 {
		return dst
	}
	// The candidate set is tiny (≤ 2·len(hp), typically ≤ 8), so dedup
	// is a linear scan over the appended region — no map, no closure;
	// this runs once per super-chunk on the routing hot path.
	base := len(dst)
	add := func(dst []int, id int) []int {
		if id < 0 {
			return dst
		}
		for _, have := range dst[base:] {
			if have == id {
				return dst
			}
		}
		return append(dst, id)
	}
	for _, fp := range hp {
		first, second := m.owners2(fp)
		dst = add(dst, first)
		if m.Epoch > 1 {
			dst = add(dst, second)
		}
	}
	if len(dst) == base {
		dst = append(dst, m.SeedOwner(seed))
	}
	return dst
}
