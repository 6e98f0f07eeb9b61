// Package router implements inter-node data routing for cluster
// deduplication: the paper's similarity-based stateful scheme (Σ-Dedupe,
// Algorithm 1) and the four baselines it is evaluated against — EMC's
// super-chunk Stateless and Stateful routing (Dong et al., FAST'11),
// Extreme Binning's file-level similarity routing (Bhagwat et al.,
// MASCOTS'09), and HYDRAstor-style chunk-level DHT placement.
//
// A Router decides, for each super-chunk, which node(s) receive which
// chunks, and reports the number of pre-routing fingerprint-lookup
// messages the decision cost — the system-overhead metric of Fig. 7.
package router

import (
	"fmt"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
)

// Scheme enumerates the implemented routing schemes.
type Scheme int

// Routing schemes, in the order of the paper's Table 1.
const (
	Sigma Scheme = iota + 1
	Stateless
	Stateful
	ExtremeBinning
	ChunkDHT
)

// String returns the scheme name as used in the paper's figures.
func (s Scheme) String() string {
	switch s {
	case Sigma:
		return "SigmaDedupe"
	case Stateless:
		return "Stateless"
	case Stateful:
		return "Stateful"
	case ExtremeBinning:
		return "ExtremeBinning"
	case ChunkDHT:
		return "ChunkDHT"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// ParseScheme resolves a scheme name (case-sensitive, as printed by
// String, plus the short aliases sigma/stateless/stateful/eb/dht).
func ParseScheme(name string) (Scheme, error) {
	switch name {
	case "SigmaDedupe", "sigma":
		return Sigma, nil
	case "Stateless", "stateless":
		return Stateless, nil
	case "Stateful", "stateful":
		return Stateful, nil
	case "ExtremeBinning", "eb", "extremebinning":
		return ExtremeBinning, nil
	case "ChunkDHT", "dht", "chunkdht":
		return ChunkDHT, nil
	default:
		return 0, fmt.Errorf("router: unknown scheme %q", name)
	}
}

// View is the cluster state a router may consult. Implementations charge
// the appropriate message counters themselves; routers report their own
// pre-routing message cost in the Decision.
type View interface {
	// N returns the cluster size.
	N() int
	// Membership returns the live node set of the epoch this view is
	// pinned to. Routers that are elastic-cluster aware (Sigma) derive
	// candidates from it, so bids only ever consult nodes live in the
	// pinned epoch; fixed-cluster baselines may keep using N().
	Membership() core.Membership
	// BidHandprint returns node's count of already-stored representative
	// fingerprints from hp (similarity-index lookup, Algorithm 1 step 2).
	BidHandprint(nodeID int, hp core.Handprint) int
	// BidChunks returns how many of the given chunk fingerprints node
	// already stores (chunk-index sampling, used by Stateful routing).
	BidChunks(nodeID int, fps []fingerprint.Fingerprint) int
	// Usage returns node's physical storage usage in bytes.
	Usage(nodeID int) int64
}

// SummaryView is the optional bid-summary extension of View. A view that
// implements it lets routers consult each node's compact Bloom summary
// of its similarity index before paying for a bid: SummaryMayContain
// must never return false for a node whose BidHandprint(hp) would be
// positive (no false negatives), so a summary-negative node can be
// scored zero without a message. Summaries are small enough to
// replicate to every router (a few KB per node), so probing all N of
// them is local RAM work — which turns similarity bidding into global
// discovery at O(1) expected bid messages per super-chunk instead of
// O(N) at 64–128 nodes.
type SummaryView interface {
	// SummaryMayContain reports whether any representative fingerprint
	// of hp may be present in node's similarity index. False means the
	// node's handprint bid is guaranteed to be zero.
	SummaryMayContain(nodeID int, hp core.Handprint) bool
}

// assignment sends the chunks with the given indexes (nil = all chunks of
// the super-chunk) to Node.
type assignment struct {
	Node   int
	Chunks []int
}

// Decision is a routing outcome plus its message cost.
type Decision struct {
	Assignments []assignment
	// PreRoutingMsgs counts fingerprint-lookup messages exchanged to make
	// the decision (Fig. 7's overhead metric; one message per fingerprint
	// per contacted node, matching the paper's accounting where Σ-Dedupe's
	// pre-routing cost is k RFPs × k candidates = 1/4 of the after-routing
	// per-chunk lookups at the default parameters).
	PreRoutingMsgs int64
	// BidsSent counts the nodes actually queried for a bid. Without
	// summaries this equals the candidate count (Sigma) or the cluster
	// size (Stateful); with summaries it is the number of
	// summary-positive candidates — the O(1) expected fan-out the
	// scale-out campaign measures.
	BidsSent int64
	// SummaryChecks counts bid-summary probes made for this decision
	// (zero when the view has no summaries or the router ignores them).
	SummaryChecks int64
	// SummaryHits counts summary probes that answered "may contain",
	// each of which turned into a real bid.
	SummaryHits int64
	// SummaryFalsePos counts summary hits whose subsequent bid returned
	// zero — bids the summary failed to save. For similarity (handprint)
	// bids this is exactly the Bloom false-positive count; for Stateful
	// chunk-sample bids it also absorbs handprint/chunk-sample mismatch,
	// since the summary sketches RFPs, not raw chunk fingerprints.
	SummaryFalsePos int64
	// Resemblance is the winner's bid — core's routeDecision.Resemblance,
	// the representative (or, for Stateful, sampled) fingerprints it
	// already holds — for routers that bid; zero otherwise. A zero after
	// bids means no node resembles the super-chunk: its chunks are almost
	// surely new, and the session sends their payloads without asking.
	Resemblance int
	// Second is the runner-up bidder — core's routeDecision.Second — where
	// an R=2 session writes the second copy; -1 when no other node bid
	// positive or the router does not bid.
	Second int
}

// Router routes super-chunks to deduplication nodes.
type Router interface {
	// Name returns the scheme name for reports.
	Name() string
	// Route decides placement for sc given cluster state v.
	Route(sc *core.SuperChunk, v View) Decision
}

// New constructs a router for the scheme with the given handprint size k
// (used by Sigma) and stateful sampling rate denominator (used by
// Stateful; the paper samples 1/32 of chunk fingerprints).
func New(s Scheme, k, sampleRate int) (Router, error) {
	if k <= 0 {
		k = core.DefaultHandprintSize
	}
	if sampleRate <= 0 {
		sampleRate = 32
	}
	switch s {
	case Sigma:
		return &SigmaRouter{K: k}, nil
	case Stateless:
		return &statelessRouter{}, nil
	case Stateful:
		return &StatefulRouter{SampleRate: sampleRate}, nil
	case ExtremeBinning:
		return &ebRouter{}, nil
	case ChunkDHT:
		return &dhtRouter{}, nil
	default:
		return nil, fmt.Errorf("router: unknown scheme %d", int(s))
	}
}

// all is the assignment shorthand for "whole super-chunk to one node".
func all(node int) Decision {
	return Decision{Assignments: []assignment{{Node: node}}, Second: -1}
}

// SigmaRouter is the paper's similarity-based stateful data routing
// (Algorithm 1): candidates are the handprint fingerprints mod N; each
// candidate bids its similarity-index match count; bids are discounted by
// relative storage usage; the highest discounted bid wins.
type SigmaRouter struct {
	// K is the handprint size (number of representative fingerprints).
	K int
	// UseSummaries routes through the view's bid summaries (when it
	// implements SummaryView): every live node's compact summary is
	// probed locally — summaries are tiny and replicated to the router,
	// so probes cost RAM lookups, not messages — and only
	// summary-positive nodes are sent a bid. Because summaries have no
	// false negatives this finds every node that could bid positive,
	// even ones outside the rendezvous candidate set (whose membership
	// churns when a handprint fingerprint churns), so the decision
	// equals full 1-to-all stateful bidding at O(1) expected messages
	// instead of O(N): summary-filtered global discovery is what makes
	// similarity routing hold its dedup ratio at 64–128 nodes.
	// Zero-resemblance placement still falls back to the least-loaded
	// rendezvous candidate, preserving Theorem 2 balance.
	UseSummaries bool
}

// maxSummaryBids caps the per-super-chunk bid fan-out of the
// summary-filtered path. A globally popular fingerprint (shared
// boilerplate) can make most summaries light up; past this many positive
// probes the rest are treated as unqueried zero bids — the weak-bid
// override in core.SelectTarget would discard those popular-block bids
// anyway. The cap matches the classic candidate budget 2k+1.
const maxSummaryBids = 2*core.DefaultHandprintSize + 1

var _ Router = (*SigmaRouter)(nil)

// Name implements Router.
func (r *SigmaRouter) Name() string { return Sigma.String() }

// Route implements Router. Candidates are the rendezvous owners of the
// handprint's representative fingerprints within the view's pinned
// membership epoch, so bids only ever reach nodes live in that epoch —
// and placement stays stable across membership changes (growing N→N+1
// re-owns each fingerprint with probability 1/(N+1)).
func (r *SigmaRouter) Route(sc *core.SuperChunk, v View) Decision {
	hp := sc.Handprint(r.K)
	m := v.Membership()
	if len(hp) == 0 {
		// Degenerate super-chunk: no handprint to bid with. Route by the
		// stable per-super-chunk seed so these spread across the
		// membership instead of all piling onto one node.
		node := m.SeedOwner(sc.Seed())
		if node < 0 {
			node = 0
		}
		return all(node)
	}
	// Candidate selection reuses a stack buffer: at most 2k+1 entries,
	// so a K ≤ 8 route ranks 128 nodes without a single allocation.
	var cbuf [17]int
	cands := m.AppendCandidates(cbuf[:0], hp, sc.Seed())
	var sv SummaryView
	if r.UseSummaries {
		sv, _ = v.(SummaryView)
	}
	if sv == nil {
		// Classic Algorithm 1: bid at every rendezvous candidate.
		counts := make([]int, len(cands))
		usage := make([]int64, len(cands))
		for i, c := range cands {
			counts[i] = v.BidHandprint(c, hp)
			usage[i] = v.Usage(c)
		}
		sel := core.SelectTarget(cands, counts, usage)
		d := all(sel.Node)
		d.Resemblance, d.Second = sel.Resemblance, sel.Second
		d.BidsSent = int64(len(cands))
		// The handprint is sent to each queried candidate.
		d.PreRoutingMsgs = int64(len(cands) * len(hp))
		return d
	}
	// Summary-filtered global discovery: probe every live node's local
	// summary copy, bid only where it answers "may contain". The
	// selection set is those positives (exact counts from their bids)
	// plus the zero-bid rendezvous candidates: a summary-negative node
	// is guaranteed to bid zero (no false negatives), so scoring the
	// candidates zero without a message loses nothing, and they keep
	// the least-loaded fallback anchored to the hash-uniform candidate
	// set (Theorem 2) rather than to false-positive noise.
	var nbuf [maxSummaryBids + 17]int
	var cntbuf [maxSummaryBids + 17]int
	var usebuf [maxSummaryBids + 17]int64
	nodes := nbuf[:0]
	hits := 0
	for _, id := range m.Nodes {
		if sv.SummaryMayContain(id, hp) {
			hits++
			if len(nodes) < maxSummaryBids {
				nodes = append(nodes, id)
			}
		}
	}
	bidTo := len(nodes)
	for _, c := range cands {
		seen := false
		for _, id := range nodes[:bidTo] {
			if id == c {
				seen = true
				break
			}
		}
		if !seen {
			nodes = append(nodes, c)
		}
	}
	counts := cntbuf[:len(nodes)]
	usage := usebuf[:len(nodes)]
	for i := 0; i < bidTo; i++ {
		counts[i] = v.BidHandprint(nodes[i], hp)
	}
	for i := range nodes {
		usage[i] = v.Usage(nodes[i])
	}
	sel := core.SelectTarget(nodes, counts, usage)
	d := all(sel.Node)
	d.Resemblance, d.Second = sel.Resemblance, sel.Second
	d.BidsSent = int64(bidTo)
	d.PreRoutingMsgs = int64(bidTo * len(hp))
	d.SummaryChecks = int64(m.Len())
	d.SummaryHits = int64(hits)
	for i := 0; i < bidTo; i++ {
		if counts[i] == 0 {
			d.SummaryFalsePos++
		}
	}
	return d
}

// statelessRouter is EMC's super-chunk stateless routing: a pure DHT
// placement of the whole super-chunk by its representative (minimum)
// fingerprint. No pre-routing communication. Like the EB and ChunkDHT
// baselines it is a fixed-cluster scheme (mod-N placement over a dense
// 0..N-1 node set); only the Sigma scheme supports elastic membership.
type statelessRouter struct{}

var _ Router = (*statelessRouter)(nil)

// Name implements Router.
func (r *statelessRouter) Name() string { return Stateless.String() }

// Route implements Router.
func (r *statelessRouter) Route(sc *core.SuperChunk, v View) Decision {
	return all(sc.MinFingerprint().Mod(v.N()))
}

// StatefulRouter is EMC's super-chunk stateful routing: every node is
// asked how many of the super-chunk's (sampled) chunk fingerprints it
// already stores, and the best match wins, with a relative-usage discount
// for load balance. Its pre-routing message count grows linearly with the
// cluster size — the scalability weakness Fig. 7 exposes.
type StatefulRouter struct {
	// SampleRate subsamples chunk fingerprints 1/SampleRate for the bid.
	SampleRate int
	// UseSummaries pre-filters the 1-to-all fan-out through the view's
	// bid summaries, probing each node with the super-chunk's handprint
	// before paying the chunk-sample bid. Unlike Sigma's filtering this
	// is an approximation: the summaries sketch similarity-index RFPs
	// while the bid counts raw sampled chunks, so a handprint-negative
	// node could still hold sampled chunks. It trades a (rare) missed
	// bid for collapsing the O(N) fan-out — the scale-out remedy for
	// the scheme's Fig. 7 weakness.
	UseSummaries bool
}

var _ Router = (*StatefulRouter)(nil)

// Name implements Router.
func (r *StatefulRouter) Name() string { return Stateful.String() }

// Route implements Router.
func (r *StatefulRouter) Route(sc *core.SuperChunk, v View) Decision {
	rate := r.SampleRate
	if rate <= 0 {
		rate = 32
	}
	fps := sc.Fingerprints()
	sample := make([]fingerprint.Fingerprint, 0, len(fps)/rate+1)
	for _, fp := range fps {
		if fp.Uint64()%uint64(rate) == 0 {
			sample = append(sample, fp)
		}
	}
	if len(sample) == 0 && len(fps) > 0 {
		sample = append(sample, sc.MinFingerprint())
	}
	// 1-to-all communication: every live node of the epoch receives the
	// sample — unless summaries are on, in which case handprint-negative
	// nodes are skipped before the sample is sent.
	members := v.Membership().Nodes
	n := len(members)
	cands := make([]int, n)
	counts := make([]int, n)
	usage := make([]int64, n)
	var sv SummaryView
	if r.UseSummaries {
		sv, _ = v.(SummaryView)
	}
	var hp core.Handprint
	if sv != nil {
		hp = sc.Handprint(core.DefaultHandprintSize)
		if len(hp) == 0 {
			sv = nil // degenerate super-chunk: nothing to probe with
		}
	}
	sent := make([]bool, n)
	for i, id := range members {
		cands[i] = id
		if sv == nil || sv.SummaryMayContain(id, hp) {
			sent[i] = true
			counts[i] = v.BidChunks(id, sample)
		}
		usage[i] = v.Usage(id)
	}
	sel := core.SelectTarget(cands, counts, usage)
	d := all(sel.Node)
	d.Resemblance, d.Second = sel.Resemblance, sel.Second
	for i := range sent {
		if sent[i] {
			d.BidsSent++
			d.PreRoutingMsgs += int64(len(sample))
		}
	}
	if sv != nil {
		d.SummaryChecks = int64(n)
		d.SummaryHits = d.BidsSent
		for i := range sent {
			if sent[i] && counts[i] == 0 {
				d.SummaryFalsePos++
			}
		}
	}
	return d
}

// ebRouter is Extreme Binning's file-level similarity routing: all chunks
// of a file follow the file's minimum chunk fingerprint (its
// representative) to one node. The cluster driver guarantees super-chunks
// never span files when this router is active, and routes every
// super-chunk of a file by the file-wide representative carried on the
// super-chunk. Stateless: no pre-routing messages.
type ebRouter struct{}

var _ Router = (*ebRouter)(nil)

// Name implements Router.
func (r *ebRouter) Name() string { return ExtremeBinning.String() }

// Route implements Router.
func (r *ebRouter) Route(sc *core.SuperChunk, v View) Decision {
	rep := sc.FileMinFP
	if rep.IsZero() {
		rep = sc.MinFingerprint()
	}
	return all(rep.Mod(v.N()))
}

// dhtRouter is HYDRAstor-style chunk-level placement: each chunk goes to
// the node its own fingerprint hashes to. Locality is destroyed but no
// state is consulted.
type dhtRouter struct{}

var _ Router = (*dhtRouter)(nil)

// Name implements Router.
func (r *dhtRouter) Name() string { return ChunkDHT.String() }

// Route implements Router.
func (r *dhtRouter) Route(sc *core.SuperChunk, v View) Decision {
	n := v.N()
	groups := make(map[int][]int)
	for i, ch := range sc.Chunks {
		node := ch.FP.Mod(n)
		groups[node] = append(groups[node], i)
	}
	d := Decision{Assignments: make([]assignment, 0, len(groups)), Second: -1}
	for node := 0; node < n; node++ {
		if idxs, ok := groups[node]; ok {
			d.Assignments = append(d.Assignments, assignment{Node: node, Chunks: idxs})
		}
	}
	return d
}
