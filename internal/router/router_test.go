package router

import (
	"math/rand"
	"testing"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
)

// fakeView is a scripted cluster view for router unit tests.
type fakeView struct {
	n      int
	hpBids map[int]int
	chBids map[int]int
	usage  map[int]int64

	hpCalls []int
	chCalls []int
}

func (v *fakeView) N() int { return v.n }

func (v *fakeView) Membership() core.Membership { return core.DenseMembership(v.n) }

func (v *fakeView) BidHandprint(nodeID int, hp core.Handprint) int {
	v.hpCalls = append(v.hpCalls, nodeID)
	return v.hpBids[nodeID]
}

func (v *fakeView) BidChunks(nodeID int, fps []fingerprint.Fingerprint) int {
	v.chCalls = append(v.chCalls, nodeID)
	return v.chBids[nodeID]
}

func (v *fakeView) Usage(nodeID int) int64 { return v.usage[nodeID] }

func makeSC(seed int64, n int) *core.SuperChunk {
	rng := rand.New(rand.NewSource(seed))
	sc := &core.SuperChunk{}
	var b [16]byte
	for i := 0; i < n; i++ {
		rng.Read(b[:])
		sc.Chunks = append(sc.Chunks, core.ChunkRef{FP: fingerprint.Sum(b[:]), Size: 4096})
	}
	return sc
}

func TestSchemeStringAndParse(t *testing.T) {
	for _, s := range []Scheme{Sigma, Stateless, Stateful, ExtremeBinning, ChunkDHT} {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScheme(%q) = (%v,%v)", s.String(), got, err)
		}
	}
	for alias, want := range map[string]Scheme{
		"sigma": Sigma, "stateless": Stateless, "stateful": Stateful,
		"eb": ExtremeBinning, "dht": ChunkDHT,
	} {
		got, err := ParseScheme(alias)
		if err != nil || got != want {
			t.Errorf("ParseScheme(%q) = (%v,%v), want %v", alias, got, err, want)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Fatal("unknown scheme should error")
	}
}

func TestNewAllSchemes(t *testing.T) {
	for _, s := range []Scheme{Sigma, Stateless, Stateful, ExtremeBinning, ChunkDHT} {
		r, err := New(s, 0, 0)
		if err != nil {
			t.Fatalf("New(%v): %v", s, err)
		}
		if r.Name() != s.String() {
			t.Errorf("router name %q != scheme %q", r.Name(), s.String())
		}
	}
	if _, err := New(Scheme(99), 8, 32); err == nil {
		t.Fatal("unknown scheme should error")
	}
}

func TestSigmaRouteQueriesOnlyCandidates(t *testing.T) {
	sc := makeSC(1, 64)
	hp := sc.Handprint(8)
	v := &fakeView{n: 32, hpBids: map[int]int{}, usage: map[int]int64{}}
	r := &SigmaRouter{K: 8}
	d := r.Route(sc, v)

	cands := core.DenseMembership(32).Candidates(hp, sc.Seed())
	if len(v.hpCalls) != len(cands) {
		t.Fatalf("queried %d nodes, want %d candidates (not all 32)", len(v.hpCalls), len(cands))
	}
	if len(d.Assignments) != 1 {
		t.Fatalf("assignments = %d, want 1", len(d.Assignments))
	}
	found := false
	for _, c := range cands {
		if d.Assignments[0].Node == c {
			found = true
		}
	}
	if !found {
		t.Fatal("selected node is not a candidate")
	}
	// Pre-routing message cost = |handprint| per candidate contacted.
	if d.PreRoutingMsgs != int64(len(hp)*len(cands)) {
		t.Fatalf("PreRoutingMsgs = %d, want %d", d.PreRoutingMsgs, len(hp)*len(cands))
	}
}

func TestSigmaPrefersHighBid(t *testing.T) {
	sc := makeSC(2, 64)
	cands := core.DenseMembership(16).Candidates(sc.Handprint(8), sc.Seed())
	if len(cands) < 2 {
		t.Skip("degenerate candidate set")
	}
	v := &fakeView{n: 16, hpBids: map[int]int{cands[1]: 7}, usage: map[int]int64{}}
	r := &SigmaRouter{K: 8}
	d := r.Route(sc, v)
	if d.Assignments[0].Node != cands[1] {
		t.Fatalf("routed to %d, want high-bid candidate %d", d.Assignments[0].Node, cands[1])
	}
}

func TestSigmaEmptySuperChunk(t *testing.T) {
	v := &fakeView{n: 4, hpBids: map[int]int{}, usage: map[int]int64{}}
	r := &SigmaRouter{K: 8}
	sc := &core.SuperChunk{FileID: 42}
	d := r.Route(sc, v)
	if d.PreRoutingMsgs != 0 {
		t.Fatalf("empty super-chunk must route for free, got %+v", d)
	}
	node := d.Assignments[0].Node
	if node < 0 || node >= 4 {
		t.Fatalf("empty super-chunk routed outside the membership: %d", node)
	}
	if want := core.DenseMembership(4).SeedOwner(sc.Seed()); node != want {
		t.Fatalf("empty super-chunk routed to %d, want seed owner %d", node, want)
	}
	if again := r.Route(&core.SuperChunk{FileID: 42}, v); again.Assignments[0].Node != node {
		t.Fatal("empty super-chunk placement must be deterministic")
	}
}

func TestStatelessDeterministicPlacement(t *testing.T) {
	sc := makeSC(3, 32)
	v := &fakeView{n: 8}
	r := &statelessRouter{}
	d1 := r.Route(sc, v)
	d2 := r.Route(sc, v)
	if d1.Assignments[0].Node != d2.Assignments[0].Node {
		t.Fatal("stateless placement must be deterministic")
	}
	if d1.PreRoutingMsgs != 0 {
		t.Fatal("stateless routing must not send pre-routing messages")
	}
	want := sc.MinFingerprint().Mod(8)
	if d1.Assignments[0].Node != want {
		t.Fatalf("routed to %d, want min-fp placement %d", d1.Assignments[0].Node, want)
	}
}

func TestStatefulQueriesAllNodes(t *testing.T) {
	sc := makeSC(4, 256)
	v := &fakeView{n: 16, chBids: map[int]int{5: 3}, usage: map[int]int64{}}
	r := &StatefulRouter{SampleRate: 32}
	d := r.Route(sc, v)
	if len(v.chCalls) != 16 {
		t.Fatalf("stateful queried %d nodes, want all 16 (1-to-all)", len(v.chCalls))
	}
	if d.Assignments[0].Node != 5 {
		t.Fatalf("routed to %d, want best-match node 5", d.Assignments[0].Node)
	}
	if d.PreRoutingMsgs == 0 {
		t.Fatal("stateful routing must charge pre-routing messages")
	}
}

// TestStatefulMessageGrowth is Fig. 7's core claim at router granularity:
// stateful pre-routing cost grows linearly with N, sigma's does not.
func TestStatefulMessageGrowth(t *testing.T) {
	sc := makeSC(5, 256)
	cost := func(r Router, n int) int64 {
		v := &fakeView{n: n, hpBids: map[int]int{}, chBids: map[int]int{}, usage: map[int]int64{}}
		sc2 := makeSC(5, 256) // fresh handprint cache
		return r.Route(sc2, v).PreRoutingMsgs
	}
	st8 := cost(&StatefulRouter{SampleRate: 32}, 8)
	st64 := cost(&StatefulRouter{SampleRate: 32}, 64)
	if st64 != 8*st8 {
		t.Fatalf("stateful msgs: N=8→%d, N=64→%d, want exactly 8x growth", st8, st64)
	}
	sg8 := cost(&SigmaRouter{K: 8}, 8)
	sg64 := cost(&SigmaRouter{K: 8}, 64)
	if sg64 > 2*sg8+64 { // bounded by k*k regardless of N
		t.Fatalf("sigma msgs grew with cluster size: N=8→%d, N=64→%d", sg8, sg64)
	}
	_ = sc
}

func TestStatefulTinySampleFallsBackToMinFP(t *testing.T) {
	sc := makeSC(6, 2) // tiny super-chunk: sampling may select nothing
	v := &fakeView{n: 4, chBids: map[int]int{}, usage: map[int]int64{}}
	r := &StatefulRouter{SampleRate: 1 << 16}
	d := r.Route(sc, v)
	if len(d.Assignments) != 1 {
		t.Fatal("stateful must still place the super-chunk")
	}
	if d.PreRoutingMsgs != 4 { // 1 fallback fp x 4 nodes
		t.Fatalf("PreRoutingMsgs = %d, want 4", d.PreRoutingMsgs)
	}
}

func TestEBRoutesByFileRepresentative(t *testing.T) {
	a := makeSC(7, 16)
	b := makeSC(8, 16)
	rep := fingerprint.Sum([]byte("file-representative"))
	a.FileMinFP = rep
	b.FileMinFP = rep
	v := &fakeView{n: 64}
	r := &ebRouter{}
	da := r.Route(a, v)
	db := r.Route(b, v)
	if da.Assignments[0].Node != db.Assignments[0].Node {
		t.Fatal("super-chunks of one file must land on the same node")
	}
	if da.PreRoutingMsgs != 0 {
		t.Fatal("EB is stateless: no pre-routing messages")
	}
}

func TestEBFallsBackWithoutFileInfo(t *testing.T) {
	sc := makeSC(9, 16)
	v := &fakeView{n: 8}
	r := &ebRouter{}
	d := r.Route(sc, v)
	want := sc.MinFingerprint().Mod(8)
	if d.Assignments[0].Node != want {
		t.Fatalf("fallback placement %d, want %d", d.Assignments[0].Node, want)
	}
}

func TestDHTSplitsAcrossNodes(t *testing.T) {
	sc := makeSC(10, 256)
	v := &fakeView{n: 8}
	r := &dhtRouter{}
	d := r.Route(sc, v)
	if len(d.Assignments) < 2 {
		t.Fatalf("DHT should scatter a 256-chunk super-chunk across nodes, got %d assignments", len(d.Assignments))
	}
	covered := 0
	for _, a := range d.Assignments {
		for _, i := range a.Chunks {
			want := sc.Chunks[i].FP.Mod(8)
			if a.Node != want {
				t.Fatalf("chunk %d sent to %d, want %d", i, a.Node, want)
			}
		}
		covered += len(a.Chunks)
	}
	if covered != 256 {
		t.Fatalf("DHT covered %d chunks, want 256", covered)
	}
}

// summaryView wraps fakeView with scripted bid summaries.
type summaryView struct {
	*fakeView
	mayContain map[int]bool // nodeID -> summary answer
	checks     []int
}

func (v *summaryView) SummaryMayContain(nodeID int, hp core.Handprint) bool {
	v.checks = append(v.checks, nodeID)
	return v.mayContain[nodeID]
}

// TestSigmaSummaryGlobalDiscovery: with summaries the router probes
// every live node's summary and bids only at the positives, so it must
// (a) find a strong bidder OUTSIDE the rendezvous candidate set — the
// case the classic candidate walk structurally misses when a handprint
// fingerprint churns — while (b) paying one bid, not N.
func TestSigmaSummaryGlobalDiscovery(t *testing.T) {
	sc := makeSC(100, 64)
	hp := sc.Handprint(8)
	cands := core.DenseMembership(32).Candidates(hp, sc.Seed())
	inCands := func(id int) bool {
		for _, c := range cands {
			if c == id {
				return true
			}
		}
		return false
	}
	// The sole positive bidder is a non-candidate node.
	home := -1
	for id := 0; id < 32; id++ {
		if !inCands(id) {
			home = id
			break
		}
	}
	bids := map[int]int{home: 5}
	usage := map[int]int64{}
	for id := 0; id < 32; id++ {
		usage[id] = 1 << 19 // uniform load: no weak-bid override
	}
	sv := &summaryView{
		fakeView:   &fakeView{n: 32, hpBids: bids, usage: usage},
		mayContain: map[int]bool{home: true},
	}
	d := (&SigmaRouter{K: 8, UseSummaries: true}).Route(sc, sv)
	if d.Assignments[0].Node != home {
		t.Fatalf("summary discovery routed to %d, want out-of-candidate home %d", d.Assignments[0].Node, home)
	}
	if len(sv.checks) != 32 {
		t.Fatalf("probed %d summaries, want all 32", len(sv.checks))
	}
	if len(sv.hpCalls) != 1 || d.BidsSent != 1 {
		t.Fatalf("sent %d bids (counter %d), want exactly 1", len(sv.hpCalls), d.BidsSent)
	}
	if d.SummaryChecks != 32 || d.SummaryHits != 1 || d.SummaryFalsePos != 0 {
		t.Fatalf("counters: %+v", d)
	}
	if d.PreRoutingMsgs != int64(len(hp)) {
		t.Fatalf("PreRoutingMsgs = %d, want %d (one handprint)", d.PreRoutingMsgs, len(hp))
	}

	// The classic candidate walk cannot see the out-of-set home.
	base := (&SigmaRouter{K: 8}).Route(sc, &fakeView{n: 32, hpBids: bids, usage: usage})
	if base.Assignments[0].Node == home {
		t.Fatal("classic route found the non-candidate home; test premise broken")
	}
}

// TestSigmaSummaryMatchesFullBidding: for any truthful summary (no
// false negatives) the summary-filtered decision must equal full
// 1-to-all bidding resolved by SelectTarget over the positive bidders
// plus the zero-bid rendezvous candidates — i.e. filtering only removes
// guaranteed-zero bids, never information. A scripted false positive
// costs one wasted bid but must not change the decision either.
func TestSigmaSummaryMatchesFullBidding(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		sc := makeSC(100+seed, 64)
		hp := sc.Handprint(8)
		cands := core.DenseMembership(32).Candidates(hp, sc.Seed())
		bids := map[int]int{}
		usage := map[int]int64{}
		rng := rand.New(rand.NewSource(seed))
		for id := 0; id < 32; id++ {
			if rng.Intn(8) == 0 {
				bids[id] = 2 + rng.Intn(6)
			}
			usage[id] = int64(1<<19 + rng.Intn(1<<18))
		}
		may := map[int]bool{}
		positives := []int{}
		for id := 0; id < 32; id++ {
			if bids[id] > 0 {
				may[id] = true
				positives = append(positives, id)
			}
		}
		fpNode := -1
		for id := 0; id < 32; id++ {
			if bids[id] == 0 && !inSet(cands, id) {
				may[id] = true // scripted false positive
				fpNode = id
				break
			}
		}

		// Reference: full 1-to-all bidding, selected over positives plus
		// the zero-bid candidates (the fallback pool).
		set := append([]int{}, positives...)
		if fpNode >= 0 {
			set = append(set, fpNode)
		}
		for _, c := range cands {
			if !inSet(set, c) {
				set = append(set, c)
			}
		}
		counts := make([]int, len(set))
		use := make([]int64, len(set))
		for i, id := range set {
			counts[i] = bids[id]
			use[i] = usage[id]
		}
		want := core.SelectTarget(set, counts, use).Node

		sv := &summaryView{fakeView: &fakeView{n: 32, hpBids: bids, usage: usage}, mayContain: may}
		d := (&SigmaRouter{K: 8, UseSummaries: true}).Route(sc, sv)
		if d.Assignments[0].Node != want {
			t.Fatalf("seed %d: summary decision %d != full-bidding reference %d",
				seed, d.Assignments[0].Node, want)
		}
		wantBids := int64(len(positives))
		if fpNode >= 0 {
			wantBids++
		}
		if d.BidsSent != wantBids || d.SummaryHits != wantBids || int64(len(sv.hpCalls)) != wantBids {
			t.Fatalf("seed %d: BidsSent=%d SummaryHits=%d calls=%d, want %d",
				seed, d.BidsSent, d.SummaryHits, len(sv.hpCalls), wantBids)
		}
		if d.PreRoutingMsgs != wantBids*int64(len(hp)) {
			t.Fatalf("seed %d: PreRoutingMsgs = %d, want %d", seed, d.PreRoutingMsgs, wantBids*int64(len(hp)))
		}
		if fpNode >= 0 && d.SummaryFalsePos != 1 {
			t.Fatalf("seed %d: SummaryFalsePos = %d, want 1", seed, d.SummaryFalsePos)
		}
		if d.SummaryChecks != 32 {
			t.Fatalf("seed %d: SummaryChecks = %d, want 32", seed, d.SummaryChecks)
		}
	}
}

func inSet(s []int, id int) bool {
	for _, x := range s {
		if x == id {
			return true
		}
	}
	return false
}

// TestStatefulSummaryCutsFanout: with summaries, stateful routing only
// pays the chunk-sample bid on summary-positive nodes instead of 1-to-all.
func TestStatefulSummaryCutsFanout(t *testing.T) {
	sc := makeSC(11, 256)
	may := map[int]bool{3: true, 9: true}
	sv := &summaryView{
		fakeView:   &fakeView{n: 16, chBids: map[int]int{3: 5}, usage: map[int]int64{}},
		mayContain: may,
	}
	r := &StatefulRouter{SampleRate: 32, UseSummaries: true}
	d := r.Route(sc, sv)
	if len(sv.checks) != 16 {
		t.Fatalf("summary checked %d nodes, want 16", len(sv.checks))
	}
	if len(sv.chCalls) != 2 {
		t.Fatalf("chunk bids reached %d nodes, want 2 summary-positive ones", len(sv.chCalls))
	}
	if d.Assignments[0].Node != 3 {
		t.Fatalf("routed to %d, want bidding node 3", d.Assignments[0].Node)
	}
	if d.BidsSent != 2 || d.SummaryChecks != 16 || d.SummaryHits != 2 {
		t.Fatalf("counters: %+v", d)
	}
	if d.SummaryFalsePos != 1 { // node 9: summary hit, zero chunk bid
		t.Fatalf("SummaryFalsePos = %d, want 1", d.SummaryFalsePos)
	}
	// All-negative summaries: no bids at all, least-loaded fallback still
	// places the super-chunk inside the membership.
	none := &summaryView{
		fakeView:   &fakeView{n: 16, chBids: map[int]int{}, usage: map[int]int64{7: 1}},
		mayContain: map[int]bool{},
	}
	d2 := r.Route(sc, none)
	if len(none.chCalls) != 0 || d2.PreRoutingMsgs != 0 {
		t.Fatalf("all-negative summaries still sent bids: %+v calls=%v", d2, none.chCalls)
	}
	if n := d2.Assignments[0].Node; n < 0 || n >= 16 {
		t.Fatalf("fallback placement outside membership: %d", n)
	}
}

// TestSigmaRouteZeroAlloc pins the allocation count of the sigma hot
// path at 128 nodes (stack-buffer candidates; counts/usage/sent are the
// only per-route slices).
func TestSigmaRouteZeroAlloc(t *testing.T) {
	sc := makeSC(12, 64)
	sc.Handprint(8) // prime the memoized handprint
	v := &fakeView{n: 128, hpBids: map[int]int{}, usage: map[int]int64{}}
	r := &SigmaRouter{K: 8}
	allocs := testing.AllocsPerRun(50, func() {
		v.hpCalls = v.hpCalls[:0]
		r.Route(sc, v)
	})
	// counts + usage + sent + the Decision itself + fakeView's hpCalls
	// growth; the candidate ranking must not add O(N) allocations on
	// top (a per-node alloc would put this near 128).
	if allocs > 10 {
		t.Fatalf("sigma Route does %v allocs/op at N=128, want <= 10", allocs)
	}
}
