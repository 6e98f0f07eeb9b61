package core

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"sigmadedupe/internal/chunker"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/metrics"
)

func fps(n int, seed int64) []fingerprint.Fingerprint {
	rng := rand.New(rand.NewSource(seed))
	out := make([]fingerprint.Fingerprint, n)
	buf := make([]byte, 16)
	for i := range out {
		rng.Read(buf)
		out[i] = fingerprint.Sum(buf)
	}
	return out
}

func TestNewHandprintSelectsSmallest(t *testing.T) {
	all := fps(100, 1)
	hp := NewHandprint(all, 8)
	if len(hp) != 8 {
		t.Fatalf("handprint size = %d, want 8", len(hp))
	}
	sorted := make([]fingerprint.Fingerprint, len(all))
	copy(sorted, all)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	for i := 0; i < 8; i++ {
		if hp[i] != sorted[i] {
			t.Fatalf("handprint[%d] = %s, want %s", i, hp[i], sorted[i])
		}
	}
}

// TestHandprintMatchesSortedReference: the bounded window — its prefix
// rejection included — selects what sorting the distinct fingerprints
// does, for NewHandprint and for a super-chunk's cached handprint alike,
// even when many fingerprints share their 8-byte prefix.
func TestHandprintMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		in := fps(1+rng.Intn(300), int64(trial))
		for i := range in {
			switch rng.Intn(4) {
			case 0:
				copy(in[i][:8], in[rng.Intn(len(in))][:8]) // a shared prefix
			case 1:
				in[i] = in[rng.Intn(len(in))] // a duplicate
			}
		}
		k := 1 + rng.Intn(12)
		seen := make(map[fingerprint.Fingerprint]bool)
		var want Handprint
		for _, fp := range in {
			if !seen[fp] {
				seen[fp] = true
				want = append(want, fp)
			}
		}
		sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i][:], want[j][:]) < 0 })
		want = want[:min(k, len(want))]
		sc := &SuperChunk{}
		for _, fp := range in {
			sc.Chunks = append(sc.Chunks, ChunkRef{FP: fp})
		}
		for name, got := range map[string]Handprint{"NewHandprint": NewHandprint(in, k), "SuperChunk.Handprint": sc.Handprint(k)} {
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: %d entries, want %d", trial, name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d %s: entry %d differs from the sorted reference", trial, name, i)
				}
			}
		}
	}
}

func TestNewHandprintDeduplicates(t *testing.T) {
	fp := fingerprint.Sum([]byte("dup"))
	in := []fingerprint.Fingerprint{fp, fp, fp}
	hp := NewHandprint(in, 8)
	if len(hp) != 1 {
		t.Fatalf("handprint of 3 identical fps has size %d, want 1", len(hp))
	}
}

func TestNewHandprintEdgeCases(t *testing.T) {
	if got := NewHandprint(nil, 8); len(got) != 0 {
		t.Error("handprint of nil input should be empty")
	}
	if got := NewHandprint(fps(4, 2), 0); len(got) != 0 {
		t.Error("k=0 handprint should be empty")
	}
	if got := NewHandprint(fps(4, 3), 100); len(got) != 4 {
		t.Errorf("k beyond input size should return all: got %d, want 4", len(got))
	}
}

func TestResemblanceIdentical(t *testing.T) {
	a := fps(128, 6)
	if r := Resemblance(a, a); r != 1 {
		t.Fatalf("Resemblance(a,a) = %v, want 1", r)
	}
}

func TestResemblanceDisjoint(t *testing.T) {
	a, b := fps(64, 7), fps(64, 8)
	if r := Resemblance(a, b); r != 0 {
		t.Fatalf("Resemblance of disjoint sets = %v, want 0", r)
	}
}

func TestResemblanceHalf(t *testing.T) {
	shared := fps(50, 9)
	a := append(append([]fingerprint.Fingerprint{}, shared...), fps(50, 10)...)
	b := append(append([]fingerprint.Fingerprint{}, shared...), fps(50, 11)...)
	r := Resemblance(a, b)
	want := 50.0 / 150.0
	if math.Abs(r-want) > 1e-9 {
		t.Fatalf("Resemblance = %v, want %v", r, want)
	}
}

func TestResemblanceEmpty(t *testing.T) {
	if r := Resemblance(nil, nil); r != 1 {
		t.Fatalf("Resemblance(nil,nil) = %v, want 1", r)
	}
	if r := Resemblance(fps(4, 12), nil); r != 0 {
		t.Fatalf("Resemblance(a,nil) = %v, want 0", r)
	}
}

// TestEstimateConvergesToTrueResemblance reproduces the qualitative claim
// of Fig. 1: the k-min sketch estimate approaches the true Jaccard
// resemblance as the handprint size grows.
func TestEstimateConvergesToTrueResemblance(t *testing.T) {
	shared := fps(600, 13)
	a := append(append([]fingerprint.Fingerprint{}, shared...), fps(400, 14)...)
	b := append(append([]fingerprint.Fingerprint{}, shared...), fps(400, 15)...)
	real := Resemblance(a, b) // 600/1400 ≈ 0.43

	errAt := func(k int) float64 {
		return math.Abs(EstimateResemblance(a, b, k) - real)
	}
	if errAt(256) > 0.1 {
		t.Fatalf("estimate at k=256 off by %v (> 0.1) from real %v", errAt(256), real)
	}
	// Large k must not be wildly worse than tiny k on average; check the
	// estimate is within [0,1] for all k.
	for _, k := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		e := EstimateResemblance(a, b, k)
		if e < 0 || e > 1 {
			t.Fatalf("estimate at k=%d out of range: %v", k, e)
		}
	}
}

func TestEstimateEdgeCases(t *testing.T) {
	var empty Handprint
	if got := empty.Estimate(empty); got != 1 {
		t.Fatalf("empty/empty estimate = %v, want 1", got)
	}
	hp := NewHandprint(fps(8, 16), 4)
	if got := hp.Estimate(empty); got != 0 {
		t.Fatalf("nonempty/empty estimate = %v, want 0", got)
	}
	if got := hp.Estimate(hp); got != 1 {
		t.Fatalf("self estimate = %v, want 1", got)
	}
}

// TestCandidateNodesRangeAndDedup: Algorithm 1 step 1 maps each
// representative fingerprint to a node; the candidate set names only
// members, each once, and at epoch 1 at most one per fingerprint.
func TestCandidateNodesRangeAndDedup(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		hp := NewHandprint(fps(32, seed), 8)
		cands := DenseMembership(n).Candidates(hp, uint64(seed))
		if len(cands) == 0 || len(cands) > len(hp) || len(cands) > n {
			return false
		}
		seen := map[int]bool{}
		for _, c := range cands {
			if c < 0 || c >= n || seen[c] {
				return false
			}
			seen[c] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	if got := DenseMembership(0).Candidates(NewHandprint(fps(8, 1), 4), 0); got != nil {
		t.Error("an empty membership should have no candidates")
	}
}

// TestPartitionerGroupsBySize feeds whole chunks through Add: every
// non-final super-chunk stays within the 2× target cap, and the
// super-chunks partition the input exactly.
func TestPartitionerGroupsBySize(t *testing.T) {
	const target, n = 16 << 10, 400
	p, err := NewPartitioner(target, fingerprint.SHA1, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20))
	var scs []*SuperChunk
	for i := 0; i < n; i++ {
		data := make([]byte, 4096)
		rng.Read(data)
		if sc := p.Add(chunker.Chunk{Data: data}); sc != nil {
			scs = append(scs, sc)
		}
	}
	if sc := p.Flush(); sc != nil {
		scs = append(scs, sc)
	}
	if len(scs) < 2 {
		t.Fatalf("got %d super-chunks from %d chunks at a %d-byte target", len(scs), n, target)
	}
	var total int64
	chunks := 0
	for i, sc := range scs {
		if i < len(scs)-1 && sc.Size() > 2*target {
			t.Errorf("super-chunk %d is %d bytes, over the 2x target cap", i, sc.Size())
		}
		total += sc.Size()
		chunks += len(sc.Chunks)
	}
	if total != n*4096 || chunks != n {
		t.Fatalf("super-chunks hold %d bytes in %d chunks, want %d in %d", total, chunks, n*4096, n)
	}
}

func TestPartitionerFlushPartial(t *testing.T) {
	p, _ := NewPartitioner(1<<20, fingerprint.SHA1, false)
	if sc := p.Add(chunker.Chunk{Data: []byte("tiny")}); sc != nil {
		t.Fatal("premature super-chunk emission")
	}
	sc := p.Flush()
	if sc == nil || len(sc.Chunks) != 1 {
		t.Fatal("Flush should return the partial super-chunk")
	}
	if p.Flush() != nil {
		t.Fatal("second Flush should return nil")
	}
}

func TestPartitionerKeepData(t *testing.T) {
	add := func(keep bool, data string) *SuperChunk {
		p, _ := NewPartitioner(1<<20, fingerprint.SHA1, keep)
		if sc := p.Add(chunker.Chunk{Data: []byte(data)}); sc != nil {
			return sc
		}
		return p.Flush()
	}
	if sc := add(true, "keepme"); !bytes.Equal(sc.Chunks[0].Data, []byte("keepme")) {
		t.Fatal("payload not retained with keepData=true")
	}
	if sc := add(false, "dropme"); sc.Chunks[0].Data != nil {
		t.Fatal("payload retained with keepData=false")
	}
}

// TestPartitionerContentDefinedBoundaryStability is the property the
// content-defined super-chunk grid exists for: inserting chunks upstream
// must not move the downstream boundaries (they realign immediately).
func TestPartitionerContentDefinedBoundaryStability(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	refs := make([]ChunkRef, 2000)
	for i := range refs {
		var b [16]byte
		rng.Read(b[:])
		refs[i] = ChunkRef{FP: fingerprint.Sum(b[:]), Size: 4096}
	}
	cut := func(in []ChunkRef) []fingerprint.Fingerprint {
		p, _ := NewPartitioner(64<<10, fingerprint.SHA1, false)
		var lasts []fingerprint.Fingerprint
		for _, r := range in {
			if sc := p.AddRef(r); sc != nil {
				lasts = append(lasts, sc.Chunks[len(sc.Chunks)-1].FP)
			}
		}
		return lasts
	}
	base := cut(refs)
	// Insert 5 foreign chunks near the front.
	var inserted []ChunkRef
	for i := 0; i < 5; i++ {
		var b [16]byte
		rng.Read(b[:])
		inserted = append(inserted, ChunkRef{FP: fingerprint.Sum(b[:]), Size: 4096})
	}
	shifted := cut(append(append(append([]ChunkRef{}, refs[:3]...), inserted...), refs[3:]...))

	baseSet := make(map[fingerprint.Fingerprint]bool, len(base))
	for _, fp := range base {
		baseSet[fp] = true
	}
	shared := 0
	for _, fp := range shifted {
		if baseSet[fp] {
			shared++
		}
	}
	if frac := float64(shared) / float64(len(base)); frac < 0.9 {
		t.Fatalf("only %.0f%%%% of super-chunk boundaries survived an upstream insertion", frac*100)
	}
}

func TestPartitionerContentDefinedSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	p, _ := NewPartitioner(64<<10, fingerprint.SHA1, false)
	var sizes []int64
	for i := 0; i < 4000; i++ {
		var b [16]byte
		rng.Read(b[:])
		if sc := p.AddRef(ChunkRef{FP: fingerprint.Sum(b[:]), Size: 4096}); sc != nil {
			sizes = append(sizes, sc.Size())
		}
	}
	var total int64
	for _, s := range sizes {
		if s > 2*64<<10+4096 {
			t.Fatalf("super-chunk size %d exceeds 2x target cap", s)
		}
		total += s
	}
	mean := total / int64(len(sizes))
	if mean < 32<<10 || mean > 128<<10 {
		t.Fatalf("mean super-chunk size %d not near 64KB target", mean)
	}
}

func TestPartitionerInvalid(t *testing.T) {
	if _, err := NewPartitioner(0, fingerprint.SHA1, false); err == nil {
		t.Fatal("target 0 should error")
	}
}

func TestPartitionerFileID(t *testing.T) {
	p, _ := NewPartitioner(1<<20, fingerprint.SHA1, false)
	p.SetFileID(42)
	p.Add(chunker.Chunk{Data: []byte("abcd")})
	if sc := p.Flush(); sc == nil || sc.FileID != 42 {
		t.Fatalf("FileID not propagated: %+v", sc)
	}
	// FileID persists across emissions until changed.
	p.Add(chunker.Chunk{Data: []byte("efgh")})
	if sc := p.Flush(); sc == nil || sc.FileID != 42 {
		t.Fatal("FileID should persist")
	}
}

func TestSuperChunkHandprintCache(t *testing.T) {
	sc := &SuperChunk{}
	for _, fp := range fps(32, 21) {
		sc.Chunks = append(sc.Chunks, ChunkRef{FP: fp, Size: 4096})
	}
	h1 := sc.Handprint(8)
	h2 := sc.Handprint(8)
	if &h1[0] != &h2[0] {
		t.Fatal("handprint should be cached for same k")
	}
	h3 := sc.Handprint(4)
	if len(h3) != 4 {
		t.Fatalf("recomputed handprint size = %d, want 4", len(h3))
	}
}

func TestMinFingerprint(t *testing.T) {
	sc := &SuperChunk{}
	if !sc.MinFingerprint().IsZero() {
		t.Fatal("empty super-chunk min should be zero")
	}
	all := fps(16, 22)
	for _, fp := range all {
		sc.Chunks = append(sc.Chunks, ChunkRef{FP: fp, Size: 1})
	}
	min := sc.MinFingerprint()
	for _, fp := range all {
		if fp.Less(min) {
			t.Fatal("MinFingerprint not minimal")
		}
	}
	if min != sc.Handprint(1)[0] {
		t.Fatal("MinFingerprint disagrees with k=1 handprint")
	}
}

func TestSelectTargetPrefersResemblance(t *testing.T) {
	// Equal usage: highest match count wins.
	d := SelectTarget([]int{3, 7, 9}, []int{1, 5, 2}, []int64{100, 100, 100})
	if d.Node != 7 || d.Resemblance != 5 {
		t.Fatalf("got node %d (r=%d), want 7 (r=5)", d.Node, d.Resemblance)
	}
}

func TestSelectTargetDiscountsByUsage(t *testing.T) {
	// Node 7 has slightly more matches but is massively overloaded;
	// discounting should send the super-chunk to node 3.
	d := SelectTarget([]int{3, 7}, []int{4, 5}, []int64{1000, 1000000})
	if d.Node != 3 {
		t.Fatalf("got node %d, want 3 (usage-discounted)", d.Node)
	}
}

func TestSelectTargetZeroResemblanceBalances(t *testing.T) {
	// No matches anywhere: pick the least-loaded candidate.
	d := SelectTarget([]int{1, 2, 3}, []int{0, 0, 0}, []int64{500, 100, 900})
	if d.Node != 2 {
		t.Fatalf("got node %d, want least-loaded node 2", d.Node)
	}
}

func TestSelectTargetEmpty(t *testing.T) {
	if d := SelectTarget(nil, nil, nil); d.Node != -1 {
		t.Fatalf("empty candidates should return -1, got %d", d.Node)
	}
}

func TestSelectTargetDeterministicTieBreak(t *testing.T) {
	d1 := SelectTarget([]int{5, 2}, []int{3, 3}, []int64{100, 100})
	d2 := SelectTarget([]int{5, 2}, []int{3, 3}, []int64{100, 100})
	if d1.Node != d2.Node {
		t.Fatal("tie-break must be deterministic")
	}
	if d1.Node != 2 {
		t.Fatalf("tie should go to lower node ID, got %d", d1.Node)
	}
}

// TestSelectTargetSecond: the runner-up is what the same rule picks with
// the winner taken out, among positive bids only — including the tie an
// unchanged re-backup bids between the nodes holding primary and replica.
func TestSelectTargetSecond(t *testing.T) {
	for _, tc := range []struct {
		name         string
		counts       []int
		usage        []int64
		node, second int
	}{
		{"by score", []int{1, 5, 2}, []int64{100, 100, 100}, 7, 9},
		{"tie goes to lower usage, then lower ID", []int{8, 8, 8}, []int64{300, 200, 200}, 7, 9},
		{"one positive bid", []int{0, 4, 0}, []int64{100, 100, 100}, 7, -1},
		{"no positive bid", []int{0, 0, 0}, []int64{500, 100, 900}, 7, -1},
		{"weak runner-up on an overloaded node", []int{8, 0, 1}, []int64{100, 100, 1000}, 3, -1},
		{"weak winner overridden, no other bid", []int{0, 0, 1}, []int64{100, 100, 1000}, 3, -1},
	} {
		d := SelectTarget([]int{3, 7, 9}, tc.counts, tc.usage)
		if d.Node != tc.node || d.Second != tc.second {
			t.Errorf("%s: node %d, second %d; want %d, %d", tc.name, d.Node, d.Second, tc.node, tc.second)
		}
	}
	if d := SelectTarget(nil, nil, nil); d.Second != -1 {
		t.Fatalf("empty candidates: second %d, want -1", d.Second)
	}
}

// TestTheorem2GlobalBalance: routing many random super-chunks with
// Algorithm 1 (zero prior resemblance) should approach uniform storage.
func TestTheorem2GlobalBalance(t *testing.T) {
	const n = 16
	usage := make([]int64, n)
	members := DenseMembership(n)
	rng := rand.New(rand.NewSource(23))
	buf := make([]byte, 16)
	for i := 0; i < 4000; i++ {
		raw := make([]fingerprint.Fingerprint, 16)
		for j := range raw {
			rng.Read(buf)
			raw[j] = fingerprint.Sum(buf)
		}
		hp := NewHandprint(raw, 8)
		cands := members.Candidates(hp, uint64(i))
		counts := make([]int, len(cands))
		candUsage := make([]int64, len(cands))
		for j, c := range cands {
			candUsage[j] = usage[c]
		}
		d := SelectTarget(cands, counts, candUsage)
		usage[d.Node] += 1 << 20
	}
	if s := metrics.Skew(usage); s > 0.05 {
		t.Fatalf("storage skew %v > 0.05; Theorem 2 balance violated", s)
	}
}
