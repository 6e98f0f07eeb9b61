package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/ingest"
	"sigmadedupe/internal/migrate"
	"sigmadedupe/internal/router"
	"sigmadedupe/internal/store"
	"sigmadedupe/internal/workload"
)

// replayOne replays tr as the single stream "client0".
func replayOne(t *testing.T, c *Cluster, tr Trace) ingest.Stats {
	t.Helper()
	st, err := c.Replay(context.Background(), map[string]Trace{"client0": tr})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// exactDedup is the tests' own reference for what exact single-node
// deduplication of a trace keeps: the logical bytes of every chunk it
// yields and the bytes of its distinct fingerprints. Not safe for
// concurrent use.
type exactDedup struct {
	seen              map[fingerprint.Fingerprint]bool
	logical, physical int64
}

func newExactDedup() *exactDedup {
	return &exactDedup{seen: make(map[fingerprint.Fingerprint]bool)}
}

func (e *exactDedup) add(refs []core.ChunkRef) {
	for _, r := range refs {
		e.logical += int64(r.Size)
		if !e.seen[r.FP] {
			e.seen[r.FP] = true
			e.physical += int64(r.Size)
		}
	}
}

// runWorkload replays a generated dataset into a fresh cluster and
// returns the cluster, the session counters and the exact-dedup reference
// of the chunks the trace yielded.
func runWorkload(t *testing.T, name string, cfg Config, scale float64) (*Cluster, ingest.Stats, *exactDedup) {
	t.Helper()
	g, err := workload.ByName(name, scale, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exact, tr := newExactDedup(), Workload(g, workload.NewCorpus(0))
	st := replayOne(t, c, func(yield func(uint64, []core.ChunkRef) error) error {
		return tr(func(fileID uint64, refs []core.ChunkRef) error {
			exact.add(refs)
			return yield(fileID, refs)
		})
	})
	return c, st, exact
}

// TestReplayGolden pins per-node usage and every message counter of one
// seeded Linux trace, per scheme at 4 and 16 nodes with bid summaries on,
// to what the simulator's own stream pipeline produced before replays ran
// on ingest.Session (testdata/replay.golden, written at that commit).
func TestReplayGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "replay.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	corpus := workload.NewCorpus(0)
	for _, s := range []router.Scheme{router.Sigma, router.Stateless, router.Stateful, router.ExtremeBinning, router.ChunkDHT} {
		for _, n := range []int{4, 16} {
			g, err := workload.ByName("linux", 0.2, 7)
			if err != nil {
				t.Fatal(err)
			}
			c, err := New(Config{N: n, Scheme: s, SuperChunkSize: 256 << 10, BidSummaries: true})
			if err != nil {
				t.Fatal(err)
			}
			st := replayOne(t, c, Workload(g, corpus))
			fmt.Fprintf(&got, "%s N=%d: logical=%d superchunks=%d pre=%d after=%d bids=%d checks=%d hits=%d falsepos=%d\n  usage=%v\n",
				s, n, st.LogicalBytes, st.SuperChunks, st.PreRoutingMsgs, st.AfterRoutingMsgs,
				st.BidsSent, st.SummaryChecks, st.SummaryHits, st.SummaryFalsePos, c.UsageVector())
		}
	}
	if got.String() != string(want) {
		t.Errorf("replay differs from testdata/replay.golden\ngot:\n%s\nwant:\n%s", got.String(), want)
	}
}

func TestSingleNodeMatchesExactDedup(t *testing.T) {
	c, st, exact := runWorkload(t, "linux", Config{N: 1, Scheme: router.Sigma}, 0.5)
	if got, want := c.PhysicalBytes(), exact.physical; got != want {
		t.Fatalf("single-node physical = %d, want exact %d", got, want)
	}
	if st.LogicalBytes != exact.logical {
		t.Fatal("logical byte accounting mismatch")
	}
	if edr := c.EDR(); edr < 0.999 || edr > 1.001 {
		t.Fatalf("single-node EDR = %v, want 1.0", edr)
	}
}

func TestStatefulSingleNodeAlsoExact(t *testing.T) {
	c, _, exact := runWorkload(t, "web", Config{N: 1, Scheme: router.Stateful}, 0.5)
	if got, want := c.PhysicalBytes(), exact.physical; got != want {
		t.Fatalf("physical = %d, want %d", got, want)
	}
}

func TestClusterConservation(t *testing.T) {
	// Physical ≥ exact (information islands can only lose dedup) and
	// physical ≤ logical, for every scheme; the normalized DR, whose exact
	// baseline is the catalog's, is the reference's exact/physical.
	for _, s := range []router.Scheme{router.Sigma, router.Stateless, router.Stateful, router.ExtremeBinning, router.ChunkDHT} {
		c, st, exact := runWorkload(t, "linux", Config{N: 8, Scheme: s}, 0.4)
		phys := c.PhysicalBytes()
		if phys < exact.physical {
			t.Errorf("%v: cluster physical %d below exact minimum %d", s, phys, exact.physical)
		}
		if phys > st.LogicalBytes {
			t.Errorf("%v: physical %d exceeds logical %d", s, phys, st.LogicalBytes)
		}
		if got, want := c.NormalizedDR(), float64(exact.physical)/float64(phys); got != want {
			t.Errorf("%v: normalized DR %v, want %v", s, got, want)
		}
	}
}

// TestSchemeOrderingOnLinux reproduces the Fig. 8 ordering at small scale:
// Stateful ≥ Sigma > Stateless in EDR on a versioned-file workload. The
// super-chunk size is shrunk so the mini dataset still yields enough
// routing decisions per node for balance statistics (the paper has ~10^5
// super-chunks; we keep the same decisions-per-node ratio).
func TestSchemeOrderingOnLinux(t *testing.T) {
	edr := func(s router.Scheme) float64 {
		c, _, _ := runWorkload(t, "linux",
			Config{N: 16, Scheme: s, SuperChunkSize: 128 << 10}, 0.6)
		return c.EDR()
	}
	sigma := edr(router.Sigma)
	stateless := edr(router.Stateless)
	stateful := edr(router.Stateful)
	t.Logf("EDR N=16 linux: stateful=%.3f sigma=%.3f stateless=%.3f", stateful, sigma, stateless)
	if sigma < stateless {
		t.Fatalf("sigma EDR %.3f below stateless %.3f; similarity routing should win", sigma, stateless)
	}
	if sigma < 0.85*stateful {
		t.Fatalf("sigma EDR %.3f below 85%% of stateful %.3f", sigma, stateful)
	}
}

// TestMessageScaling reproduces Fig. 7: sigma/stateless/EB message counts
// stay flat with cluster size while stateful grows linearly, and sigma
// stays within 1.25x of stateless.
func TestMessageScaling(t *testing.T) {
	pre := func(s router.Scheme, n int) (preMsgs, total int64) {
		_, st, _ := runWorkload(t, "linux", Config{N: n, Scheme: s}, 0.3)
		return st.PreRoutingMsgs, st.PreRoutingMsgs + st.AfterRoutingMsgs
	}
	sigmaPre8, sigma8 := pre(router.Sigma, 8)
	sigmaPre32, sigma32 := pre(router.Sigma, 32)
	_, stateless8 := pre(router.Stateless, 8)
	_, stateless32 := pre(router.Stateless, 32)
	statefulPre8, _ := pre(router.Stateful, 8)
	statefulPre32, _ := pre(router.Stateful, 32)

	// Sigma's pre-routing cost is bounded by k candidates regardless of N.
	if growth := float64(sigma32) / float64(sigma8); growth > 1.3 {
		t.Fatalf("sigma messages grew %.2fx from N=8 to N=32; should be ~flat", growth)
	}
	if sigmaPre32 > 2*sigmaPre8 {
		t.Fatalf("sigma pre-routing grew with N: %d → %d", sigmaPre8, sigmaPre32)
	}
	// Stateful's 1-to-all pre-routing grows linearly with N (Fig. 7).
	if growth := float64(statefulPre32) / float64(statefulPre8); growth < 3.5 {
		t.Fatalf("stateful pre-routing grew only %.2fx from N=8 to N=32; want ~4x", growth)
	}
	if stateless32 != stateless8 {
		t.Fatalf("stateless messages changed with cluster size: %d vs %d", stateless8, stateless32)
	}
	// The paper's bound is 1.25 at exactly 1MB super-chunks (k x k = 64
	// pre-routing lookups vs 256 after-routing); content-defined
	// super-chunks average slightly under target, so allow a little slack.
	if ratio := float64(sigma32) / float64(stateless32); ratio > 1.31 {
		t.Fatalf("sigma/stateless message ratio = %.3f, paper bound is ~1.25", ratio)
	}
}

// TestSigmaBalance verifies Theorem 2 end-to-end: storage skew across
// nodes stays small under sigma routing.
func TestSigmaBalance(t *testing.T) {
	c, _, _ := runWorkload(t, "linux",
		Config{N: 8, Scheme: router.Sigma, SuperChunkSize: 128 << 10}, 1)
	sg := c.Skew()
	sl, _, _ := runWorkload(t, "linux",
		Config{N: 8, Scheme: router.Stateless, SuperChunkSize: 128 << 10}, 1)
	t.Logf("skew: sigma=%.3f stateless=%.3f", sg, sl.Skew())
	if sg > 0.5 {
		t.Fatalf("sigma storage skew = %.3f, want < 0.5", sg)
	}
	if sg > sl.Skew() {
		t.Fatalf("sigma skew %.3f should not exceed stateless skew %.3f", sg, sl.Skew())
	}
}

// TestEBSkewOnVM reproduces the Fig. 8 VM anomaly: Extreme Binning's
// file-level routing on few huge skewed files yields much worse balance
// than sigma on the same workload.
func TestEBSkewOnVM(t *testing.T) {
	eb, _, _ := runWorkload(t, "vm", Config{N: 8, Scheme: router.ExtremeBinning}, 1)
	sg, _, _ := runWorkload(t, "vm", Config{N: 8, Scheme: router.Sigma}, 1)
	t.Logf("vm skew: eb=%.3f sigma=%.3f", eb.Skew(), sg.Skew())
	if eb.Skew() <= sg.Skew() {
		t.Fatalf("EB skew %.3f should exceed sigma skew %.3f on the VM workload", eb.Skew(), sg.Skew())
	}
}

// TestEDRImprovesWithHandprintSize is Fig. 6 in miniature: a larger
// handprint detects more resemblance and cannot hurt cluster DR much.
func TestEDRImprovesWithHandprintSize(t *testing.T) {
	ndr := func(k int) float64 {
		c, _, exact := runWorkload(t, "linux", Config{N: 16, Scheme: router.Sigma, HandprintK: k}, 0.5)
		return float64(exact.physical) / float64(c.PhysicalBytes())
	}
	k1, k8 := ndr(1), ndr(8)
	t.Logf("normalized DR: k=1→%.3f k=8→%.3f", k1, k8)
	if k8 < k1-0.02 {
		t.Fatalf("normalized DR should not degrade with handprint size: k=1→%.3f k=8→%.3f", k1, k8)
	}
}

func TestTraceWorkloadWithoutFiles(t *testing.T) {
	// Mail trace has no file metadata; sigma and stateless must still work.
	c, st, exact := runWorkload(t, "mail", Config{N: 4, Scheme: router.Sigma}, 0.5)
	if c.PhysicalBytes() < exact.physical {
		t.Fatal("impossible dedup on trace workload")
	}
	if st.Files != 1 || st.SuperChunks == 0 {
		t.Fatalf("the trace should replay as one item: %+v", st)
	}
	// Extreme Binning routes files and refuses a trace without them.
	g, _ := workload.ByName("mail", 0.1, 0)
	eb, err := New(Config{N: 4, Scheme: router.ExtremeBinning})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eb.Replay(context.Background(), map[string]Trace{"client0": Workload(g, workload.NewCorpus(0))}); !errors.Is(err, errNoFiles) {
		t.Fatalf("EB replay of a file-less trace: %v, want %v", err, errNoFiles)
	}
}

func TestDHTPerChunkPlacement(t *testing.T) {
	c, _, exact := runWorkload(t, "web", Config{N: 8, Scheme: router.ChunkDHT}, 0.5)
	// Chunk-level DHT achieves exact dedup (same fp always lands on the
	// same node) at the cost of destroyed locality.
	if c.PhysicalBytes() != exact.physical {
		t.Fatalf("DHT physical = %d, want exact %d", c.PhysicalBytes(), exact.physical)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.N != 1 || cfg.Scheme != router.Sigma {
		t.Fatalf("defaults: %+v", cfg)
	}
	if cfg.SuperChunkSize != core.DefaultSuperChunkSize {
		t.Fatal("default super-chunk size")
	}
}

func TestUsageVectorLength(t *testing.T) {
	c, _ := New(Config{N: 5})
	if len(c.UsageVector()) != 5 {
		t.Fatal("usage vector length mismatch")
	}
	if c.Scheme() != "SigmaDedupe" {
		t.Fatalf("scheme = %q", c.Scheme())
	}
}

// TestTrackedRecipesExactWithUntrackedItems: a replayed trace and a named
// backup under the same stream name keep separate recipes, and deleting
// the backup leaves the trace's references alone.
func TestTrackedRecipesExactWithUntrackedItems(t *testing.T) {
	c, err := New(Config{N: 2, Node: store.Config{KeepPayloads: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	refsA := payloadRefs(70, 8) // replayed trace segment
	refsB := payloadRefs(71, 8) // named backup
	replayOne(t, c, refsTrace(refsA))
	backupTracked(t, c, 7, refsB)
	rec := recipeOf(t, c, 7)
	want := make(map[string]bool, len(refsB))
	for _, r := range refsB {
		want[r.FP.String()] = true
	}
	if len(rec) != len(refsB) {
		t.Fatalf("recipe holds %d chunks, want %d (replayed item leaked in?)", len(rec), len(refsB))
	}
	for _, e := range rec {
		if !want[e.FP.String()] {
			t.Fatalf("recipe 7 contains foreign chunk %s", e.FP.Short())
		}
	}
	// Deleting item 7 must not touch the replayed item's chunks.
	if err := migrate.Delete(context.Background(), c.Director(), c.Node, itemName(7)); err != nil {
		t.Fatal(err)
	}
	for _, r := range refsA {
		alive := false
		for _, n := range c.Nodes() {
			if n.RefCount(r.FP) > 0 {
				alive = true
			}
		}
		if !alive {
			t.Fatalf("replayed item's chunk %s lost its references to a foreign delete", r.FP.Short())
		}
	}
}

// refsTrace is a one-file trace of refs.
func refsTrace(refs []core.ChunkRef) Trace {
	return func(yield func(uint64, []core.ChunkRef) error) error { return yield(1, refs) }
}

// payloadRefs builds n random fingerprinted 4KB chunk refs with payloads.
func payloadRefs(seed int64, n int) []core.ChunkRef {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]core.ChunkRef, n)
	for i := range refs {
		data := make([]byte, 4096)
		rng.Read(data)
		refs[i] = core.ChunkRef{FP: fingerprint.Sum(data), Size: len(data), Data: data}
	}
	return refs
}
