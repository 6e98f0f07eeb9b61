package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/ingest"
	"sigmadedupe/internal/migrate"
	"sigmadedupe/internal/node"
	"sigmadedupe/internal/router"
)

func nodeCfgKeepPayloads() node.Config { return node.Config{KeepPayloads: true} }

// membershipItem builds one payload-carrying backup item of unique
// pseudo-random 4KB chunks.
func membershipItem(seed int64, chunks int) []core.ChunkRef {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]core.ChunkRef, chunks)
	for i := range refs {
		data := make([]byte, 4096)
		rng.Read(data)
		refs[i] = core.ChunkRef{FP: fingerprint.Sum(data), Size: len(data), Data: data}
	}
	return refs
}

// openSession opens an ingest session over c the way the public
// simulator backend does: in-process transport, epochs pinned per item,
// R=2 replicated in hand.
func openSession(t *testing.T, c *Cluster, name string) *ingest.Session {
	t.Helper()
	cfg := ingest.Config{
		Name: name, SuperChunkSize: c.cfg.SuperChunkSize, Router: c.Router(), KeepPayloads: true,
		Pin: func(context.Context) (ingest.Epoch, error) {
			view, release := c.Pin()
			return ingest.Epoch{View: func() router.View { return view }, Node: c.Node, Release: release}, nil
		},
	}
	if c.cfg.Replicas >= 2 {
		cfg.Replicate.Run = c.ReplicateRun
	}
	s, err := ingest.New(context.Background(), cfg, c.Director())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// backupTracked backs refs' payload up as one named item through an
// ingest session — 4KB fixed chunking reproduces refs — and commits its
// recipe to the cluster's director without sealing anything (Close
// settles; only Flush seals).
func backupTracked(t *testing.T, c *Cluster, id int, refs []core.ChunkRef) {
	t.Helper()
	s := openSession(t, c, "client0")
	if err := s.Backup(context.Background(), itemName(id), bytes.NewReader(payload(refs))); err != nil {
		t.Fatal(err)
	}
	s.Close()
}

func itemName(id int) string { return fmt.Sprintf("/item%d", id) }

// recipeOf returns the committed recipe entries of a named item.
func recipeOf(t *testing.T, c *Cluster, id int) []director.ChunkEntry {
	t.Helper()
	r, err := c.Director().GetRecipe(context.Background(), itemName(id))
	if err != nil {
		t.Fatalf("item %d: %v", id, err)
	}
	return r.Chunks
}

// restoreItem restores a named item through the shared scheduler.
func restoreItem(t *testing.T, c *Cluster, id int) []byte {
	t.Helper()
	var out bytes.Buffer
	if _, err := migrate.Restore(context.Background(), c.Director(), c.Node, itemName(id), 2, &out); err != nil {
		t.Fatalf("restore item %d: %v", id, err)
	}
	return out.Bytes()
}

// payload is the byte stream refs describe.
func payload(refs []core.ChunkRef) []byte {
	var want bytes.Buffer
	for _, r := range refs {
		want.Write(r.Data)
	}
	return want.Bytes()
}

func pendingMigrations(t *testing.T, c *Cluster) int {
	t.Helper()
	p, err := c.Director().PendingMigrations(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return len(p)
}

// nodeUsage returns the bytes the live node with cluster ID id stores.
func nodeUsage(t *testing.T, c *Cluster, id int) int64 {
	t.Helper()
	for _, n := range c.Nodes() {
		if n.ID() == id {
			return n.StorageUsage()
		}
	}
	t.Fatalf("no live node %d", id)
	return 0
}

func elasticCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	c, err := New(Config{
		N:              n,
		Scheme:         router.Sigma,
		SuperChunkSize: 32 << 10,
		Node:           nodeCfgKeepPayloads(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRoutingStabilityOnGrowth is the elastic-routing property test:
// growing N → N+1 nodes moves at most ~1.5/(N+1) of super-chunk
// placements on a re-backup of identical data, and the re-backup still
// dedups ≥ 95% — the membership change does not collapse the dedup
// ratio.
func TestRoutingStabilityOnGrowth(t *testing.T) {
	const (
		n     = 4
		items = 48
	)
	c := elasticCluster(t, n)
	defer c.Close()

	contents := make([][]core.ChunkRef, items)
	for i := range contents {
		contents[i] = membershipItem(int64(100+i), 24) // 96KB → ~3 super-chunks
	}
	for i, refs := range contents {
		backupTracked(t, c, 1+i, refs)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	physBefore := c.PhysicalBytes()
	const logical = items * 24 * 4096

	if _, err := c.AddNode(); err != nil {
		t.Fatal(err)
	}
	if got := c.Membership(); got.Epoch != 2 || got.Len() != n+1 {
		t.Fatalf("membership after AddNode = %+v", got)
	}

	// Re-backup identical content under fresh item IDs.
	for i, refs := range contents {
		backupTracked(t, c, 1000+i, refs)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	// Placement churn: chunks whose routed node changed between the two
	// generations.
	var total, moved int
	for i := range contents {
		before, after := recipeOf(t, c, 1+i), recipeOf(t, c, 1000+i)
		if len(before) != len(after) {
			t.Fatalf("item %d recipes diverged (%d/%d chunks)", i, len(before), len(after))
		}
		for j := range before {
			total++
			if before[j].Node != after[j].Node {
				moved++
			}
		}
	}
	frac := float64(moved) / float64(total)
	bound := 1.5 / float64(n+1)
	t.Logf("growth churn: %d/%d chunks moved (%.4f), bound %.4f", moved, total, frac, bound)
	if frac > bound {
		t.Fatalf("placement churn %.4f exceeds ~1.5/(N+1) = %.4f", frac, bound)
	}

	// Dedup stability: the identical re-backup must store almost
	// nothing new — within 5% of the pre-change dedup behavior (a
	// pre-change re-backup would store zero).
	newlyStored := c.PhysicalBytes() - physBefore
	if float64(newlyStored) > 0.05*float64(logical) {
		t.Fatalf("re-backup after growth stored %d new bytes of %d logical (> 5%%): dedup ratio collapsed",
			newlyStored, logical)
	}
}

// TestAddNodeReceivesNewData: a joined node is bid into fresh backups
// via the least-loaded fallback.
func TestAddNodeReceivesNewData(t *testing.T) {
	c := elasticCluster(t, 2)
	defer c.Close()
	for i := 0; i < 8; i++ {
		backupTracked(t, c, 1+i, membershipItem(int64(i), 16))
	}
	id, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		backupTracked(t, c, 100+i, membershipItem(int64(500+i), 16))
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if nodeUsage(t, c, id) == 0 {
		t.Fatal("fresh node received no data from post-join backups")
	}
}

// TestRemoveNodeMigratesAndRestores: RemoveNode drains every placement
// off the node, all backups restore byte-identically, and deleting
// everything afterwards leaves zero live bytes — no reference leaked by
// the migration.
func TestRemoveNodeMigratesAndRestores(t *testing.T) {
	const items = 12
	c := elasticCluster(t, 3)
	defer c.Close()
	contents := make([][]core.ChunkRef, items)
	for i := range contents {
		contents[i] = membershipItem(int64(9000+i), 24)
		backupTracked(t, c, 1+i, contents[i])
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	res, err := c.RemoveNode(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Membership(); got.Len() != 2 || got.Contains(1) {
		t.Fatalf("membership after RemoveNode = %+v", got)
	}
	// Some data lived on node 1 (3 nodes, 12 items); it must have moved.
	if res.Segments == 0 || res.Bytes == 0 {
		t.Fatalf("RemoveNode moved nothing: %+v", res)
	}
	for i := range contents {
		for _, e := range recipeOf(t, c, 1+i) {
			if e.Node == 1 {
				t.Fatalf("item %d still placed on removed node 1", i)
			}
		}
		if !bytes.Equal(restoreItem(t, c, 1+i), payload(contents[i])) {
			t.Fatalf("item %d corrupted by migration", i)
		}
	}

	// Zero leaked references: delete everything, compact, nothing live.
	ctx := context.Background()
	for i := 0; i < items; i++ {
		if err := migrate.Delete(ctx, c.Director(), c.Node, itemName(1+i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := migrate.Compact(ctx, c.Membership().Nodes, c.Node, 0.999); err != nil {
		t.Fatal(err)
	}
	if gc, err := migrate.GCStats(ctx, c.Membership().Nodes, c.Node); err != nil || gc.LiveBytes != 0 {
		t.Fatalf("live bytes = %d (%v) after deleting every backup; migration leaked references", gc.LiveBytes, err)
	}
}

// TestRemoveNodeWaitsForItemCommit: an item whose super-chunks are
// stored but whose recipe is not yet in the director holds its epoch
// pin, so a RemoveNode of a node it stored to cannot scan the catalog,
// find nothing and close the node under it. The drain runs after the
// commit, moves the item, and the backup restores.
func TestRemoveNodeWaitsForItemCommit(t *testing.T) {
	c := elasticCluster(t, 3)
	defer c.Close()
	ctx := context.Background()
	seed := membershipItem(7000, 24)
	backupTracked(t, c, 1, seed)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	// An item whose last chunk closes a super-chunk: everything is stored
	// while the stream is still open, the end of the stream stores nothing
	// more.
	var refs []core.ChunkRef
	for itemSeed := int64(7001); refs == nil; itemSeed++ {
		cand := membershipItem(itemSeed, 64)
		part, err := core.NewPartitioner(c.cfg.SuperChunkSize, fingerprint.SHA1, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range cand {
			part.AddRef(r)
		}
		if part.Flush() == nil {
			refs = cand
		}
	}
	before := c.UsageVector()
	stored := c.PhysicalBytes() + int64(len(payload(refs)))
	s := openSession(t, c, "second")
	defer s.Close()
	pr, pw := io.Pipe()
	backedUp := make(chan error, 1)
	go func() { backedUp <- s.Backup(ctx, itemName(2), pr) }()
	if _, err := pw.Write(payload(refs)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); c.PhysicalBytes() != stored; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("stored %d bytes, want %d: the test needs the whole item stored and uncommitted", c.PhysicalBytes(), stored)
		}
	}
	victim := -1
	for i, u := range c.UsageVector() {
		if u > before[i] {
			victim = i
		}
	}
	// Seal what the item stored, as a session's Flush would: the drain
	// reads sealed containers only.
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := c.RemoveNode(ctx, victim)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("RemoveNode(%d) returned (%v) while an item stored on the node was uncommitted", victim, err)
	case <-time.After(100 * time.Millisecond):
	}
	pw.Close()
	if err := <-backedUp; err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for id, want := range map[int][]core.ChunkRef{1: seed, 2: refs} {
		for _, e := range recipeOf(t, c, id) {
			if int(e.Node) == victim {
				t.Fatalf("item %d still placed on removed node %d", id, victim)
			}
		}
		if !bytes.Equal(restoreItem(t, c, id), payload(want)) {
			t.Fatalf("item %d does not restore after RemoveNode", id)
		}
	}
}

// TestRebalanceFillsNewNode: after AddNode, Rebalance moves existing
// segments onto the empty node and the data still restores.
func TestRebalanceFillsNewNode(t *testing.T) {
	const items = 24
	c := elasticCluster(t, 3)
	defer c.Close()
	contents := make([][]core.ChunkRef, items)
	for i := range contents {
		contents[i] = membershipItem(int64(7000+i), 24)
		backupTracked(t, c, 1+i, contents[i])
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	id, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes == 0 {
		t.Fatalf("rebalance moved nothing onto the fresh node: %+v", res)
	}
	if nodeUsage(t, c, id) == 0 {
		t.Fatal("fresh node still empty after rebalance")
	}
	if n := pendingMigrations(t, c); n != 0 {
		t.Fatalf("%d migrations left pending after a clean rebalance", n)
	}
	for i := range contents {
		if !bytes.Equal(restoreItem(t, c, 1+i), payload(contents[i])) {
			t.Fatalf("item %d corrupted by rebalance", i)
		}
	}
}

// TestMembershipGuards: baselines and untracked configurations refuse
// membership changes loudly.
func TestMembershipGuards(t *testing.T) {
	c, err := New(Config{N: 2, Scheme: router.Stateless})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AddNode(); err == nil {
		t.Fatal("AddNode must require the Sigma scheme")
	}

	c2, err := New(Config{N: 2, Scheme: router.Sigma})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.RemoveNode(context.Background(), 0); err == nil {
		t.Fatal("RemoveNode without payloads must fail")
	}
}

// TestReplicasGuard: an R=2 configuration the engine cannot serve is
// rejected at construction rather than silently keeping single copies.
func TestReplicasGuard(t *testing.T) {
	for name, cfg := range map[string]Config{
		"stateless scheme": {N: 2, Scheme: router.Stateless, Replicas: 2, Node: nodeCfgKeepPayloads()},
		"no payloads":      {N: 2, Replicas: 2},
	} {
		if c, err := New(cfg); err == nil {
			c.Close()
			t.Errorf("%s: New accepted Replicas=2", name)
		}
	}
}

// TestWritePathReplicationSealsNothing pins the cost shape of R=2
// ingest: every run is replicated from the payloads in hand as it is
// routed — each recipe entry carries its replica the moment the item
// returns — and neither primaries nor replicas seal a container per
// item; containers fill and seal as under single-copy ingest.
func TestWritePathReplicationSealsNothing(t *testing.T) {
	c, err := New(Config{N: 4, SuperChunkSize: 32 << 10, Replicas: 2, Node: nodeCfgKeepPayloads()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const items = 40
	var logical int64
	for i := 0; i < items; i++ {
		refs := membershipItem(int64(500+i), 24) // 96KB → 3 super-chunks
		backupTracked(t, c, i+1, refs)
		logical += 24 * 4096
		entries := recipeOf(t, c, i+1)
		if len(entries) != len(refs) {
			t.Fatalf("item %d: recipe has %d entries, want %d", i, len(entries), len(refs))
		}
		for j, e := range entries {
			if e.FP != refs[j].FP || e.Replica < 0 || e.Replica == e.Node {
				t.Fatalf("item %d entry %d: %+v, want chunk %s with a replica off its primary", i, j, e, refs[j].FP.Short())
			}
		}
	}
	sealed := 0
	for _, n := range c.Nodes() {
		sealed += n.NumSealedContainers()
	}
	if sealed != 0 {
		t.Fatalf("%d containers sealed by %d items (%d KB) before Flush, want 0", sealed, items, logical>>10)
	}
	if got := c.PhysicalBytes(); got != 2*logical {
		t.Fatalf("physical bytes %d, want %d (two copies)", got, 2*logical)
	}
	if n := pendingMigrations(t, c); n != 0 {
		t.Fatalf("%d transactions left open by a clean ingest", n)
	}
}
