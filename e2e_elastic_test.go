package sigmadedupe

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"
	"time"
)

// planeOf returns the one backend behind either constructor.
func planeOf(t *testing.T, be Backend) *plane {
	t.Helper()
	switch b := be.(type) {
	case *Cluster:
		return &b.plane
	case *Remote:
		return &b.plane
	}
	t.Fatalf("unknown backend %T", be)
	return nil
}

// placement returns the node of every chunk of a backup's recipe.
func placement(t *testing.T, be Backend, name string) []int32 {
	t.Helper()
	r, err := planeOf(t, be).meta.GetRecipe(context.Background(), name)
	if err != nil {
		t.Fatalf("recipe of %s: %v", name, err)
	}
	out := make([]int32, len(r.Chunks))
	for i, e := range r.Chunks {
		out[i] = e.Node
	}
	return out
}

// mustRestore restores name and compares it with want.
func mustRestore(t *testing.T, be Backend, name string, want []byte) {
	t.Helper()
	var out bytes.Buffer
	if err := be.Restore(context.Background(), name, &out); err != nil {
		t.Fatalf("restore %s: %v", name, err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("%s restored %d bytes, differs from the %d backed up", name, out.Len(), len(want))
	}
}

// TestRoutingStabilityOnGrowth is the elastic-routing property test, on
// both constructors: growing N → N+1 nodes moves at most ~1.5/(N+1) of
// chunk placements on a re-backup of identical data, and the re-backup
// still dedups ≥ 95% — the membership change does not collapse the dedup
// ratio.
func TestRoutingStabilityOnGrowth(t *testing.T) {
	const (
		n       = 4
		items   = 48
		size    = 96 << 10 // ~3 super-chunks
		logical = items * size
	)
	eachBackendOf(t, n, 0, func(t *testing.T, be Backend) {
		ctx := context.Background()
		generation := func(prefix string) {
			t.Helper()
			for i := 0; i < items; i++ {
				if err := be.Backup(ctx, fmt.Sprintf("%s/item%d", prefix, i), bytes.NewReader(gcRandBytes(int64(100+i), size))); err != nil {
					t.Fatal(err)
				}
			}
			if err := be.Flush(ctx); err != nil {
				t.Fatal(err)
			}
		}
		generation("/before")
		before, err := be.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := be.AddNode(ctx, joinAddr(t, be, n)); err != nil {
			t.Fatal(err)
		}
		if got := planeOf(t, be).cur.Load().members; got.Epoch != 2 || got.Len() != n+1 {
			t.Fatalf("membership after AddNode = %+v", got)
		}
		// Re-backup identical content under fresh names.
		generation("/after")

		// Placement churn: chunks whose routed node changed between the two
		// generations.
		var total, moved int
		for i := 0; i < items; i++ {
			was, is := placement(t, be, fmt.Sprintf("/before/item%d", i)), placement(t, be, fmt.Sprintf("/after/item%d", i))
			if len(was) != len(is) {
				t.Fatalf("item %d recipes diverged (%d/%d chunks)", i, len(was), len(is))
			}
			for j := range was {
				total++
				if was[j] != is[j] {
					moved++
				}
			}
		}
		frac, bound := float64(moved)/float64(total), 1.5/float64(n+1)
		t.Logf("growth churn: %d/%d chunks moved (%.4f), bound %.4f", moved, total, frac, bound)
		if frac > bound {
			t.Fatalf("placement churn %.4f exceeds ~1.5/(N+1) = %.4f", frac, bound)
		}

		// Dedup stability: the identical re-backup must store almost nothing
		// new — within 5% of the pre-change dedup behavior (a pre-change
		// re-backup would store zero).
		after, err := be.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if stored := after.PhysicalBytes - before.PhysicalBytes; float64(stored) > 0.05*logical {
			t.Fatalf("re-backup after growth stored %d new bytes of %d logical (> 5%%): dedup ratio collapsed", stored, logical)
		}
	})
}

// TestSessionSeesAddNodeAtNextItem: epochs are pinned per backup item on
// both constructors, so a session opened before AddNode bids the joined
// node in from its next item on (zero-resemblance super-chunks fill the
// least-loaded valley first).
func TestSessionSeesAddNodeAtNextItem(t *testing.T) {
	eachBackend(t, 0, func(t *testing.T, be Backend) {
		ctx := context.Background()
		sess, err := be.NewSession(ctx, WithSessionName("early"))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		for i := 0; i < 8; i++ {
			if err := sess.Backup(ctx, fmt.Sprintf("/pre%d", i), bytes.NewReader(gcRandBytes(int64(i), 64<<10))); err != nil {
				t.Fatal(err)
			}
		}
		id, err := be.AddNode(ctx, joinAddr(t, be, 3))
		if err != nil {
			t.Fatal(err)
		}
		data := gcRandBytes(500, 256<<10)
		if err := sess.Backup(ctx, "/post", bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		if err := sess.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		onJoined := 0
		for _, at := range placement(t, be, "/post") {
			if int(at) == id {
				onJoined++
			}
		}
		if onJoined == 0 {
			t.Fatalf("the session's first item after AddNode stored nothing on joined node %d", id)
		}
		mustRestore(t, be, "/post", data)
		assertCatalogConsistent(t, be)
	})
}

// TestKillNodeFailsOnlyItemInFlight: a session opened before KillNode
// loses the item it has in flight — its next route to the dead node fails
// with a typed error and the item aborts, releasing what it stored on the
// survivors — and nothing else: its next item pins the shrunken
// membership and succeeds. At R=2 a route whose replica is the dead node
// fails the same way.
func TestKillNodeFailsOnlyItemInFlight(t *testing.T) {
	eachReplication(t, func(t *testing.T, be Backend) {
		ctx := context.Background()
		sess, err := be.NewSession(ctx, WithSessionName("doomed"))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		pr, pw := io.Pipe()
		backedUp := make(chan error, 1)
		go func() { backedUp <- sess.Backup(ctx, "/in-flight", pr) }()
		// The item is pinned once its first bytes are stored.
		if _, err := pw.Write(gcRandBytes(1, 128<<10)); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			if st, err := be.Stats(ctx); err != nil {
				t.Fatal(err)
			} else if st.PhysicalBytes > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the in-flight item never stored a super-chunk")
			}
		}
		if err := be.KillNode(ctx, 1); err != nil {
			t.Fatal(err)
		}
		// Sixty more super-chunks within the pinned membership: some route to
		// the dead node.
		go func() {
			pw.Write(gcRandBytes(2, 2<<20))
			pw.Close()
		}()
		err = <-backedUp
		if err == nil {
			err = sess.Flush(ctx)
		}
		var berr *BackupError
		if !errors.Is(err, ErrNotFound) || !errors.As(err, &berr) {
			t.Fatalf("the item in flight across KillNode = %v, want a BackupError wrapping ErrNotFound", err)
		}
		if err := be.Restore(ctx, "/in-flight", io.Discard); !errors.Is(err, ErrNotFound) {
			t.Fatalf("the aborted item is in the catalog: %v", err)
		}

		data := gcRandBytes(3, 256<<10)
		if err := sess.Backup(ctx, "/next", bytes.NewReader(data)); err != nil {
			t.Fatalf("the session's next item after KillNode: %v", err)
		}
		if err := sess.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		mustRestore(t, be, "/next", data)
		assertCatalogConsistent(t, be)
		// The abort left nothing behind on the survivors.
		if err := be.Delete(ctx, "/next"); err != nil {
			t.Fatal(err)
		}
		if _, err := be.Compact(ctx, 0.999); err != nil {
			t.Fatal(err)
		}
		if gc, err := gcStatsOf(ctx, be); err != nil || gc.LiveBytes != 0 {
			t.Fatalf("live bytes = %d (%v) after deleting every backup, want 0", gc.LiveBytes, err)
		}
	})
}

// TestIdleSessionAcrossRemoveNode: a session whose items have all
// committed holds no pin, so it neither blocks a RemoveNode nor is
// stranded by it — its next item routes to the survivors.
func TestIdleSessionAcrossRemoveNode(t *testing.T) {
	eachBackend(t, 0, func(t *testing.T, be Backend) {
		ctx := context.Background()
		sess, err := be.NewSession(ctx, WithSessionName("idle"))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		first := gcRandBytes(10, 256<<10)
		if err := sess.Backup(ctx, "/first", bytes.NewReader(first)); err != nil {
			t.Fatal(err)
		}
		if err := sess.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := be.RemoveNode(ctx, 2); err != nil {
			t.Fatalf("RemoveNode with an idle session open: %v", err)
		}
		second := gcRandBytes(11, 256<<10)
		if err := sess.Backup(ctx, "/second", bytes.NewReader(second)); err != nil {
			t.Fatal(err)
		}
		if err := sess.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		for _, at := range placement(t, be, "/second") {
			if at == 2 {
				t.Fatal("the session stored on removed node 2")
			}
		}
		mustRestore(t, be, "/first", first)
		mustRestore(t, be, "/second", second)
		assertCatalogConsistent(t, be)
	})
}

// TestRemoveNodeWaitsForItemCommit: an item whose super-chunks are
// stored but whose recipe is not yet in the director holds its epoch
// pin, so a RemoveNode of a node it stored to cannot scan the catalog,
// find nothing and close the node under it. The drain runs after the
// commit, moves the item, and the backup restores.
func TestRemoveNodeWaitsForItemCommit(t *testing.T) {
	eachBackend(t, 0, func(t *testing.T, be Backend) {
		ctx := context.Background()
		p := planeOf(t, be)
		seed := gcRandBytes(7000, 96<<10)
		if err := be.Backup(ctx, "/seed", bytes.NewReader(seed)); err != nil {
			t.Fatal(err)
		}
		if err := be.Flush(ctx); err != nil {
			t.Fatal(err)
		}

		// An item left open: what its reader delivered is stored — up to the
		// pending super-chunk and the one unfilled batch the session holds
		// back until more data or EOF arrives — and nothing is committed.
		data := gcRandBytes(7001, 256<<10)
		before, err := p.usage(ctx)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := be.NewSession(ctx, WithSessionName("second"))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		pr, pw := io.Pipe()
		backedUp := make(chan error, 1)
		go func() { backedUp <- sess.Backup(ctx, "/item", pr) }()
		if _, err := pw.Write(data); err != nil {
			t.Fatal(err)
		}
		// Wait until the stored bytes have grown and stopped growing, and take
		// a node the item stored to.
		last, stable := before, 0
		for deadline := time.Now().Add(10 * time.Second); stable < 20; time.Sleep(5 * time.Millisecond) {
			now, err := p.usage(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if slices.Equal(now, last) && !slices.Equal(now, before) {
				stable++
			} else {
				last, stable = now, 0
			}
			if time.Now().After(deadline) {
				t.Fatalf("usage %v -> %v: the test needs part of the open item stored and the stores settled", before, now)
			}
		}
		victim := -1
		for i, u := range last {
			if u > before[i] {
				victim = i // member IDs are dense here
			}
		}

		done := make(chan error, 1)
		go func() {
			_, err := be.RemoveNode(ctx, victim)
			done <- err
		}()
		select {
		case err := <-done:
			t.Fatalf("RemoveNode(%d) returned (%v) while an item stored on the node was uncommitted", victim, err)
		case <-time.After(100 * time.Millisecond):
		}
		// EOF hands over the held-back tail; Flush commits the item once the
		// tail is stored, which releases the pin.
		pw.Close()
		if err := <-backedUp; err != nil {
			t.Fatal(err)
		}
		if err := sess.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		for name, want := range map[string][]byte{"/seed": seed, "/item": data} {
			for _, at := range placement(t, be, name) {
				if int(at) == victim {
					t.Fatalf("%s still placed on removed node %d", name, victim)
				}
			}
			mustRestore(t, be, name, want)
		}
	})
}

// TestAddNodeRejectsMemberAddress: a server that is already a member
// cannot join again under a second ID — its bytes would count twice in
// Stats, and draining either ID would migrate into the same store.
func TestAddNodeRejectsMemberAddress(t *testing.T) {
	ctx := context.Background()
	addrs := startServers(t, 2)
	be, err := NewRemote(ctx, RemoteConfig{Director: NewDirector(), Nodes: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	if id, err := be.AddNode(ctx, addrs[1]); !errors.Is(err, ErrConflict) {
		t.Fatalf("AddNode of member 1's address = node %d, %v; want ErrConflict", id, err)
	}
	if st, err := be.Stats(ctx); err != nil || st.Nodes != 2 {
		t.Fatalf("Nodes = %d (%v) after the refused join, want 2", st.Nodes, err)
	}
}

// TestStatsLogicalBytesCountSessionBytes: LogicalBytes is what the
// backend's sessions were handed, on both constructors — not the nodes'
// store counters, which also see every replica and migrated segment.
func TestStatsLogicalBytesCountSessionBytes(t *testing.T) {
	eachBackend(t, 2, func(t *testing.T, be Backend) {
		ctx := context.Background()
		const files, size = 4, 96 << 10
		for i := 0; i < files; i++ {
			if err := be.Backup(ctx, fmt.Sprintf("/r2/file%d", i), bytes.NewReader(gcRandBytes(int64(60+i), size))); err != nil {
				t.Fatal(err)
			}
		}
		if err := be.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		st, err := be.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.LogicalBytes != files*size || st.PhysicalBytes != 2*files*size || st.Backups != files {
			t.Fatalf("stats = %+v, want %d logical bytes stored twice in %d backups", st, files*size, files)
		}
	})
}

// TestStatsCountRestores: the restore counters are backend-wide, on both
// constructors: after two restores RestoredBytes is their sizes' sum and
// at least one batched read served them.
func TestStatsCountRestores(t *testing.T) {
	eachBackend(t, 0, func(t *testing.T, be Backend) {
		ctx := context.Background()
		sizes := []int{96 << 10, 40<<10 + 123}
		for i, size := range sizes {
			if err := be.Backup(ctx, fmt.Sprintf("/restored/file%d", i), bytes.NewReader(gcRandBytes(int64(80+i), size))); err != nil {
				t.Fatal(err)
			}
		}
		if err := be.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		for i, size := range sizes {
			mustRestore(t, be, fmt.Sprintf("/restored/file%d", i), gcRandBytes(int64(80+i), size))
		}
		st, err := be.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(sizes[0] + sizes[1]); st.RestoredBytes != want || st.RestoreRPCs < 1 || st.FailoverReads != 0 {
			t.Fatalf("restore counters = %d bytes, %d RPCs, %d failovers; want %d bytes, >= 1 RPC, no failover",
				st.RestoredBytes, st.RestoreRPCs, st.FailoverReads, want)
		}
	})
}

// TestMembershipGuards: payload-less configurations refuse migration
// loudly, and an R=2 configuration the engine cannot serve is rejected at
// construction rather than silently keeping single copies.
func TestMembershipGuards(t *testing.T) {
	ctx := context.Background()
	c, err := NewCluster(ClusterConfig{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for verb, err := range map[string]error{
		"RemoveNode": func() error { _, err := c.RemoveNode(ctx, 0); return err }(),
		"Rebalance":  func() error { _, err := c.Rebalance(ctx); return err }(),
		"Repair":     func() error { _, err := c.Repair(ctx); return err }(),
	} {
		if err == nil {
			t.Errorf("%s without payloads must fail", verb)
		}
	}
	if c, err := NewCluster(ClusterConfig{Nodes: 2, Replicas: 2}); err == nil {
		c.Close()
		t.Error("NewCluster accepted Replicas=2 without payloads")
	}
}

// TestReplicaCommittedWithItemSealsNothing pins the cost shape of R=2
// ingest on both backends: the second copy is written as each super-chunk
// is routed, so every recipe entry names its replica the moment its item
// commits; no container seals before Flush, which seals what single-copy
// ingest would (one open container per stream per node), and no migration
// transaction is journaled.
func TestReplicaCommittedWithItemSealsNothing(t *testing.T) {
	const nodes = 4
	eachBackendOf(t, nodes, 2, func(t *testing.T, be Backend) {
		ctx := context.Background()
		p := planeOf(t, be)
		// A window of one: an item's super-chunks are all applied, and it has
		// committed, once a later Backup has enqueued two more super-chunks.
		// Items this small (less than one hash batch) wait in the session's
		// carry until a second one fills it, so the pair's second item is
		// consumed after the first: item i has committed once Backup of
		// item i+2 has returned.
		sess, err := be.NewSession(ctx, WithSessionName("client0"), WithInflightSuperChunks(1))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		const items, size = 40, 96 << 10 // ≥ 2 super-chunks each: the partitioner cuts at 64 KB
		for i := 0; i < items; i++ {
			if err := sess.Backup(ctx, fmt.Sprintf("/item%d", i), bytes.NewReader(gcRandBytes(int64(500+i), size))); err != nil {
				t.Fatal(err)
			}
			if i < 2 {
				continue
			}
			r, err := p.meta.GetRecipe(ctx, fmt.Sprintf("/item%d", i-2))
			if err != nil || len(r.Chunks) != size/4096 {
				t.Fatalf("item %d: recipe has %d entries (%v), want %d", i-2, len(r.Chunks), err, size/4096)
			}
			for j, e := range r.Chunks {
				if e.Replica < 0 || e.Replica == e.Node {
					t.Fatalf("item %d entry %d at its commit: %+v, want a replica off its primary", i-2, j, e)
				}
			}
		}
		if gc, err := gcStatsOf(ctx, be); err != nil || gc.Containers != 0 {
			t.Fatalf("%d containers sealed (%v) by %d items (%d KB) before Flush, want 0", gc.Containers, err, items, items*size>>10)
		}
		if err := sess.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if gc, err := gcStatsOf(ctx, be); err != nil || gc.Containers > 2*nodes {
			t.Fatalf("%d containers sealed (%v) by %d items (%d KB of two copies), want at most %d",
				gc.Containers, err, items, 2*items*size>>10, 2*nodes)
		}
		if st, err := be.Stats(ctx); err != nil || st.PhysicalBytes != 2*items*size {
			t.Fatalf("physical bytes %d (%v), want %d (two copies)", st.PhysicalBytes, err, 2*items*size)
		}
		if pending, err := p.clusterMeta.PendingMigrations(ctx); err != nil || len(pending) != 0 {
			t.Fatalf("%d transactions (%v) left open by a clean ingest", len(pending), err)
		}
		assertCatalogConsistent(t, be)
	})
}
