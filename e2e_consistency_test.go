package sigmadedupe

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"sigmadedupe/internal/fingerprint"
)

// assertCatalogConsistent checks, identically on both backends (both
// have a director), that the nodes hold exactly what the recipe catalog
// implies: every live node's reference count on every cataloged chunk
// equals its primary plus replica attributions, its live bytes are those
// chunks and nothing else (no reference the catalog does not account
// for), and every tenant's LiveBytes is the sum of its recipes' sizes.
func assertCatalogConsistent(t *testing.T, be Backend) {
	t.Helper()
	ctx := context.Background()
	var p *plane
	switch b := be.(type) {
	case *Cluster:
		p = &b.plane
	case *Remote:
		p = &b.plane
	default:
		t.Fatalf("unknown backend %T", be)
	}
	recipes, err := p.clusterMeta.Recipes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ids, nodes, err := p.live(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var all []fingerprint.Fingerprint
	sizeOf := make(map[fingerprint.Fingerprint]int64)
	expected := make(map[int32]map[fingerprint.Fingerprint]int64)
	tenantBytes := make(map[string]int64)
	for _, r := range recipes {
		tenantBytes[r.Tenant()] += r.Size()
		for _, e := range r.Chunks {
			if _, ok := sizeOf[e.FP]; !ok {
				sizeOf[e.FP] = int64(e.Size)
				all = append(all, e.FP)
			}
			for _, at := range []int32{e.Node, e.Replica} {
				if at < 0 {
					continue
				}
				if expected[at] == nil {
					expected[at] = make(map[fingerprint.Fingerprint]int64)
				}
				expected[at][e.FP]++
			}
		}
	}
	for _, id := range ids {
		nd, ok := nodes(id)
		if !ok {
			t.Fatalf("member %d has no transport", id)
		}
		got, err := nd.RefCounts(ctx, all)
		if err != nil {
			t.Fatal(err)
		}
		var live int64
		for i, f := range all {
			want := expected[int32(id)][f]
			if got[i] != want {
				t.Fatalf("node %d holds %d refs on chunk %s, the catalog implies %d", id, got[i], f.Short(), want)
			}
			if want > 0 {
				live += sizeOf[f]
			}
		}
		gc, _, err := nd.GCStats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if gc.LiveBytes != live {
			t.Fatalf("node %d has %d live bytes, the catalog accounts for %d", id, gc.LiveBytes, live)
		}
	}
	sts, err := be.(TenantAdmin).Tenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sts {
		if st.Usage.LiveBytes != tenantBytes[st.Name] {
			t.Fatalf("tenant %s accounts %d live bytes, its recipes sum to %d", st.Name, st.Usage.LiveBytes, tenantBytes[st.Name])
		}
	}
}

// eachBackend runs fn against a fresh 3-node simulator and a fresh
// 3-server TCP prototype with the given replica count.
func eachBackend(t *testing.T, replicas int, fn func(t *testing.T, be Backend)) {
	eachBackendOf(t, 3, replicas, fn)
}

// eachReplication runs fn through eachBackend single-copy, then again at
// R=2 under the subtest "R=2".
func eachReplication(t *testing.T, fn func(t *testing.T, be Backend)) {
	eachBackend(t, 0, fn)
	t.Run("R=2", func(t *testing.T) { eachBackend(t, 2, fn) })
}

// eachBackendOf is eachBackend over nodes nodes.
func eachBackendOf(t *testing.T, nodes, replicas int, fn func(t *testing.T, be Backend)) {
	t.Run("simulator", func(t *testing.T) {
		c, err := NewCluster(ClusterConfig{Nodes: nodes, KeepPayloads: true, SuperChunkSize: 32 << 10, Replicas: replicas})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		fn(t, c)
	})
	t.Run("remote", func(t *testing.T) {
		be, err := NewRemote(context.Background(), RemoteConfig{
			Name: "consistency", Director: NewDirector(), Nodes: startServers(t, nodes),
			SuperChunkSize: 32 << 10, Replicas: replicas,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer be.Close()
		fn(t, be)
	})
}

// TestConcurrentRebackupVsDelete: several sessions keep re-backing-up one
// name — mostly shared content, so the generations' references pile up on
// the same chunks — while another goroutine keeps deleting it. The commit
// of a name (swap the recipe in, release the superseded generation) and
// its delete are one critical section each at the director, so every
// generation's references are released exactly once: no decref ever
// exceeds a chunk's references, the nodes end up holding exactly what
// the surviving recipe implies, and deleting it leaves nothing alive. At
// R=2 the same holds for the replica references.
func TestConcurrentRebackupVsDelete(t *testing.T) {
	eachReplication(t, func(t *testing.T, be Backend) {
		ctx := context.Background()
		const sessions, rounds = 4, 6
		shared := gcRandBytes(700, 64<<10)
		var backups sync.WaitGroup
		for s := 0; s < sessions; s++ {
			backups.Add(1)
			go func() {
				defer backups.Done()
				sess, err := be.NewSession(ctx, WithSessionName(fmt.Sprintf("rebackup%d", s)))
				if err != nil {
					t.Error(err)
					return
				}
				defer sess.Close()
				for r := 0; r < rounds; r++ {
					data := append(append([]byte(nil), shared...), gcRandBytes(int64(701+s*rounds+r), 24<<10)...)
					if err := sess.Backup(ctx, "/a", bytes.NewReader(data)); err != nil {
						t.Errorf("session %d round %d: %v", s, r, err)
						return
					}
					if err := sess.Flush(ctx); err != nil {
						t.Errorf("session %d round %d flush: %v", s, r, err)
						return
					}
				}
			}()
		}
		done := make(chan struct{})
		var deleter sync.WaitGroup
		deleter.Add(1)
		go func() {
			defer deleter.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := be.Delete(ctx, "/a"); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("delete: %v", err)
					return
				}
			}
		}()
		backups.Wait()
		close(done)
		deleter.Wait()
		if err := be.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		assertCatalogConsistent(t, be)

		if err := be.Delete(ctx, "/a"); err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatal(err)
		}
		if _, err := be.Compact(ctx, 0.999); err != nil {
			t.Fatal(err)
		}
		if gc, err := gcStatsOf(ctx, be); err != nil || gc.LiveBytes != 0 {
			t.Fatalf("live bytes = %d (%v) after the final delete, want 0", gc.LiveBytes, err)
		}
	})
}

// TestDeleteAfterKillSingleCopy: on a single-copy deployment a killed
// node took its chunks' references with it, so every backup must still
// delete — the node's absence from the membership is skipped, not fatal
// — and the survivors compact to zero live bytes.
func TestDeleteAfterKillSingleCopy(t *testing.T) {
	eachBackend(t, 0, func(t *testing.T, be Backend) {
		ctx := context.Background()
		const files = 6
		for i := 0; i < files; i++ {
			name := fmt.Sprintf("/single/file%d", i)
			if err := be.Backup(ctx, name, bytes.NewReader(gcRandBytes(int64(800+i), 96<<10))); err != nil {
				t.Fatal(err)
			}
		}
		if err := be.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if err := be.KillNode(ctx, 1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < files; i++ {
			if err := be.Delete(ctx, fmt.Sprintf("/single/file%d", i)); err != nil {
				t.Fatalf("delete after the kill: %v", err)
			}
		}
		if _, err := be.Compact(ctx, 0.999); err != nil {
			t.Fatal(err)
		}
		if gc, err := gcStatsOf(ctx, be); err != nil || gc.LiveBytes != 0 {
			t.Fatalf("survivors hold %d live bytes (%v) after deleting every backup, want 0", gc.LiveBytes, err)
		}
		assertCatalogConsistent(t, be)
	})
}

// TestRebackupAfterRebalanceReleasesOnJoinedNode: a session opened
// before AddNode keeps routing within its epoch, but the generations it
// supersedes may have been rebalanced onto the node that joined since.
// Their references there must be released all the same — "not in my
// epoch" is not "left the cluster" — so the nodes end up holding exactly
// what the catalog implies and deleting everything leaves nothing alive.
func TestRebackupAfterRebalanceReleasesOnJoinedNode(t *testing.T) {
	eachBackend(t, 0, func(t *testing.T, be Backend) {
		ctx := context.Background()
		const files = 20
		sess, err := be.NewSession(ctx, WithSessionName("early"))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		for i := 0; i < files; i++ {
			if err := be.Backup(ctx, fmt.Sprintf("/f%d", i), bytes.NewReader(gcRandBytes(int64(900+i), 96<<10))); err != nil {
				t.Fatal(err)
			}
		}
		if err := be.Flush(ctx); err != nil {
			t.Fatal(err)
		}

		addr := ""
		if _, ok := be.(*Remote); ok {
			srv, err := StartServer(ServerConfig{ID: 3})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			addr = srv.Addr()
		}
		if _, err := be.AddNode(ctx, addr); err != nil {
			t.Fatal(err)
		}
		if res, err := be.Rebalance(ctx); err != nil || res.SuperChunks == 0 {
			t.Fatalf("rebalance moved %d segments (%v); the test needs data on the joined node", res.SuperChunks, err)
		}

		for i := 0; i < files; i++ {
			if err := sess.Backup(ctx, fmt.Sprintf("/f%d", i), bytes.NewReader(gcRandBytes(int64(950+i), 64<<10))); err != nil {
				t.Fatal(err)
			}
		}
		if err := sess.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		assertCatalogConsistent(t, be)

		for i := 0; i < files; i++ {
			if err := be.Delete(ctx, fmt.Sprintf("/f%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := be.Compact(ctx, 0.999); err != nil {
			t.Fatal(err)
		}
		if gc, err := gcStatsOf(ctx, be); err != nil || gc.LiveBytes != 0 {
			t.Fatalf("live bytes = %d (%v) after deleting every backup, want 0", gc.LiveBytes, err)
		}
	})
}
