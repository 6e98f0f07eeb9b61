package sigmadedupe

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// runKillScenario is the kill-a-node e2e, run unmodified against both
// backends and every choice of victim: back up with R=2 replication on
// (the catalog accounts for both copies as soon as the backups are
// flushed), hard-kill one node (no drain — its data is gone), restore
// every backup byte-identically through replica failover, repair back to
// R=2 (idempotently), and prove zero leaked references by deleting
// everything and compacting to zero live bytes. kill makes the victim
// actually dead before the membership drops it (closing the TCP server
// on the prototype; nothing on the simulator, where removal from the
// registry is death).
func runKillScenario(t *testing.T, be Backend, victim int, kill func()) {
	t.Helper()
	ctx := context.Background()
	failoverReads := func() int64 {
		t.Helper()
		st, err := be.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return st.FailoverReads
	}
	content := make(map[string][]byte)
	for i := 0; i < 6; i++ {
		rng := rand.New(rand.NewSource(int64(90 + i)))
		data := make([]byte, 96<<10+i*5000)
		rng.Read(data)
		name := fmt.Sprintf("/kill/file%d", i)
		content[name] = data
		if err := be.Backup(ctx, name, bytes.NewReader(data)); err != nil {
			t.Fatalf("backup %s: %v", name, err)
		}
	}
	if err := be.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	restoreAll := func(when string) {
		t.Helper()
		for name, data := range content {
			var out bytes.Buffer
			if err := be.Restore(ctx, name, &out); err != nil {
				t.Fatalf("restore %s %s: %v", name, when, err)
			}
			if !bytes.Equal(out.Bytes(), data) {
				t.Fatalf("%s corrupted %s: got %d bytes, want %d", name, when, out.Len(), len(data))
			}
		}
	}
	restoreAll("before the crash")
	assertCatalogConsistent(t, be)

	// The crash: the node dies hard, then the membership drops it.
	kill()
	if err := be.KillNode(ctx, victim); err != nil {
		t.Fatal(err)
	}
	st, err := be.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != 2 {
		t.Fatalf("Nodes after KillNode = %d, want 2", st.Nodes)
	}

	// Every backup restores byte-identically with a member permanently
	// dead — the reads of its primaries served by their replicas.
	restoreAll("with one node dead")
	if n := failoverReads(); n == 0 {
		t.Fatal("no failover reads despite a dead primary; restores did not exercise the replicas")
	}

	// Anti-entropy repair: promote the dead node's replicas to primary,
	// re-replicate everything back to R=2, release any strays.
	rep, err := be.Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PromotedChunks == 0 {
		t.Fatalf("Repair promoted nothing: %+v (the victim held primaries)", rep)
	}
	if rep.RereplicatedChunks == 0 {
		t.Fatalf("Repair re-replicated nothing: %+v (promoted chunks lost their replica)", rep)
	}
	// Idempotence: a second pass finds a fully replicated, fully
	// reconciled cluster and changes nothing.
	rep2, err := be.Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.PromotedChunks != 0 || rep2.RereplicatedChunks != 0 || rep2.ReleasedRefs != 0 {
		t.Fatalf("second Repair was not a no-op: %+v", rep2)
	}

	// After repair every primary is live again: restores stop failing
	// over.
	before := failoverReads()
	restoreAll("after repair")
	if n := failoverReads(); n != before {
		t.Fatalf("%d restores still failed over after repair; promotion incomplete", n-before)
	}
	assertCatalogConsistent(t, be)

	// Zero leaked references: deleting every backup releases primary and
	// replica refs alike, and compaction drives live bytes to zero.
	for name := range content {
		if err := be.Delete(ctx, name); err != nil {
			t.Fatalf("delete %s: %v", name, err)
		}
	}
	if _, err := be.Compact(ctx, 0.999); err != nil {
		t.Fatal(err)
	}
	gc, err := gcStatsOf(ctx, be)
	if err != nil {
		t.Fatal(err)
	}
	if gc.LiveBytes != 0 {
		t.Fatalf("live bytes = %d after deleting every backup; the crash leaked references", gc.LiveBytes)
	}
}

// eachVictim runs fn once per node of a 3-node cluster as the one to kill.
func eachVictim(t *testing.T, fn func(t *testing.T, victim int)) {
	for victim := 0; victim < 3; victim++ {
		t.Run(fmt.Sprintf("victim=%d", victim), func(t *testing.T) { fn(t, victim) })
	}
}

// TestKillNodeScenarioSimulator runs the kill-a-node e2e on the
// in-process simulator with R=2 replication.
func TestKillNodeScenarioSimulator(t *testing.T) {
	eachVictim(t, func(t *testing.T, victim int) {
		c, err := NewCluster(ClusterConfig{
			Nodes: 3, KeepPayloads: true, SuperChunkSize: 32 << 10, Replicas: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		runKillScenario(t, c, victim, func() {})
	})
}

// TestKillNodeScenarioRemote runs the identical scenario on the TCP
// prototype: the victim's server process closes first (its address is
// unreachable, exactly a crashed machine), then the membership drops it
// and restores fail over over the wire.
func TestKillNodeScenarioRemote(t *testing.T) {
	eachVictim(t, func(t *testing.T, victim int) {
		srvs := make([]*Server, 3)
		addrs := make([]string, 3)
		for i := range srvs {
			srv, err := StartServer(ServerConfig{ID: i})
			if err != nil {
				t.Fatal(err)
			}
			srvs[i] = srv
			addrs[i] = srv.Addr()
			if i != victim {
				t.Cleanup(func() { srv.Close() })
			}
		}
		be, err := NewRemote(context.Background(), RemoteConfig{
			Name:           "kill",
			Director:       NewDirector(),
			Nodes:          addrs,
			SuperChunkSize: 32 << 10,
			Replicas:       2,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer be.Close()
		runKillScenario(t, be, victim, func() {
			if err := srvs[victim].Close(); err != nil {
				t.Fatalf("killing server %d: %v", victim, err)
			}
		})
	})
}

// TestIdenticalReplicatedRebackupStoresNothing: at R=2 an unchanged
// re-backup stores no byte on either backend. Its super-chunks bid equally
// at the node holding the primary and at the one holding the replica;
// whichever wins, the other is the runner-up and takes the second copy, so
// no third node is written.
func TestIdenticalReplicatedRebackupStoresNothing(t *testing.T) {
	eachBackendOf(t, 4, 2, func(t *testing.T, be Backend) {
		ctx := context.Background()
		const items, size = 40, 96 << 10
		generation := func(prefix string) int64 {
			t.Helper()
			for i := 0; i < items; i++ {
				if err := be.Backup(ctx, fmt.Sprintf("%s/item%d", prefix, i), bytes.NewReader(gcRandBytes(int64(1200+i), size))); err != nil {
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
			return st.PhysicalBytes
		}
		if got := generation("/g0"); got != 2*items*size {
			t.Fatalf("physical bytes after the first generation = %d, want %d (two copies)", got, 2*items*size)
		}
		if got := generation("/g1"); got != 2*items*size {
			t.Fatalf("the identical re-backup stored %d new bytes (%.1f%% of its logical bytes)",
				got-2*items*size, 100*float64(got-2*items*size)/(items*size))
		}
		assertCatalogConsistent(t, be)
	})
}

// TestKillNodeDuringIngest hammers ingest on explicit sessions while a
// node dies mid-stream (run under -race). In-flight backups racing the
// death may fail — a session pinned to the pre-crash epoch can route to
// the dead node — but nothing may data-race, every backup that reported
// success must restore byte-identically through failover, and repair
// must still converge.
func TestKillNodeDuringIngest(t *testing.T) {
	ctx := context.Background()
	c, err := NewCluster(ClusterConfig{
		Nodes: 3, KeepPayloads: true, SuperChunkSize: 32 << 10, Replicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A completed pre-crash generation that must survive no matter what.
	seedData := make([]byte, 128<<10)
	rand.New(rand.NewSource(7)).Read(seedData)
	if err := c.Backup(ctx, "/ingest/seed", bytes.NewReader(seedData)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	var (
		mu        sync.Mutex
		completed = make(map[string][]byte)
	)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess, err := c.NewSession(ctx, WithSessionName(fmt.Sprintf("ingest%d", g)), WithSuperChunkSize(32<<10))
			if err != nil {
				t.Error(err)
				return
			}
			defer sess.Close()
			<-start
			for i := 0; i < 8; i++ {
				rng := rand.New(rand.NewSource(int64(g*100 + i)))
				data := make([]byte, 64<<10)
				rng.Read(data)
				name := fmt.Sprintf("/ingest/g%d-f%d", g, i)
				// A backup racing the node death may fail; that is the
				// crash semantics, not a bug. Only successes are held to
				// the restore contract.
				if err := sess.Backup(ctx, name, bytes.NewReader(data)); err != nil {
					continue
				}
				if err := sess.Flush(ctx); err != nil {
					continue
				}
				mu.Lock()
				completed[name] = data
				mu.Unlock()
			}
		}(g)
	}
	close(start)
	if err := c.KillNode(ctx, 2); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// Seal the survivors' open containers so restores can read them (the
	// per-session flush routes super-chunks; it does not seal nodes).
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	completed["/ingest/seed"] = seedData
	for name, data := range completed {
		var out bytes.Buffer
		if err := c.Restore(ctx, name, &out); err != nil {
			t.Fatalf("restore %s after mid-ingest kill: %v", name, err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("%s corrupted across mid-ingest kill", name)
		}
	}
	if _, err := c.Repair(ctx); err != nil {
		t.Fatalf("repair after mid-ingest kill: %v", err)
	}
	for name, data := range completed {
		var out bytes.Buffer
		if err := c.Restore(ctx, name, &out); err != nil {
			t.Fatalf("restore %s after repair: %v", name, err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("%s corrupted by repair", name)
		}
	}
}

// TestRepairSingleCopyDeploymentIsNoOp: Repair on an R=1 deployment of
// either kind has nothing to re-replicate — it must not quietly hand a
// single-copy cluster second copies (and double its physical bytes).
func TestRepairSingleCopyDeploymentIsNoOp(t *testing.T) {
	ctx := context.Background()
	sim, err := NewCluster(ClusterConfig{Nodes: 3, KeepPayloads: true, SuperChunkSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	remote, err := NewRemote(ctx, RemoteConfig{
		Name:           "r1",
		Director:       NewDirector(),
		Nodes:          startServers(t, 3),
		SuperChunkSize: 32 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	for _, tc := range []struct {
		name string
		be   Backend
	}{{"simulator", sim}, {"remote", remote}} {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 4; i++ {
				data := make([]byte, 96<<10)
				rand.New(rand.NewSource(int64(300 + i))).Read(data)
				if err := tc.be.Backup(ctx, fmt.Sprintf("/r1/file%d", i), bytes.NewReader(data)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tc.be.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			before, err := tc.be.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := tc.be.Repair(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if rep.RereplicatedChunks != 0 {
				t.Fatalf("Repair on an R=1 backend re-replicated %d chunks: %+v", rep.RereplicatedChunks, rep)
			}
			after, err := tc.be.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if after.PhysicalBytes != before.PhysicalBytes {
				t.Fatalf("Repair on an R=1 backend changed physical bytes %d -> %d", before.PhysicalBytes, after.PhysicalBytes)
			}
		})
	}
}
