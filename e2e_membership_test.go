package sigmadedupe

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sigmadedupe/internal/migrate"
)

// runMembershipScenario drives one elastic-cluster lifecycle through
// the Backend interface: backup a generation, AddNode, backup another,
// Rebalance onto the new node, RemoveNode an original member — and
// after every step all backups restore byte-identically. The same
// function runs unmodified against the simulator and the TCP
// prototype; addAddr supplies the next joining node's address ("" on
// the simulator).
func runMembershipScenario(t *testing.T, be Backend, nodes int, addAddr func() string) {
	t.Helper()
	ctx := context.Background()
	content := make(map[string][]byte)
	backupGen := func(gen, files int) {
		t.Helper()
		for i := 0; i < files; i++ {
			rng := rand.New(rand.NewSource(int64(gen*1000 + i)))
			data := make([]byte, 96<<10+i*7000)
			rng.Read(data)
			name := fmt.Sprintf("/gen%d/file%d", gen, i)
			content[name] = data
			if err := be.Backup(ctx, name, bytes.NewReader(data)); err != nil {
				t.Fatalf("backup %s: %v", name, err)
			}
		}
		if err := be.Flush(ctx); err != nil {
			t.Fatal(err)
		}
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

	backupGen(1, 4)
	restoreAll("before any membership change")

	// Grow the cluster by one node.
	id, err := be.AddNode(ctx, addAddr())
	if err != nil {
		t.Fatal(err)
	}
	if id != nodes {
		t.Fatalf("new node ID = %d, want %d", id, nodes)
	}
	st, err := be.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != nodes+1 {
		t.Fatalf("Nodes after AddNode = %d, want %d", st.Nodes, nodes+1)
	}
	restoreAll("after AddNode")

	// A second generation lands on the grown cluster; then existing data
	// spreads onto the empty node.
	backupGen(2, 4)
	restoreAll("after post-join backups")
	if _, err := be.Rebalance(ctx); err != nil {
		t.Fatal(err)
	}
	restoreAll("after Rebalance")

	// An ID outside the membership is refused with a typed error by both
	// verbs, on both constructors.
	if _, err := be.RemoveNode(ctx, 99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("RemoveNode of an unknown node = %v, want ErrNotFound", err)
	}
	if err := be.KillNode(ctx, 99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("KillNode of an unknown node = %v, want ErrNotFound", err)
	}

	// Shrink: drain an original member. Everything must survive on the
	// remaining nodes.
	res, err := be.RemoveNode(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.SuperChunks == 0 && res.Bytes == 0 {
		// Node 1 held a share of two generations across a small cluster;
		// an empty drain would mean the migration never ran.
		t.Fatalf("RemoveNode moved nothing: %+v", res)
	}
	st, err = be.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != nodes {
		t.Fatalf("Nodes after RemoveNode = %d, want %d", st.Nodes, nodes)
	}
	restoreAll("after RemoveNode")
	assertCatalogConsistent(t, be)

	// Zero leaked references end to end: delete everything, compact,
	// nothing stays live.
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
		t.Fatalf("live bytes = %d after deleting every backup; membership changes leaked references", gc.LiveBytes)
	}
}

// TestRebalanceUnderIngest is the elastic cycle on both backends: a
// generation lands on three nodes, a fourth joins, and Rebalance spreads
// existing super-chunks onto it while a session ingests a second
// generation. Where a super-chunk lands depends on how its bids race the
// migration, so only placement-independent outcomes are asserted: both
// calls succeed, the pass moved something, every backup of both
// generations restores byte-identically, and the nodes hold exactly what
// the catalog implies.
func TestRebalanceUnderIngest(t *testing.T) {
	eachBackend(t, 0, func(t *testing.T, be Backend) {
		ctx := context.Background()
		const files, size = 8, 128 << 10
		// The second generation is the first with one 4 KB block per file
		// rewritten, a nightly incremental: what it adds to the joined node
		// before Rebalance reads the usage it balances against is a few
		// blocks, however far the ingest it races has got, so the node is
		// still the underloaded one it joined as.
		content := make(map[string][]byte)
		for i := 0; i < files; i++ {
			gen1 := gcRandBytes(int64(4100+i), size)
			gen2 := append([]byte(nil), gen1...)
			copy(gen2[(i%4)*32<<10:], gcRandBytes(int64(4200+i), 4<<10))
			content[fmt.Sprintf("/gen1/file%d", i)] = gen1
			content[fmt.Sprintf("/gen2/file%d", i)] = gen2
		}
		for i := 0; i < files; i++ {
			name := fmt.Sprintf("/gen1/file%d", i)
			if err := be.Backup(ctx, name, bytes.NewReader(content[name])); err != nil {
				t.Fatal(err)
			}
		}
		if err := be.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := be.AddNode(ctx, joinAddr(t, be, 3)); err != nil {
			t.Fatal(err)
		}

		sess, err := be.NewSession(ctx, WithSessionName("gen2"))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		type outcome struct {
			res MigrationResult
			err error
		}
		rebalanced := make(chan outcome, 1)
		go func() {
			res, err := be.Rebalance(ctx)
			rebalanced <- outcome{res, err}
		}()
		var ingestErr error
		for i := 0; i < files && ingestErr == nil; i++ {
			name := fmt.Sprintf("/gen2/file%d", i)
			ingestErr = sess.Backup(ctx, name, bytes.NewReader(content[name]))
		}
		if ingestErr == nil {
			ingestErr = sess.Flush(ctx)
		}
		mig := <-rebalanced
		if ingestErr != nil {
			t.Fatalf("ingest during Rebalance: %v", ingestErr)
		}
		if mig.err != nil {
			t.Fatalf("Rebalance during ingest: %v", mig.err)
		}
		if mig.res.SuperChunks == 0 {
			t.Fatalf("Rebalance onto an empty node moved nothing: %+v", mig.res)
		}
		if err := be.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		for name, data := range content {
			mustRestore(t, be, name, data)
		}
		assertCatalogConsistent(t, be)
	})
}

// gcStatsOf reads GCStats from either backend implementation.
func gcStatsOf(ctx context.Context, be Backend) (GCStats, error) {
	switch b := be.(type) {
	case *Cluster:
		return b.GCStats(), nil
	case *Remote:
		return b.GCStats(ctx)
	}
	return GCStats{}, fmt.Errorf("unknown backend %T", be)
}

// TestBackendMembershipScenarioSimulator runs the elastic-membership
// scenario on the in-process simulator.
func TestBackendMembershipScenarioSimulator(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 3, KeepPayloads: true, SuperChunkSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	runMembershipScenario(t, c, 3, func() string { return "" })
}

// TestBackendMembershipScenarioRemote runs the identical scenario on
// the TCP prototype: real servers join and leave the cluster, with the
// director journaling every epoch and migration.
func TestBackendMembershipScenarioRemote(t *testing.T) {
	addrs := startServers(t, 3)
	next := 3
	be, err := NewRemote(context.Background(), RemoteConfig{
		Name:           "elastic",
		Director:       NewDirector(),
		Nodes:          addrs,
		SuperChunkSize: 32 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	runMembershipScenario(t, be, 3, func() string {
		srv, err := StartServer(ServerConfig{ID: next})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		next++
		return srv.Addr()
	})
}

// TestMigrationCrashFidelity is the crash matrix of the migration
// commit protocol: a durable simulated cluster is killed at every
// migration stage, restarted from disk, recovered, and the removal
// retried — every backup must restore byte-identically and the
// reference counts must reconcile to zero leaks.
func TestMigrationCrashFidelity(t *testing.T) {
	ctx := context.Background()
	for _, stage := range []migrate.Stage{
		migrate.StageRead, migrate.StageStored, migrate.StageCommitted,
		migrate.StageUpdated, migrate.StageDecreffed,
	} {
		stage := stage
		t.Run(string(stage), func(t *testing.T) {
			c, err := NewCluster(ClusterConfig{
				Nodes: 3, KeepPayloads: true, SuperChunkSize: 32 << 10, Dir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			content := make(map[string][]byte)
			for i := 0; i < 6; i++ {
				rng := rand.New(rand.NewSource(int64(40 + i)))
				data := make([]byte, 80<<10)
				rng.Read(data)
				name := fmt.Sprintf("/crash/file%d", i)
				content[name] = data
				if err := c.Backup(ctx, name, bytes.NewReader(data)); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Flush(ctx); err != nil {
				t.Fatal(err)
			}

			// Kill the migration at this stage.
			boom := fmt.Errorf("injected crash at %s", stage)
			c.setMigrateFault(func(s migrate.Stage, _ string) error {
				if s == stage {
					return boom
				}
				return nil
			})
			if _, err := c.RemoveNode(ctx, 2); err == nil {
				t.Fatal("fault did not abort the removal")
			}
			c.setMigrateFault(nil)

			// "Restart the cluster": every node stops and re-opens from its
			// durable directory, refcounts replaying from the manifests.
			if err := c.Restart(); err != nil {
				t.Fatal(err)
			}
			// Recovery reconciles the half-done transaction, then the
			// removal reruns to completion.
			if err := c.RecoverMigrations(); err != nil {
				t.Fatal(err)
			}
			if _, err := c.RemoveNode(ctx, 2); err != nil {
				t.Fatalf("retry after crash at %s: %v", stage, err)
			}

			for name, data := range content {
				var out bytes.Buffer
				if err := c.Restore(ctx, name, &out); err != nil {
					t.Fatalf("restore %s after crash at %s: %v", name, stage, err)
				}
				if !bytes.Equal(out.Bytes(), data) {
					t.Fatalf("%s corrupted across crash at %s", name, stage)
				}
			}
			for name := range content {
				if err := c.Delete(ctx, name); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := c.Compact(ctx, 0.999); err != nil {
				t.Fatal(err)
			}
			if gc := c.GCStats(); gc.LiveBytes != 0 {
				t.Fatalf("crash at %s leaked %d live bytes", stage, gc.LiveBytes)
			}
		})
	}
}

// TestRemoteMigrationFaultRecovers exercises the journaled commit
// protocol over TCP: a Rebalance aborted mid-flight leaves its
// transaction in the director's MEMBERS journal, RecoverMigrations
// reconciles the stranded references over the wire, and a rerun
// converges with zero leaks.
func TestRemoteMigrationFaultRecovers(t *testing.T) {
	ctx := context.Background()
	addrs := startServers(t, 2)
	be, err := NewRemote(ctx, RemoteConfig{
		Name:           "crash",
		Director:       NewDirector(),
		Nodes:          addrs,
		SuperChunkSize: 32 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()

	content := make(map[string][]byte)
	for i := 0; i < 6; i++ {
		rng := rand.New(rand.NewSource(int64(70 + i)))
		data := make([]byte, 80<<10)
		rng.Read(data)
		name := fmt.Sprintf("/rc/file%d", i)
		content[name] = data
		if err := be.Backup(ctx, name, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	if err := be.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	srv, err := StartServer(ServerConfig{ID: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if _, err := be.AddNode(ctx, srv.Addr()); err != nil {
		t.Fatal(err)
	}

	boom := fmt.Errorf("injected crash")
	be.setMigrateFault(func(s migrate.Stage, _ string) error {
		if s == migrate.StageCommitted {
			return boom
		}
		return nil
	})
	if _, err := be.Rebalance(ctx); err == nil {
		t.Fatal("fault did not abort the rebalance")
	}
	be.setMigrateFault(nil)

	if err := be.RecoverMigrations(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := be.Rebalance(ctx); err != nil {
		t.Fatalf("rebalance after recovery: %v", err)
	}
	for name, data := range content {
		var out bytes.Buffer
		if err := be.Restore(ctx, name, &out); err != nil {
			t.Fatalf("restore %s: %v", name, err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("%s corrupted across aborted rebalance", name)
		}
	}
	for name := range content {
		if err := be.Delete(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := be.Compact(ctx, 0.999); err != nil {
		t.Fatal(err)
	}
	gc, err := be.GCStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gc.LiveBytes != 0 {
		t.Fatalf("aborted rebalance leaked %d live bytes", gc.LiveBytes)
	}
}

// TestStatsRaceWithTopologyChange is the regression test for the node
// registry, on both constructors: Stats and GCStats iterate one
// immutable snapshot, so hammering them while nodes join must be
// race-free (run under -race) and observe only whole epochs.
func TestStatsRaceWithTopologyChange(t *testing.T) {
	eachBackend(t, 0, func(t *testing.T, be Backend) {
		ctx := context.Background()
		if err := be.Backup(ctx, "/race/seed", bytes.NewReader(bytes.Repeat([]byte("r"), 64<<10))); err != nil {
			t.Fatal(err)
		}
		if err := be.Flush(ctx); err != nil {
			t.Fatal(err)
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					st, err := be.Stats(ctx)
					if err != nil {
						errs <- err
						return
					}
					if st.Nodes < 3 || st.Nodes > 6 {
						errs <- fmt.Errorf("torn epoch: Nodes = %d", st.Nodes)
						return
					}
					if _, err := gcStatsOf(ctx, be); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		for i := 0; i < 3; i++ {
			if _, err := be.AddNode(ctx, joinAddr(t, be, 3+i)); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		wg.Wait()
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
	})
}

// joinAddr is the address AddNode takes for the next node of be: a fresh
// server's on the prototype, empty on the simulator.
func joinAddr(t *testing.T, be Backend, id int) string {
	t.Helper()
	if _, ok := be.(*Remote); !ok {
		return ""
	}
	srv, err := StartServer(ServerConfig{ID: id})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}
