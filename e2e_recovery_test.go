package sigmadedupe

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"sigmadedupe/internal/container"
	"sigmadedupe/internal/store"
)

// TestClusterCrashRestartRecovery is the end-to-end durability exercise:
// several concurrent backup streams write multi-chunk files to a
// disk-backed server cluster, every node is torn down, the cluster is
// re-opened from its durable directories via store recovery, and every
// file must restore byte-identically through a fresh client. Finally a
// container file is corrupted on disk and the re-open must fail loudly
// with a CRC error instead of silently restoring bad data. Run under
// -race this doubles as the concurrency audit of the sharded store path.
func TestClusterCrashRestartRecovery(t *testing.T) {
	const (
		nodes   = 2
		streams = 3
		files   = 3
	)
	base := t.TempDir()
	nodeDir := func(i int) string { return filepath.Join(base, fmt.Sprintf("node%d", i)) }

	start := func(recover bool) []*Server {
		t.Helper()
		servers := make([]*Server, nodes)
		for i := range servers {
			srv, err := StartServer(ServerConfig{ID: i, Dir: nodeDir(i), Recover: recover})
			if err != nil {
				t.Fatalf("start node %d (recover=%v): %v", i, recover, err)
			}
			servers[i] = srv
		}
		return servers
	}
	addrsOf := func(servers []*Server) []string {
		out := make([]string, len(servers))
		for i, s := range servers {
			out[i] = s.Addr()
		}
		return out
	}
	stop := func(servers []*Server) {
		t.Helper()
		for _, s := range servers {
			if err := s.Close(); err != nil {
				t.Fatalf("close server: %v", err)
			}
		}
	}

	// Per-stream files; the last file duplicates the first so dedup state
	// is exercised across the restart too.
	content := make([][][]byte, streams)
	for s := range content {
		rng := rand.New(rand.NewSource(int64(500 + s)))
		content[s] = make([][]byte, files)
		for f := range content[s] {
			if f == files-1 {
				content[s][f] = content[s][0]
				continue
			}
			data := make([]byte, 100<<10+f*9000)
			rng.Read(data)
			content[s][f] = data
		}
	}

	ctx := context.Background()
	servers := start(false)
	dir := NewDirector()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	be, err := NewRemote(ctx, RemoteConfig{Name: "streams", Director: dir, Nodes: addrsOf(servers), SuperChunkSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			bc, err := be.NewSession(ctx, WithSessionName(fmt.Sprintf("stream%d", s)),
				WithWorkers(2), WithInflightSuperChunks(2))
			if err != nil {
				fail(err)
				return
			}
			defer bc.Close()
			for f, data := range content[s] {
				path := fmt.Sprintf("/stream%d/file%d", s, f)
				if err := bc.Backup(ctx, path, bytes.NewReader(data)); err != nil {
					fail(fmt.Errorf("backup %s: %w", path, err))
					return
				}
			}
			if err := bc.Flush(ctx); err != nil {
				fail(fmt.Errorf("flush stream %d: %w", s, err))
			}
		}(s)
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}

	var wantPhysical int64
	for _, s := range servers {
		wantPhysical += s.StorageUsage()
	}

	// Tear every node down, then bring the cluster back from disk.
	stop(servers)
	servers = start(true)

	var gotPhysical int64
	for _, s := range servers {
		gotPhysical += s.StorageUsage()
	}
	if gotPhysical != wantPhysical {
		t.Fatalf("recovered physical bytes = %d, want %d", gotPhysical, wantPhysical)
	}

	rc, err := NewRemote(ctx, RemoteConfig{Name: "restorer", Director: dir, Nodes: addrsOf(servers)})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < streams; s++ {
		for f, data := range content[s] {
			path := fmt.Sprintf("/stream%d/file%d", s, f)
			var out bytes.Buffer
			if err := rc.Restore(ctx, path, &out); err != nil {
				t.Fatalf("restore %s after restart: %v", path, err)
			}
			if !bytes.Equal(out.Bytes(), data) {
				t.Fatalf("%s corrupted across restart: got %d bytes, want %d", path, out.Len(), len(data))
			}
		}
	}
	rc.Close()
	stop(servers)

	// Corruption: flip one byte in a sealed container file. Re-opening
	// that node must fail with a CRC error, not restore silently.
	var victim string
	var victimNode int
	for i := 0; i < nodes; i++ {
		matches, err := filepath.Glob(filepath.Join(nodeDir(i), "container-*.bin"))
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) > 0 {
			victim, victimNode = matches[0], i
			break
		}
	}
	if victim == "" {
		t.Fatal("no container files on disk")
	}
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = StartServer(ServerConfig{ID: victimNode, Dir: nodeDir(victimNode), Recover: true})
	if !errors.Is(err, container.ErrCorrupt) {
		t.Fatalf("recovery of corrupted node: err = %v, want wrapped container.ErrCorrupt", err)
	}
}

// TestCompactionCrashFidelity is the compaction crash-fidelity exercise:
// backups are deleted, then a crash is injected at every stage of the
// container rewrite — including between "new container sealed" and "old
// container retired" — the store directories are reopened, and every
// surviving backup must restore byte-identically through a fresh client.
// After a final (non-faulted) compaction the space of the deleted
// backups must actually be gone.
func TestCompactionCrashFidelity(t *testing.T) {
	const nodes = 2
	base := t.TempDir()
	nodeDir := func(i int) string { return filepath.Join(base, fmt.Sprintf("node%d", i)) }

	start := func(recover bool) []*Server {
		t.Helper()
		servers := make([]*Server, nodes)
		for i := range servers {
			srv, err := StartServer(ServerConfig{ID: i, Dir: nodeDir(i), Recover: recover})
			if err != nil {
				t.Fatalf("start node %d (recover=%v): %v", i, recover, err)
			}
			servers[i] = srv
		}
		return servers
	}
	addrsOf := func(servers []*Server) []string {
		out := make([]string, len(servers))
		for i, s := range servers {
			out[i] = s.Addr()
		}
		return out
	}

	ctx := context.Background()
	// Durable director: the recipe catalog must survive the crashes too.
	dir, err := OpenDirectorAt(filepath.Join(base, "director"))
	if err != nil {
		t.Fatal(err)
	}

	servers := start(false)
	mkData := func(seed int64, n int) []byte {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	surviving := map[string][]byte{
		"/keep/a": mkData(900, 200<<10),
		"/keep/b": mkData(901, 150<<10),
	}
	doomed := map[string][]byte{
		"/doomed/x": mkData(910, 200<<10),
		"/doomed/y": mkData(911, 150<<10),
	}
	// Duplicate of a survivor: shared chunks must keep their references
	// when the doomed originals go.
	surviving["/keep/a-again"] = surviving["/keep/a"]

	bc, err := NewRemote(ctx, RemoteConfig{Name: "w", SuperChunkSize: 32 << 10, Director: dir, Nodes: addrsOf(servers)})
	if err != nil {
		t.Fatal(err)
	}
	for path, data := range surviving {
		if err := bc.Backup(ctx, path, bytes.NewReader(data)); err != nil {
			t.Fatalf("backup %s: %v", path, err)
		}
	}
	for path, data := range doomed {
		if err := bc.Backup(ctx, path, bytes.NewReader(data)); err != nil {
			t.Fatalf("backup %s: %v", path, err)
		}
	}
	if err := bc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	usageFull := servers[0].StorageUsage() + servers[1].StorageUsage()
	for path := range doomed {
		if err := bc.Delete(ctx, path); err != nil {
			t.Fatalf("delete %s: %v", path, err)
		}
	}
	bc.Close()

	// Crash the cluster at every compaction stage in turn. StageSealed and
	// StageIndexed are the satellite case — between "new container sealed"
	// and "old container retired".
	boom := errors.New("injected compaction crash")
	for _, stage := range []store.CompactStage{
		store.StageCopied, store.StageSealed, store.StageIndexed, store.StageRetired,
	} {
		for i, s := range servers {
			s.inner.Node().SetCompactFault(func(st store.CompactStage, cid uint64) error {
				if st == stage {
					return boom
				}
				return nil
			})
			if _, err := s.Compact(ctx, 0.99); err == nil {
				// Nothing below the threshold on this node is possible for
				// later stages after earlier partial passes; only fail the
				// test if no node ever faulted.
				continue
			} else if !errors.Is(err, boom) {
				t.Fatalf("stage %s node %d: compaction error = %v, want injected crash", stage, i, err)
			}
		}
		// "Crash": tear down only the RPC front ends, abandoning the nodes
		// without Flush/Close, then recover from the manifests.
		for _, s := range servers {
			if err := s.inner.Close(); err != nil {
				t.Fatal(err)
			}
		}
		servers = start(true)

		rc, err := NewRemote(ctx, RemoteConfig{Name: "verify-" + string(stage), Director: dir, Nodes: addrsOf(servers)})
		if err != nil {
			t.Fatal(err)
		}
		for path, data := range surviving {
			var out bytes.Buffer
			if err := rc.Restore(ctx, path, &out); err != nil {
				t.Fatalf("crash at %s: restore %s: %v", stage, path, err)
			}
			if !bytes.Equal(out.Bytes(), data) {
				t.Fatalf("crash at %s: %s corrupted (%d bytes, want %d)", stage, path, out.Len(), len(data))
			}
		}
		// The deleted backups stay deleted.
		for path := range doomed {
			var out bytes.Buffer
			if err := rc.Restore(ctx, path, &out); err == nil {
				t.Fatalf("crash at %s: deleted backup %s restored", stage, path)
			}
		}
		rc.Close()
	}

	// Convergence: a clean compaction pass reclaims the doomed space.
	for _, s := range servers {
		s.inner.Node().SetCompactFault(nil)
		if _, err := s.Compact(ctx, 0.99); err != nil {
			t.Fatal(err)
		}
	}
	usageAfter := servers[0].StorageUsage() + servers[1].StorageUsage()
	var doomedBytes int64
	for _, d := range doomed {
		doomedBytes += int64(len(d))
	}
	if reclaimed := usageFull - usageAfter; reclaimed < doomedBytes {
		t.Fatalf("reclaimed %d bytes after convergence, want >= %d (the deleted share)", reclaimed, doomedBytes)
	}
	rc, err := NewRemote(ctx, RemoteConfig{Name: "final", Director: dir, Nodes: addrsOf(servers)})
	if err != nil {
		t.Fatal(err)
	}
	for path, data := range surviving {
		var out bytes.Buffer
		if err := rc.Restore(ctx, path, &out); err != nil || !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("final: %s lost after converged compaction: %v", path, err)
		}
	}
	rc.Close()
	for _, s := range servers {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := dir.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterRestartPreservesDedupState bounces every node of a durable
// simulator and backs the same dataset up again. The restarted cluster
// must end with exactly the physical bytes and usage vector of a control
// cluster that never restarted: recovery rebuilt the chunk indexes,
// similarity indexes and usage faithfully enough that routing and dedup
// verdicts are indistinguishable from uninterrupted operation. One session
// with one super-chunk in flight keeps placement deterministic.
func TestClusterRestartPreservesDedupState(t *testing.T) {
	ctx := context.Background()
	type file struct {
		name string
		data []byte
	}
	var files []file
	if err := WorkloadFiles("linux", 0.1, 0, func(name string, data []byte) error {
		files = append(files, file{name, data})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	backupAll := func(c *Cluster, prefix string) {
		t.Helper()
		s, err := c.NewSession(ctx, WithInflightSuperChunks(1))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for _, f := range files {
			if err := s.Backup(ctx, prefix+f.name, bytes.NewReader(f.data)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	usage := func(c *Cluster) []int64 {
		t.Helper()
		u, err := c.usage(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return u
	}

	control, err := NewCluster(ClusterConfig{Nodes: 3, KeepPayloads: true})
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	backupAll(control, "/1")
	backupAll(control, "/2")

	c, err := NewCluster(ClusterConfig{Nodes: 3, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	backupAll(c, "/1")
	before := usage(c)
	if slices.Max(before) == 0 {
		t.Fatal("nothing stored")
	}
	if err := c.Restart(); err != nil {
		t.Fatal(err)
	}
	if got := usage(c); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Fatalf("usage after restart = %v, want %v", got, before)
	}
	backupAll(c, "/2")
	if got, want := usage(c), usage(control); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("restarted cluster usage %v, control (no restart) %v", got, want)
	}
}

// TestRestartNodeRequiresDir: bouncing a RAM-only node is rejected, and
// so is a node that is not a member.
func TestRestartNodeRequiresDir(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RestartNode(0); err == nil {
		t.Fatal("RestartNode without a durable dir should fail")
	}
	if err := c.RestartNode(5); !errors.Is(err, ErrNotFound) {
		t.Fatalf("RestartNode of a non-member = %v, want ErrNotFound", err)
	}
}
