package sigmadedupe

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func gcRandBytes(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// diskBytes sums the container file sizes under every node directory —
// the on-disk footprint the acceptance criterion is about.
func diskBytes(t *testing.T, dirs ...string) int64 {
	t.Helper()
	var total int64
	for _, d := range dirs {
		matches, err := filepath.Glob(filepath.Join(d, "container-*.bin"))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range matches {
			fi, err := os.Stat(m)
			if err != nil {
				t.Fatal(err)
			}
			total += fi.Size()
		}
	}
	return total
}

// TestDeleteCompactUnderConcurrentIngest is the retention acceptance
// exercise on the prototype path: a subset of backups is deleted and
// compaction runs while another client keeps ingesting. On-disk bytes
// must shrink by at least the dead-chunk share, and every surviving
// backup — old and newly ingested — must restore byte-identically.
func TestDeleteCompactUnderConcurrentIngest(t *testing.T) {
	const nodes = 2
	base := t.TempDir()
	nodeDirs := make([]string, nodes)
	servers := make([]*Server, nodes)
	addrs := make([]string, nodes)
	for i := range servers {
		nodeDirs[i] = filepath.Join(base, fmt.Sprintf("node%d", i))
		srv, err := StartServer(ServerConfig{ID: i, Dir: nodeDirs[i]})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		addrs[i] = srv.Addr()
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	dir, err := OpenDirectorAt(filepath.Join(base, "director"))
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	ctx := context.Background()

	// Generation 1: half the backups are doomed.
	surviving := map[string][]byte{}
	doomed := map[string][]byte{}
	var doomedBytes int64
	for i := 0; i < 4; i++ {
		surviving[fmt.Sprintf("/keep/%d", i)] = gcRandBytes(int64(700+i), 120<<10)
		d := gcRandBytes(int64(750+i), 120<<10)
		doomed[fmt.Sprintf("/doomed/%d", i)] = d
		doomedBytes += int64(len(d))
	}
	bc, err := NewRemote(ctx, RemoteConfig{Name: "gen1", SuperChunkSize: 32 << 10, Director: dir, Nodes: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	for path, data := range surviving {
		if err := bc.Backup(ctx, path, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	for path, data := range doomed {
		if err := bc.Backup(ctx, path, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	if err := bc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	diskBefore := diskBytes(t, nodeDirs...)

	// Delete the doomed half.
	for path := range doomed {
		if err := bc.Delete(ctx, path); err != nil {
			t.Fatalf("delete %s: %v", path, err)
		}
	}
	gc, err := bc.GCStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gc.DeadBytes < doomedBytes {
		t.Fatalf("DeadBytes after deletion = %d, want >= %d", gc.DeadBytes, doomedBytes)
	}

	// Generation 2 ingests concurrently with compaction passes.
	ingested := map[string][]byte{}
	var ingestedBytes int64
	for i := 0; i < 4; i++ {
		data := gcRandBytes(int64(800+i), 120<<10)
		ingested[fmt.Sprintf("/new/%d", i)] = data
		ingestedBytes += int64(len(data))
	}
	var (
		wg        sync.WaitGroup
		ingestErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		c2, err := bc.NewSession(ctx, WithSessionName("gen2"))
		if err != nil {
			ingestErr = err
			return
		}
		defer c2.Close()
		for path, data := range ingested {
			if err := c2.Backup(ctx, path, bytes.NewReader(data)); err != nil {
				ingestErr = fmt.Errorf("concurrent ingest %s: %w", path, err)
				return
			}
		}
		ingestErr = c2.Flush(ctx)
	}()
	var reclaimed int64
	for i := 0; i < 8; i++ {
		res, err := bc.Compact(ctx, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		reclaimed += res.ReclaimedBytes
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	if ingestErr != nil {
		t.Fatal(ingestErr)
	}
	// One final pass sweeps anything that died after the last scan.
	res, err := bc.Compact(ctx, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	reclaimed += res.ReclaimedBytes

	if reclaimed < doomedBytes {
		t.Fatalf("compaction reclaimed %d payload bytes, want >= %d (the dead share)", reclaimed, doomedBytes)
	}
	// On-disk accounting: without compaction the disk would hold
	// diskBefore + the new generation; it must have shrunk by at least
	// the dead share (a small allowance for container metadata framing
	// of the new generation).
	diskAfter := diskBytes(t, nodeDirs...)
	budget := diskBefore + ingestedBytes + ingestedBytes/50 - doomedBytes
	if diskAfter > budget {
		t.Fatalf("on-disk bytes = %d, want <= %d (before=%d ingested=%d deleted=%d)",
			diskAfter, budget, diskBefore, ingestedBytes, doomedBytes)
	}

	// Every surviving and newly ingested backup restores byte-identically.
	rc, err := NewRemote(ctx, RemoteConfig{Name: "verify", Director: dir, Nodes: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	check := func(all map[string][]byte) {
		t.Helper()
		for path, data := range all {
			var out bytes.Buffer
			if err := rc.Restore(ctx, path, &out); err != nil {
				t.Fatalf("restore %s: %v", path, err)
			}
			if !bytes.Equal(out.Bytes(), data) {
				t.Fatalf("%s corrupted after delete+compact under ingest", path)
			}
		}
	}
	check(surviving)
	check(ingested)
	for path := range doomed {
		var out bytes.Buffer
		if err := rc.Restore(ctx, path, &out); err == nil {
			t.Fatalf("deleted backup %s still restorable", path)
		}
	}
	if gc, err := rc.GCStats(ctx); err != nil || gc.RetiredContainers == 0 {
		t.Fatalf("GCStats = %+v, %v: compaction retired nothing", gc, err)
	}
}

// TestBackgroundCompactorReclaims: a server configured with CompactEvery
// reclaims deleted space on its own, without explicit Compact calls.
func TestBackgroundCompactorReclaims(t *testing.T) {
	base := t.TempDir()
	srv, err := StartServer(ServerConfig{
		ID:               0,
		Dir:              filepath.Join(base, "node0"),
		CompactEvery:     5 * time.Millisecond,
		CompactThreshold: 0.95,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	bc, err := NewRemote(ctx, RemoteConfig{Name: "bg", SuperChunkSize: 32 << 10, Director: NewDirector(), Nodes: []string{srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	keep := gcRandBytes(840, 100<<10)
	drop := gcRandBytes(841, 100<<10)
	if err := bc.Backup(ctx, "/keep", bytes.NewReader(keep)); err != nil {
		t.Fatal(err)
	}
	if err := bc.Backup(ctx, "/drop", bytes.NewReader(drop)); err != nil {
		t.Fatal(err)
	}
	if err := bc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	before := srv.StorageUsage()
	if err := bc.Delete(ctx, "/drop"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.StorageUsage() > before-int64(len(drop)) {
		if time.Now().After(deadline) {
			t.Fatalf("background compactor never reclaimed: usage %d, want <= %d",
				srv.StorageUsage(), before-int64(len(drop)))
		}
		time.Sleep(10 * time.Millisecond)
	}
	var out bytes.Buffer
	if err := bc.Restore(ctx, "/keep", &out); err != nil || !bytes.Equal(out.Bytes(), keep) {
		t.Fatalf("survivor lost to background compaction: %v", err)
	}
}

// TestSimulatorDeleteAndCompact exercises the deletion path through the
// simulated-cluster facade: recipe-tracked backups, Delete, Compact,
// GCStats.
func TestSimulatorDeleteAndCompact(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 3, KeepPayloads: true, SuperChunkSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var doomedBytes int64
	for i := 0; i < 6; i++ {
		data := gcRandBytes(int64(860+i), 100<<10)
		if err := c.Backup(context.Background(), fmt.Sprintf("file%d", i), bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			doomedBytes += int64(len(data))
		}
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := c.SimStats().PhysicalBytes
	for i := 1; i < 6; i += 2 {
		if err := c.Delete(context.Background(), fmt.Sprintf("file%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if gc := c.GCStats(); gc.DeadBytes < doomedBytes {
		t.Fatalf("DeadBytes = %d, want >= %d", gc.DeadBytes, doomedBytes)
	}
	// 0.999, the crash-fidelity tests' threshold: how the doomed chunks
	// spread over containers is placement, which is timing-dependent, and a
	// container left only a few percent dead must be rewritten all the same.
	res, err := c.Compact(context.Background(), 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReclaimedBytes < doomedBytes {
		t.Fatalf("reclaimed %d, want >= %d", res.ReclaimedBytes, doomedBytes)
	}
	if got := c.SimStats().PhysicalBytes; got > before-doomedBytes {
		t.Fatalf("physical bytes after compaction = %d, want <= %d", got, before-doomedBytes)
	}
	if err := c.Delete(context.Background(), "file1"); err == nil {
		t.Fatal("double delete must fail")
	}
	if err := c.Delete(context.Background(), "never-backed-up"); err == nil {
		t.Fatal("deleting an unknown backup must fail")
	}
}
