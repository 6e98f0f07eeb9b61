package sigmadedupe

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"testing"

	"sigmadedupe/internal/workload"
)

// TestAgedRestoreFidelity ages one backup image through generations of
// churn — with retention deletes and periodic compaction rearranging the
// containers underneath — then proves every surviving generation still
// restores byte-identical, both before and after a full cluster restart
// from disk. This is the end-to-end contract behind the restore-path
// machinery: batching, the read-region cache, and capping are allowed to
// reorder physical bytes, never logical ones.
func TestAgedRestoreFidelity(t *testing.T) {
	const (
		nodes        = 2
		generations  = 12
		retention    = 5
		compactEvery = 3
	)
	ctx := context.Background()
	base := t.TempDir()
	nodeDir := func(i int) string { return filepath.Join(base, fmt.Sprintf("node%d", i)) }
	genName := func(g int) string { return fmt.Sprintf("/aged/gen%02d", g) }

	start := func(recover bool) ([]*Server, []string) {
		t.Helper()
		servers := make([]*Server, nodes)
		addrs := make([]string, nodes)
		for i := range servers {
			srv, err := StartServer(ServerConfig{ID: i, Dir: nodeDir(i), Recover: recover})
			if err != nil {
				t.Fatalf("start node %d (recover=%v): %v", i, recover, err)
			}
			servers[i] = srv
			addrs[i] = srv.Addr()
		}
		return servers, addrs
	}
	stop := func(servers []*Server) {
		t.Helper()
		for _, s := range servers {
			if err := s.Close(); err != nil {
				t.Fatalf("close server: %v", err)
			}
		}
	}
	dir := NewDirector()
	connect := func(addrs []string) *Remote {
		t.Helper()
		be, err := NewRemote(ctx, RemoteConfig{
			Name:           "aged",
			Director:       dir,
			Nodes:          addrs,
			SuperChunkSize: 32 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		return be
	}
	verify := func(be *Remote, want map[int][]byte, when string) {
		t.Helper()
		for g := 0; g < generations; g++ {
			data, alive := want[g]
			var out bytes.Buffer
			err := be.Restore(ctx, genName(g), &out)
			if !alive {
				if err == nil {
					t.Fatalf("%s: deleted generation %d still restorable", when, g)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: restore generation %d: %v", when, g, err)
			}
			if !bytes.Equal(out.Bytes(), data) {
				t.Fatalf("%s: generation %d restored corrupt (%d bytes, want %d)",
					when, g, out.Len(), len(data))
			}
		}
	}

	servers, addrs := start(false)
	be := connect(addrs)

	aging := workload.NewAging(workload.AgingConfig{Seed: 11, Blocks: 512, ChurnPercent: 0.05})
	want := make(map[int][]byte) // surviving generation -> image bytes
	for g := 0; g < generations; g++ {
		it := aging.Next()
		data := workload.Materialize(it)
		if err := be.Backup(ctx, genName(g), bytes.NewReader(data)); err != nil {
			t.Fatalf("backup generation %d: %v", g, err)
		}
		if err := be.Flush(ctx); err != nil {
			t.Fatalf("flush generation %d: %v", g, err)
		}
		want[g] = data
		if old := g - retention; old >= 0 {
			if err := be.Delete(ctx, genName(old)); err != nil {
				t.Fatalf("delete generation %d: %v", old, err)
			}
			delete(want, old)
		}
		if (g+1)%compactEvery == 0 {
			if _, err := be.Compact(ctx, 0); err != nil {
				t.Fatalf("compact after generation %d: %v", g, err)
			}
		}
	}
	verify(be, want, "before restart")

	// Cold restart: every node recovers its containers and chunk index
	// from disk; the aged stream must restore bit-for-bit through fresh
	// connections.
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}
	stop(servers)
	servers, addrs = start(true)
	defer stop(servers)
	be = connect(addrs)
	defer be.Close()
	verify(be, want, "after restart")
}

// TestAgedRestoreReadAmplification runs the incremental-disk benchmark's
// shape — a 32MB image aged through 16 generations of 2% churn on four
// durable nodes with 2MB read caches — restarts the nodes cold, restores
// every generation, and requires the nodes to have read at most 1.25x
// the restored bytes from their container files. An aged recipe leaves
// dead chunks between the wanted ones; a batched read bridges only the
// small holes, so the dead bytes it pays for stay a fraction of what it
// writes (bridging 256KB holes read 1.4x here).
func TestAgedRestoreReadAmplification(t *testing.T) {
	const nodes, generations, imageBytes = 4, 16, 32 << 20
	ctx := context.Background()
	base := t.TempDir()
	start := func(recover bool) []*Server {
		t.Helper()
		servers := make([]*Server, nodes)
		for i := range servers {
			srv, err := StartServer(ServerConfig{ID: i, Dir: filepath.Join(base, fmt.Sprint(i)),
				Recover: recover, ReadCacheBytes: 2 << 20})
			if err != nil {
				t.Fatal(err)
			}
			servers[i] = srv
		}
		return servers
	}
	dir := NewDirector()
	connect := func(servers []*Server) *Remote {
		t.Helper()
		addrs := make([]string, len(servers))
		for i, s := range servers {
			addrs[i] = s.Addr()
		}
		be, err := NewRemote(ctx, RemoteConfig{Name: "aged", Director: dir, Nodes: addrs,
			Chunk: ChunkSpec{Method: ChunkFixed, Size: 4096}, Fingerprint: FingerprintSHA1})
		if err != nil {
			t.Fatal(err)
		}
		return be
	}
	closeAll := func(be *Remote, servers []*Server) {
		t.Helper()
		if err := be.Close(); err != nil {
			t.Fatal(err)
		}
		for _, s := range servers {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}

	servers := start(false)
	be := connect(servers)
	aging := workload.NewAging(workload.AgingConfig{Seed: 7, Blocks: imageBytes / workload.BlockSize, ChurnPercent: 0.02})
	digests := make([][sha256.Size]byte, generations)
	for g := range digests {
		image := workload.Materialize(aging.Next())
		digests[g] = sha256.Sum256(image)
		if err := be.Backup(ctx, fmt.Sprintf("/gen%02d", g), bytes.NewReader(image)); err != nil {
			t.Fatal(err)
		}
	}
	if err := be.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	closeAll(be, servers)

	servers = start(true)
	be = connect(servers)
	defer closeAll(be, servers)
	for g, want := range digests {
		h := sha256.New()
		if err := be.Restore(ctx, fmt.Sprintf("/gen%02d", g), h); err != nil {
			t.Fatal(err)
		}
		if [sha256.Size]byte(h.Sum(nil)) != want {
			t.Fatalf("generation %d restored corrupt", g)
		}
	}
	restored := generations * imageBytes // each digest matched its image's
	var read uint64
	for _, s := range servers {
		read += s.ReadCacheStats().ReadBytes
	}
	amp := float64(read) / float64(restored)
	t.Logf("read %d bytes from container files to restore %d: %.2fx", read, restored, amp)
	if amp > 1.25 {
		t.Fatalf("read amplification %.2fx, want at most 1.25x", amp)
	}
}
