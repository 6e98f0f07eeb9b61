package sigmadedupe

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentStreamsRoundTrip is the end-to-end exercise of the
// concurrent ingest engine: several backup sessions (one per stream, as in
// the paper — every stream owns its own pipeline) back up overlapping
// generations of files against the same server cluster and director
// concurrently, with multi-chunk files, in-flight super-chunk windows and
// fingerprint worker pools all active. Every file must restore
// byte-identically and the cluster-wide counters must balance. Run under
// -race this doubles as the concurrency audit of the client, rpc, node
// and director layers.
func TestConcurrentStreamsRoundTrip(t *testing.T) {
	const (
		nodes   = 3
		streams = 4
		files   = 5
	)
	servers := make([]*Server, nodes)
	addrs := make([]string, nodes)
	for i := range servers {
		srv, err := StartServer(ServerConfig{ID: i})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		servers[i] = srv
		addrs[i] = srv.Addr()
	}
	ctx := context.Background()
	dir := NewDirector()
	be, err := NewRemote(ctx, RemoteConfig{Name: "streams", Director: dir, Nodes: addrs, SuperChunkSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()

	// Content: per-stream files, where half of each stream's later files
	// duplicate earlier content so source dedup and the query/store
	// overlap race both get exercised.
	content := make([][][]byte, streams)
	for s := range content {
		rng := rand.New(rand.NewSource(int64(100 + s)))
		content[s] = make([][]byte, files)
		for f := range content[s] {
			if f >= 3 {
				// Duplicate an earlier file of the same stream.
				content[s][f] = content[s][f-3]
				continue
			}
			data := make([]byte, 150<<10+f*7000)
			rng.Read(data)
			content[s][f] = data
		}
	}

	var (
		wg           sync.WaitGroup
		mu           sync.Mutex
		firstErr     error
		totalLogical int64
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			bc, err := be.NewSession(ctx, WithSessionName(fmt.Sprintf("stream%d", s)),
				WithWorkers(2), WithInflightSuperChunks(3))
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
				return
			}
			mu.Lock()
			totalLogical += bc.Stats().LogicalBytes
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	// Every file restores byte-identically — through a fresh backend, so
	// the recipes alone must suffice.
	rc, err := NewRemote(ctx, RemoteConfig{Name: "restorer", Director: dir, Nodes: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for s := 0; s < streams; s++ {
		for f, data := range content[s] {
			path := fmt.Sprintf("/stream%d/file%d", s, f)
			var out bytes.Buffer
			if err := rc.Restore(ctx, path, &out); err != nil {
				t.Fatalf("restore %s: %v", path, err)
			}
			if !bytes.Equal(out.Bytes(), data) {
				t.Fatalf("%s corrupted: got %d bytes, want %d", path, out.Len(), len(data))
			}
		}
	}

	// Counter consistency: every logical byte presented by a client was
	// accounted by exactly one node's store path, and something was
	// physically stored on the cluster.
	var nodeLogical, physical int64
	for _, srv := range servers {
		st := srv.inner.Node().Stats()
		nodeLogical += st.LogicalBytes
		physical += srv.StorageUsage()
	}
	var wantLogical int64
	for s := range content {
		for _, data := range content[s] {
			wantLogical += int64(len(data))
		}
	}
	if totalLogical != wantLogical {
		t.Fatalf("client logical bytes = %d, want %d", totalLogical, wantLogical)
	}
	if nodeLogical != wantLogical {
		t.Fatalf("node logical sum = %d, want %d (no chunks lost or double-counted)", nodeLogical, wantLogical)
	}
	if physical == 0 || physical > wantLogical {
		t.Fatalf("physical bytes %d out of range (0, %d]", physical, wantLogical)
	}
	if got := len(dir.Files()); got != streams*files {
		t.Fatalf("director recipes = %d, want %d", got, streams*files)
	}
}
