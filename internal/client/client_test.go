package client

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sigmadedupe/internal/director"
	"sigmadedupe/internal/migrate"
	"sigmadedupe/internal/node"
	"sigmadedupe/internal/rpc"
	"sigmadedupe/internal/tenant"
)

// startCluster brings up n dedup servers on loopback and returns their
// addresses.
func startCluster(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		nd, err := node.New(node.Config{ID: i, KeepPayloads: true})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := rpc.NewServer(nd, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	return addrs
}

// restore reads a backup back through the shared restore scheduler over
// the session's connections (the client itself is ingest-only).
func restore(t testing.TB, c *Client, path string) []byte {
	t.Helper()
	var out bytes.Buffer
	if _, err := migrate.Restore(context.Background(), c.dir, c.node, c.key(path), DefaultInflightSuperChunks, &out); err != nil {
		t.Fatalf("restore %s: %v", path, err)
	}
	return out.Bytes()
}

func randBytes(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestBackupAndRestoreSingleNode(t *testing.T) {
	addrs := startCluster(t, 1)
	dir := director.New()
	c, err := New(context.Background(), Config{Name: "t"}, dir, DenseNodes(addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	content := randBytes(1, 300<<10)
	if err := c.BackupFile(context.Background(), "/data/a.bin", bytes.NewReader(content)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	out := restore(t, c, "/data/a.bin")
	if !bytes.Equal(out, content) {
		t.Fatal("restored content differs from backup")
	}
}

func TestSourceDedupSavesBandwidth(t *testing.T) {
	addrs := startCluster(t, 2)
	dir := director.New()
	// Small super-chunks so the first generation is fully stored before
	// the second generation's batched queries run.
	c, err := New(context.Background(), Config{Name: "t", SuperChunkSize: 32 << 10}, dir, DenseNodes(addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	content := randBytes(2, 512<<10)
	if err := c.BackupFile(context.Background(), "/gen1", bytes.NewReader(content)); err != nil {
		t.Fatal(err)
	}
	// Second generation: identical content under a new path. The batched
	// query must stop nearly every payload from crossing the wire.
	if err := c.BackupFile(context.Background(), "/gen2", bytes.NewReader(content)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.LogicalBytes != 1<<20 {
		t.Fatalf("logical = %d, want 1MiB", st.LogicalBytes)
	}
	if st.BandwidthSaving() < 0.45 {
		t.Fatalf("bandwidth saving = %.2f, want >= 0.45 (second copy dedups)", st.BandwidthSaving())
	}
	out := restore(t, c, "/gen2")
	if !bytes.Equal(out, content) {
		t.Fatal("deduplicated restore corrupted")
	}
}

func TestMultiFileMultiNodeRoundTrip(t *testing.T) {
	addrs := startCluster(t, 4)
	dir := director.New()
	c, err := New(context.Background(), Config{Name: "t", SuperChunkSize: 64 << 10}, dir, DenseNodes(addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	files := map[string][]byte{}
	for i := 0; i < 10; i++ {
		path := fmt.Sprintf("/tree/file%02d", i)
		files[path] = randBytes(int64(10+i), 40<<10+i*1000)
	}
	for path, content := range files {
		if err := c.BackupFile(context.Background(), path, bytes.NewReader(content)); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	for path, content := range files {
		out := restore(t, c, path)
		if !bytes.Equal(out, content) {
			t.Fatalf("%s corrupted through multi-node cycle", path)
		}
	}
	if got := len(dir.Files()); got != 10 {
		t.Fatalf("director has %d recipes, want 10", got)
	}
}

func TestRecipesRecordRouting(t *testing.T) {
	addrs := startCluster(t, 3)
	dir := director.New()
	c, _ := New(context.Background(), Config{Name: "t", SuperChunkSize: 16 << 10}, dir, DenseNodes(addrs))
	defer c.Close()
	content := randBytes(3, 100<<10)
	if err := c.BackupFile(context.Background(), "/f", bytes.NewReader(content)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	r, err := dir.GetRecipe(context.Background(), tenant.Key(tenant.Default, "/f"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 100<<10 {
		t.Fatalf("recipe size = %d, want %d", r.Size(), 100<<10)
	}
	for i, e := range r.Chunks {
		if e.Node < 0 || int(e.Node) >= 3 {
			t.Fatalf("chunk %d routed to invalid node %d", i, e.Node)
		}
	}
}

func TestBackupEmptyFile(t *testing.T) {
	addrs := startCluster(t, 1)
	dir := director.New()
	c, _ := New(context.Background(), Config{Name: "t"}, dir, DenseNodes(addrs))
	defer c.Close()
	if err := c.BackupFile(context.Background(), "/empty", bytes.NewReader(nil)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	r, err := dir.GetRecipe(context.Background(), tenant.Key(tenant.Default, "/empty"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Chunks) != 0 {
		t.Fatalf("empty file recipe has %d chunks", len(r.Chunks))
	}
	out := restore(t, c, "/empty")
	if len(out) != 0 {
		t.Fatal("empty file restored with content")
	}
}

// TestSessionFailsStickyAfterError: once a backup error occurs (here,
// the only node dies mid-session), the session must refuse further
// writes — recipe attribution is positional, so continuing would
// misattribute the next file's chunks — and Close must return promptly
// even with routes in flight against a dead connection.
func TestSessionFailsStickyAfterError(t *testing.T) {
	nd, err := node.New(node.Config{ID: 0, KeepPayloads: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rpc.NewServer(nd, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dir := director.New()
	c, err := New(context.Background(), Config{Name: "t", SuperChunkSize: 16 << 10}, dir, DenseNodes([]string{srv.Addr()}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.BackupFile(context.Background(), "/ok", bytes.NewReader(randBytes(9, 64<<10))); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// The failure may surface on the next backup or the one after (tail
	// super-chunks of the previous call are settled lazily).
	var backupErr error
	for i := 0; i < 3 && backupErr == nil; i++ {
		backupErr = c.BackupFile(context.Background(), fmt.Sprintf("/dead%d", i), bytes.NewReader(randBytes(int64(20+i), 64<<10)))
	}
	if backupErr == nil {
		t.Fatal("backup against a dead node never failed")
	}
	if err := c.BackupFile(context.Background(), "/after", bytes.NewReader(randBytes(30, 1<<10))); err == nil {
		t.Fatal("session must stay failed after an error")
	}
	if err := c.Flush(context.Background()); err == nil {
		t.Fatal("flush of a failed session must fail")
	}
}

// TestPipelineSurfacesSeverPromptly kills the server mid-
// InflightSuperChunks window (rpc.WithSeverAfter drops the connection
// after N responses) and asserts the client's concurrent pipeline
// surfaces the failure promptly — BackupFile/Flush return an error
// instead of hanging on stranded Store/Query/Bid calls.
func TestPipelineSurfacesSeverPromptly(t *testing.T) {
	nd, err := node.New(node.Config{ID: 0, KeepPayloads: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rpc.NewServer(nd, "127.0.0.1:0",
		rpc.WithHandlerDelay(5*time.Millisecond), rpc.WithSeverAfter(6))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	dir := director.New()
	// Small super-chunks and a wide window: many RPCs in flight when the
	// connection dies.
	c, err := New(context.Background(), Config{Name: "t", SuperChunkSize: 8 << 10, InflightSuperChunks: 8}, dir, DenseNodes([]string{srv.Addr()}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	result := make(chan error, 1)
	go func() {
		if err := c.BackupFile(context.Background(), "/doomed", bytes.NewReader(randBytes(77, 1<<20))); err != nil {
			result <- err
			return
		}
		result <- c.Flush(context.Background())
	}()
	select {
	case err := <-result:
		if err == nil {
			t.Fatal("backup over a severed connection reported success")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("backup pipeline hung after the server severed the connection")
	}
	// The session is sticky-failed and further use fails fast.
	start := time.Now()
	if err := c.BackupFile(context.Background(), "/after", bytes.NewReader(randBytes(78, 8<<10))); err == nil {
		t.Fatal("session must stay failed after the sever")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("post-sever backup took %v; should fail fast", elapsed)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(context.Background(), Config{}, director.New(), nil); err == nil {
		t.Fatal("no node addresses should error")
	}
	if _, err := New(context.Background(), Config{}, director.New(), DenseNodes([]string{"127.0.0.1:1"})); err == nil {
		t.Fatal("unreachable node should error")
	}
}

// TestRebackupSupersedesAndReleasesOldReferences: backing the same path
// up again must release the superseded recipe's chunk references, so the
// old generation's unique chunks become reclaimable instead of leaking
// forever.
func TestRebackupSupersedesAndReleasesOldReferences(t *testing.T) {
	nd, err := node.New(node.Config{ID: 0, KeepPayloads: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rpc.NewServer(nd, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	dir := director.New()
	c, err := New(context.Background(), Config{Name: "t", SuperChunkSize: 32 << 10}, dir, DenseNodes([]string{srv.Addr()}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	v1 := randBytes(60, 128<<10)
	v2 := randBytes(61, 128<<10) // fully distinct content
	if err := c.BackupFile(context.Background(), "/data", bytes.NewReader(v1)); err != nil {
		t.Fatal(err)
	}
	if err := c.BackupFile(context.Background(), "/data", bytes.NewReader(v2)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	// v1 is superseded: all of its unique bytes must be dead on the node.
	gc := nd.GCStats()
	if gc.DeadBytes < int64(len(v1)) {
		t.Fatalf("DeadBytes after supersede = %d, want >= %d (v1's share)", gc.DeadBytes, len(v1))
	}
	if _, err := nd.Compact(context.Background(), 0.99); err != nil {
		t.Fatal(err)
	}
	out := restore(t, c, "/data")
	if !bytes.Equal(out, v2) {
		t.Fatal("latest generation corrupted after superseded space was reclaimed")
	}
	// Deleting the path releases v2's references too; nothing leaks.
	if err := migrate.Delete(context.Background(), dir, c.node, c.key("/data")); err != nil {
		t.Fatal(err)
	}
	if _, err := nd.Compact(context.Background(), 0.99); err != nil {
		t.Fatal(err)
	}
	if usage := nd.StorageUsage(); usage != 0 {
		t.Fatalf("storage after deleting every generation = %d, want 0", usage)
	}
}
