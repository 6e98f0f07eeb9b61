package sigmadedupe

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/rpc"
	"sigmadedupe/internal/store"
)

// startServers brings up n facade servers on loopback.
func startServers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv, err := StartServer(ServerConfig{ID: i})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	return addrs
}

// runBackendScenario drives one complete backup/restore/delete/compact
// lifecycle through the Backend interface. The same function runs
// unmodified against the simulator and the TCP prototype — the whole
// point of the one-surface redesign.
func runBackendScenario(t *testing.T, be Backend, nodes int) {
	t.Helper()
	ctx := context.Background()
	const files = 4
	content := make(map[string][]byte, files)
	var logical int64
	for i := 0; i < files; i++ {
		rng := rand.New(rand.NewSource(int64(500 + i)))
		data := make([]byte, 120<<10+i*9000)
		rng.Read(data)
		if i == files-1 {
			data = append([]byte(nil), content["/scenario/file0"]...) // exact duplicate
		}
		name := fmt.Sprintf("/scenario/file%d", i)
		content[name] = data
		logical += int64(len(data))
		if err := be.Backup(ctx, name, bytes.NewReader(data)); err != nil {
			t.Fatalf("backup %s: %v", name, err)
		}
	}
	if err := be.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// Every file restores byte-identically.
	for name, data := range content {
		var out bytes.Buffer
		if err := be.Restore(ctx, name, &out); err != nil {
			t.Fatalf("restore %s: %v", name, err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("%s corrupted: got %d bytes, want %d", name, out.Len(), len(data))
		}
	}

	st, err := be.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Backups != files {
		t.Fatalf("Backups = %d, want %d", st.Backups, files)
	}
	if st.Nodes != nodes {
		t.Fatalf("Nodes = %d, want %d", st.Nodes, nodes)
	}
	if st.LogicalBytes != logical {
		t.Fatalf("LogicalBytes = %d, want %d", st.LogicalBytes, logical)
	}
	if st.PhysicalBytes <= 0 || st.PhysicalBytes >= logical {
		t.Fatalf("PhysicalBytes = %d out of (0,%d) (file3 duplicates file0)", st.PhysicalBytes, logical)
	}
	if st.DedupRatio <= 1 {
		t.Fatalf("DedupRatio = %v, want > 1", st.DedupRatio)
	}

	// Delete one backup: it disappears (typed), the rest survive, and
	// compaction reclaims its unique space.
	if err := be.Delete(ctx, "/scenario/file1"); err != nil {
		t.Fatal(err)
	}
	if err := be.Restore(ctx, "/scenario/file1", io.Discard); !errors.Is(err, ErrNotFound) {
		t.Fatalf("restore after delete = %v, want ErrNotFound", err)
	}
	if err := be.Delete(ctx, "/scenario/file1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete = %v, want ErrNotFound", err)
	}
	if _, err := be.Compact(ctx, 0.95); err != nil {
		t.Fatal(err)
	}
	st2, err := be.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Backups != files-1 {
		t.Fatalf("Backups after delete = %d, want %d", st2.Backups, files-1)
	}
	if st2.PhysicalBytes >= st.PhysicalBytes {
		t.Fatalf("physical bytes did not shrink after delete+compact: %d -> %d",
			st.PhysicalBytes, st2.PhysicalBytes)
	}
	for _, name := range []string{"/scenario/file0", "/scenario/file2", "/scenario/file3"} {
		var out bytes.Buffer
		if err := be.Restore(ctx, name, &out); err != nil {
			t.Fatalf("restore %s after compact: %v", name, err)
		}
		if !bytes.Equal(out.Bytes(), content[name]) {
			t.Fatalf("%s corrupted by delete+compact", name)
		}
	}
	assertCatalogConsistent(t, be)
}

// TestBackendScenarioSimulator runs the shared scenario on the
// in-process simulator.
func TestBackendScenarioSimulator(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 3, KeepPayloads: true, SuperChunkSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	runBackendScenario(t, c, 3)
}

// TestBackendScenarioRemote runs the identical scenario on the TCP
// prototype: same function, different Backend.
func TestBackendScenarioRemote(t *testing.T) {
	addrs := startServers(t, 3)
	be, err := NewRemote(context.Background(), RemoteConfig{
		Name:           "scenario",
		Director:       NewDirector(),
		Nodes:          addrs,
		SuperChunkSize: 32 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	runBackendScenario(t, be, 3)
}

// endlessReader produces pseudo-random bytes forever: only cancellation
// can end a backup of it.
type endlessReader struct{ rng *rand.Rand }

func (r *endlessReader) Read(p []byte) (int, error) {
	r.rng.Read(p)
	return len(p), nil
}

// TestCancelMidBackupStopsPromptly cancels a context in the middle of a
// backup of an endless stream against a slow server and requires the
// call to return within about one super-chunk of work — not at EOF
// (there is none) — with context.Canceled visible through the typed
// error chain, and no goroutines leaked.
func TestCancelMidBackupStopsPromptly(t *testing.T) {
	baseline := runtime.NumGoroutine()

	nd, err := store.New(store.Config{ID: 0, KeepPayloads: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rpc.NewServer(nd, "127.0.0.1:0", rpc.WithHandlerDelay(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	be, err := NewRemote(context.Background(), RemoteConfig{
		Name:           "cancel",
		Director:       NewDirector(),
		Nodes:          []string{srv.Addr()},
		SuperChunkSize: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}

	sess, err := be.NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	result := make(chan error, 1)
	go func() {
		result <- sess.Backup(ctx, "/endless", &endlessReader{rng: rand.New(rand.NewSource(99))})
	}()
	time.Sleep(150 * time.Millisecond) // several super-chunks in flight
	canceledAt := time.Now()
	cancel()
	select {
	case err := <-result:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled backup = %v, want context.Canceled in the chain", err)
		}
		// One super-chunk of work at this server is a handful of 30ms
		// RPCs; seconds would mean cancellation only acted at EOF/window
		// drain.
		if elapsed := time.Since(canceledAt); elapsed > 2*time.Second {
			t.Fatalf("backup took %v to honor cancellation", elapsed)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("canceled backup never returned")
	}
	// Only the canceled item was aborted: the session stays usable.
	if err := sess.Backup(context.Background(), "/after", bytes.NewReader([]byte("x"))); err != nil {
		t.Fatalf("backup after a canceled one: %v", err)
	}
	if err := sess.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	var after bytes.Buffer
	if err := be.Restore(context.Background(), "/after", &after); err != nil || after.String() != "x" {
		t.Fatalf("restore after a canceled backup = %q, %v", after.String(), err)
	}
	if err := be.Restore(context.Background(), "/endless", io.Discard); !errors.Is(err, ErrNotFound) {
		t.Fatalf("the canceled backup is in the catalog: %v", err)
	}

	sess.Close()
	be.Close()
	srv.Close()
	nd.Close()

	// No goroutine leaks: everything the pipeline spawned has exited.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after canceled backup: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestCancelMidBackupSimulator: the simulator honors cancellation at
// super-chunk granularity too — same contract, other Backend.
func TestCancelMidBackupSimulator(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 2, SuperChunkSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	result := make(chan error, 1)
	go func() {
		result <- c.Backup(ctx, "/endless", &endlessReader{rng: rand.New(rand.NewSource(7))})
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-result:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled simulator backup = %v, want context.Canceled", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("canceled simulator backup never returned")
	}
}

// TestTypedErrorsSurviveTCPWire round-trips the taxonomy through the call
// layer under both protocols: director verbs (recipe lookups) and node
// verbs (chunk reads), and a peer that is down. errors.Is must hold on
// the client side of each.
func TestTypedErrorsSurviveTCPWire(t *testing.T) {
	ctx := context.Background()
	srv, err := StartServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addrs := []string{srv.Addr()}

	// A real TCP director, so recipe errors cross a wire too.
	d := NewDirector()
	svc, err := rpc.NewDirectorServer(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })

	be, err := NewRemote(ctx, RemoteConfig{
		Name:         "typed",
		DirectorAddr: svc.Addr(),
		Nodes:        addrs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()

	if err := be.Restore(ctx, "/never-existed", io.Discard); !errors.Is(err, ErrNotFound) {
		t.Fatalf("restore of unknown name over TCP = %v, want ErrNotFound", err)
	}
	if err := be.Delete(ctx, "/never-existed"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete of unknown name over TCP = %v, want ErrNotFound", err)
	}

	// The membership verbs' "no such node" is typed too, with the epoch
	// they would have committed a TCP hop away.
	if _, err := be.RemoveNode(ctx, 7); !errors.Is(err, ErrNotFound) {
		t.Fatalf("RemoveNode of an unknown node over TCP = %v, want ErrNotFound", err)
	}
	if err := be.KillNode(ctx, 7); !errors.Is(err, ErrNotFound) {
		t.Fatalf("KillNode of an unknown node over TCP = %v, want ErrNotFound", err)
	}

	// Node RPC wire: reading a chunk no node holds.
	rc, err := rpc.DialContext(context.Background(), addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	var fp fingerprint.Fingerprint
	copy(fp[:], "no-such-fingerprint!")
	if _, err := rc.ReadBatch(ctx, []fingerprint.Fingerprint{fp}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadBatch of missing chunk over TCP = %v, want ErrNotFound", err)
	}

	// A backup that works end to end over the TCP director proves the
	// wire codec is not just rehydrating errors, it is transparent to
	// success paths.
	data := bytes.Repeat([]byte("wire"), 8<<10)
	if err := be.Backup(ctx, "/wire", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if err := be.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := be.Restore(ctx, "/wire", &out); err != nil || !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("round trip over TCP director failed: %v", err)
	}

	// A peer that is down is typed too: with the only node server
	// stopped, restore and compaction fail ErrUnavailable; with the
	// director stopped, so does any call that needs it.
	srv.Close()
	if err := be.Restore(ctx, "/wire", io.Discard); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("restore with the node down = %v, want ErrUnavailable", err)
	}
	if _, err := be.Compact(ctx, 0.5); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("compact with the node down = %v, want ErrUnavailable", err)
	}
	svc.Close()
	if _, err := be.Tenants(ctx); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("director call with the director down = %v, want ErrUnavailable", err)
	}
	if err := be.Restore(ctx, "/wire", io.Discard); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("restore with the director down = %v, want ErrUnavailable", err)
	}
}

// boundedReader yields exactly n pseudo-random bytes.
type boundedReader struct {
	rng  *rand.Rand
	left int
}

func (r *boundedReader) Read(p []byte) (int, error) {
	if r.left <= 0 {
		return 0, io.EOF
	}
	if len(p) > r.left {
		p = p[:r.left]
	}
	r.rng.Read(p)
	r.left -= len(p)
	return len(p), nil
}

// TestSessionBackupBoundedMemory streams a large unique synthetic file
// through a session and asserts, via the counter instrumentation, that
// peak buffered payload stayed under 2× the in-flight window bound —
// O(InflightSuperChunks × SuperChunkSize), independent of file size.
func TestSessionBackupBoundedMemory(t *testing.T) {
	const (
		scSize   = int64(1 << 20)
		inflight = 4
	)
	size := 256 << 20
	if raceEnabled || testing.Short() {
		// The property is size-independent; the full 256MB run is for
		// the un-instrumented CI pass and local verification.
		size = 32 << 20
	}
	addrs := startServers(t, 1)
	be, err := NewRemote(context.Background(), RemoteConfig{
		Name:     "stream",
		Director: NewDirector(),
		Nodes:    addrs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	sess, err := be.NewSession(context.Background(),
		WithSuperChunkSize(scSize),
		WithInflightSuperChunks(inflight),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	ctx := context.Background()
	if err := sess.Backup(ctx, "/big", &boundedReader{rng: rand.New(rand.NewSource(1234)), left: size}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.LogicalBytes != int64(size) {
		t.Fatalf("logical = %d, want %d", st.LogicalBytes, size)
	}
	if st.PeakBufferedBytes <= 0 {
		t.Fatal("peak buffered bytes not instrumented")
	}
	// Window bound: the pipeline admits at most 2×InflightSuperChunks
	// super-chunks past the partitioner at once (the in-flight window
	// plus the completed-but-unapplied queue), each at most 2× the
	// super-chunk target (the partitioner's hard cut).
	windowBound := int64(inflight) * 2 * scSize
	if st.PeakBufferedBytes > 2*windowBound {
		t.Fatalf("peak buffered = %d, want <= 2x window bound %d", st.PeakBufferedBytes, 2*windowBound)
	}
	if st.PeakBufferedBytes >= int64(size)/4 {
		t.Fatalf("peak buffered = %d scales with file size %d, not the window", st.PeakBufferedBytes, size)
	}
}

// TestWindowOfOneWorkerOfOne pins the narrowest configuration to the one
// ingest path: a single fingerprint worker and a single in-flight
// super-chunk go through the same pipeline window as the defaults, and
// multi-super-chunk, single-chunk and empty files all restore
// byte-identically with the peak buffer bounded by the window of one.
func TestWindowOfOneWorkerOfOne(t *testing.T) {
	const scSize = int64(128 << 10)
	ctx := context.Background()
	be, err := NewRemote(ctx, RemoteConfig{Name: "narrow", Director: NewDirector(), Nodes: startServers(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	sess, err := be.NewSession(ctx, WithSuperChunkSize(scSize), WithInflightSuperChunks(1), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	files := map[string][]byte{"/big": make([]byte, 3<<20+123), "/one-chunk": make([]byte, 100), "/empty": nil}
	rng := rand.New(rand.NewSource(99))
	for name, data := range files {
		rng.Read(data)
		if err := sess.Backup(ctx, name, bytes.NewReader(data)); err != nil {
			t.Fatalf("backup %s: %v", name, err)
		}
	}
	if err := sess.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	for name, data := range files {
		var got bytes.Buffer
		if err := be.Restore(ctx, name, &got); err != nil {
			t.Fatalf("restore %s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), data) {
			t.Fatalf("%s restored %d bytes, differs from the %d backed up", name, got.Len(), len(data))
		}
	}
	// One super-chunk in flight, one completed but unapplied, one just
	// cut and waiting for the slot — each at most 2× the target (the
	// partitioner's hard cut).
	if peak, bound := sess.Stats().PeakBufferedBytes, 3*2*scSize; peak <= 0 || peak > bound {
		t.Fatalf("peak buffered = %d, want within the window-of-one bound %d", peak, bound)
	}
}

// failingReader yields good bytes, then an injected error.
type failingReader struct {
	rng  *rand.Rand
	left int
}

var errInjectedRead = errors.New("injected mid-stream read failure")

func (r *failingReader) Read(p []byte) (int, error) {
	if r.left <= 0 {
		return 0, errInjectedRead
	}
	if len(p) > r.left {
		p = p[:r.left]
	}
	r.rng.Read(p)
	r.left -= len(p)
	return len(p), nil
}

// TestFailedBackupLeavesTrackerUntouched: a backup that fails mid-stream
// is aborted as a whole, on both backends — the name still restores its
// previous generation, nothing is stranded (the references its already
// stored super-chunks took are released and reclaimable), the session
// backs up again, and Flush ends the director session — at R=2 with the
// replicas' references released like the primaries'.
func TestFailedBackupLeavesTrackerUntouched(t *testing.T) {
	eachReplication(t, func(t *testing.T, be Backend) {
		ctx := context.Background()
		v1 := make([]byte, 100<<10)
		rand.New(rand.NewSource(41)).Read(v1)
		if err := be.Backup(ctx, "/a", bytes.NewReader(v1)); err != nil {
			t.Fatal(err)
		}
		if err := be.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		before, err := be.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		liveBefore, err := gcStatsOf(ctx, be)
		if err != nil {
			t.Fatal(err)
		}

		// Re-backup of the same name dies mid-stream, after several
		// super-chunks have already been stored.
		err = be.Backup(ctx, "/a", &failingReader{rng: rand.New(rand.NewSource(42)), left: 200 << 10})
		if !errors.Is(err, errInjectedRead) {
			t.Fatalf("failed backup = %v, want the injected read error", err)
		}
		var berr *BackupError
		if !errors.As(err, &berr) || berr.Name != "/a" || berr.Stage != "chunk" {
			t.Fatalf("failed backup not typed: %v (parsed %+v)", err, berr)
		}

		// The name still points at v1.
		var out bytes.Buffer
		if err := be.Restore(ctx, "/a", &out); err != nil || !bytes.Equal(out.Bytes(), v1) {
			t.Fatalf("previous generation lost after failed re-backup: %v", err)
		}
		after, err := be.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if after.Backups != before.Backups {
			t.Fatalf("backup count changed by a failed backup: %d -> %d", before.Backups, after.Backups)
		}

		// Nothing stranded: the failed attempt's references were released,
		// so compaction returns live storage to the v1 level.
		if err := be.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := be.Compact(ctx, 0.99); err != nil {
			t.Fatal(err)
		}
		if gc, err := gcStatsOf(ctx, be); err != nil || gc.LiveBytes != liveBefore.LiveBytes {
			t.Fatalf("live bytes = %d (%v) after failed backup + compact, want %d (v1 only)",
				gc.LiveBytes, err, liveBefore.LiveBytes)
		}
		assertCatalogConsistent(t, be)

		// The session is intact: a successful re-backup supersedes v1.
		v2 := make([]byte, 60<<10)
		rand.New(rand.NewSource(43)).Read(v2)
		if err := be.Backup(ctx, "/a", bytes.NewReader(v2)); err != nil {
			t.Fatal(err)
		}
		if err := be.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		out.Reset()
		if err := be.Restore(ctx, "/a", &out); err != nil || !bytes.Equal(out.Bytes(), v2) {
			t.Fatalf("re-backup after failure broken: %v", err)
		}
		assertCatalogConsistent(t, be)

		// Flush ended the director session of the default stream.
		var dir *Director
		var session uint64
		switch b := be.(type) {
		case *Cluster:
			dir, session = b.meta.(*Director), b.def.ID()
		case *Remote:
			dir, session = b.localMeta, b.def.ID()
		}
		if ds, err := dir.GetSession(session); err != nil || ds.Finished.IsZero() {
			t.Fatalf("director session %d not finished after Flush: %+v, %v", session, ds, err)
		}

		// Delete everything; all references release and compact to zero live.
		if err := be.Delete(ctx, "/a"); err != nil {
			t.Fatal(err)
		}
		if _, err := be.Compact(ctx, 0.99); err != nil {
			t.Fatal(err)
		}
		if gc, err := gcStatsOf(ctx, be); err != nil || gc.LiveBytes != 0 {
			t.Fatalf("live bytes = %d (%v) after deleting every backup, want 0 (no leaked references)", gc.LiveBytes, err)
		}
	})
}
