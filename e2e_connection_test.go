package sigmadedupe

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"sigmadedupe/internal/rpc"
)

// The connection lifecycle the node and director connections share:
// calls multiplex over one connection, a deadline reaches the handler, a
// call abandoned mid-flight leaves the connection usable, and a broken
// connection is redialed on next use.

// remoteOverTCPDirector starts one node server and a director server
// (with the given per-call handler delay) and connects a Remote to them.
func remoteOverTCPDirector(t *testing.T, delay time.Duration) (*Remote, *Director) {
	t.Helper()
	d := NewDirector()
	svc, err := rpc.NewDirectorServer(d, "127.0.0.1:0", rpc.WithHandlerDelay(delay))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	be, err := NewRemote(context.Background(), RemoteConfig{DirectorAddr: svc.Addr(), Nodes: startServers(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { be.Close() })
	return be, d
}

// backupOne stores 1 MB of random bytes as name and flushes.
func backupOne(t *testing.T, be Backend, name string) []byte {
	t.Helper()
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(int64(len(name)))).Read(data)
	if err := be.Backup(context.Background(), name, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if err := be.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	return data
}

// restoreEquals restores name and fails unless it comes back as want.
func restoreEquals(t *testing.T, be Backend, name string, want []byte) {
	t.Helper()
	var out bytes.Buffer
	if err := be.Restore(context.Background(), name, &out); err != nil || !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("restore %s: %v (%d of %d bytes)", name, err, out.Len(), len(want))
	}
}

// TestDirectorDeadlineMidCallThenRestore: a restore whose deadline fires
// while its recipe fetch is on the wire fails with that deadline, and the
// director connection stays usable for the next restore.
func TestDirectorDeadlineMidCallThenRestore(t *testing.T) {
	be, _ := remoteOverTCPDirector(t, 50*time.Millisecond)
	data := backupOne(t, be, "/a")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := be.Restore(ctx, "/a", io.Discard); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("restore with its deadline mid-call = %v, want context.DeadlineExceeded", err)
	}
	restoreEquals(t, be, "/a", data)
}

// TestRedialAfterServerRestart: a durable node server restarted at its
// address is redialed by the same Remote's restore and compaction. A call
// that meets the old connection before its end is seen, or the redial
// backoff, fails typed; none fails any other way.
func TestRedialAfterServerRestart(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "n0")
	srv, err := StartServer(ServerConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	be, err := NewRemote(ctx, RemoteConfig{Director: NewDirector(), Nodes: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	data := backupOne(t, be, "/a")
	restoreEquals(t, be, "/a", data) // opens the control connection
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if srv, err = StartServer(ServerConfig{Dir: dir, Addr: addr, Recover: true}); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for deadline := time.Now().Add(2 * time.Second); ; {
		var out bytes.Buffer
		err := be.Restore(ctx, "/a", &out)
		if err == nil && bytes.Equal(out.Bytes(), data) {
			break
		}
		if !errors.Is(err, ErrUnavailable) || time.Now().After(deadline) {
			t.Fatalf("restore after the restart: %v (%d of %d bytes)", err, out.Len(), len(data))
		}
	}
	if _, err := be.Compact(ctx, 0.5); err != nil {
		t.Fatalf("compact after the restart: %v", err)
	}
}

// TestRestartFailsUnsealedFlush: a session whose node restarted between
// acknowledging its stores and sealing them cannot report them durable —
// the new process recovered nothing of them — so its Flush fails with
// ErrUnavailable.
func TestRestartFailsUnsealedFlush(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "n0")
	srv, err := StartServer(ServerConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	be, err := NewRemote(ctx, RemoteConfig{Director: NewDirector(), Nodes: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	sess, err := be.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	if err := sess.Backup(ctx, "/a", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	for srv.inner.Node().Stats().LogicalBytes < int64(len(data)) {
		runtime.Gosched() // until the node holds the item, unsealed
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if srv, err = StartServer(ServerConfig{Dir: dir, Addr: addr, Recover: true}); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := sess.Flush(ctx); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("flush across the node's restart = %v, want ErrUnavailable", err)
	}
}

// TestDirectorCallsMultiplex: concurrent director calls of one Remote are
// in flight together on its one connection, not queued behind each
// other's round trips.
func TestDirectorCallsMultiplex(t *testing.T) {
	const calls, delay = 8, 50 * time.Millisecond
	be, _ := remoteOverTCPDirector(t, delay)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := be.Tenants(context.Background()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// Served one at a time they take calls×delay; half that leaves a
	// loaded host its slack.
	if elapsed := time.Since(start); elapsed >= calls*delay/2 {
		t.Fatalf("%d concurrent director calls took %v against a %v handler: not in flight together", calls, elapsed, delay)
	}
}

// TestDirectorDeadlineReachesHandler: a director call's deadline travels
// on the wire, so the director gives up on it too — the tenant the
// expired call would have created never appears.
func TestDirectorDeadlineReachesHandler(t *testing.T) {
	const delay = 200 * time.Millisecond
	be, d := remoteOverTCPDirector(t, delay)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := be.CreateTenant(ctx, TenantConfig{Name: "late"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CreateTenant past its deadline = %v, want context.DeadlineExceeded", err)
	}
	time.Sleep(delay + 50*time.Millisecond) // past the handler's delay
	sts, err := d.Tenants(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sts {
		if st.Info.Name == "late" {
			t.Fatal("the director created a tenant for a call whose deadline had passed")
		}
	}
}
