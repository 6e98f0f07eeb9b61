package ingest_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/ingest"
	"sigmadedupe/internal/migrate"
	"sigmadedupe/internal/rpc"
	"sigmadedupe/internal/tenant"
)

// hold parks the calls of a holding transport while armed, until
// released.
type hold struct {
	armed   atomic.Bool
	release chan struct{}
}

// arm makes the calls park from now on.
func (h *hold) arm() {
	h.release = make(chan struct{})
	h.armed.Store(true)
}

// free lets the parked calls and those to come through.
func (h *hold) free() {
	if h.armed.Swap(false) {
		close(h.release)
	}
}

func (h *hold) wait(ctx context.Context) {
	if h.armed.Load() {
		select {
		case <-h.release:
		case <-ctx.Done():
		}
	}
}

// holding is a node transport whose Dedup and ReadBatch block on h.
type holding struct {
	migrate.Node
	h *hold
}

func (n holding) Dedup(ctx context.Context, stream string, sc *core.SuperChunk, hp core.Handprint, eager bool) ([]bool, error) {
	n.h.wait(ctx)
	return n.Node.Dedup(ctx, stream, sc, hp, eager)
}

func (n holding) ReadBatch(ctx context.Context, fps []fingerprint.Fingerprint) (*rpc.ChunkBatch, error) {
	n.h.wait(ctx)
	return n.Node.ReadBatch(ctx, fps)
}

// awaitLabels polls the goroutine profile until every label set of want
// — each "key":"value" pairs as the profile prints them — is on one
// goroutine's labels line.
func awaitLabels(t *testing.T, want ...[]string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, "# labels: ") {
				lines = append(lines, line)
			}
		}
		missing := want[:0:0]
		for _, set := range want {
			found := false
			for _, line := range lines {
				all := true
				for _, kv := range set {
					all = all && strings.Contains(line, kv)
				}
				found = found || all
			}
			if !found {
				missing = append(missing, set)
			}
		}
		if len(missing) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no goroutine labelled %v; labels lines:\n%s", missing, strings.Join(lines, "\n"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func stage(phase, stage string) []string {
	return []string{fmt.Sprintf("%q:%q", "phase", phase), fmt.Sprintf("%q:%q", "stage", stage)}
}

// TestStagesRunUnderProfilerLabels: while a node holds a backup's dedup
// passes, the goroutines of every ingest stage are parked under their
// phase and stage labels; while it holds a restore's reads, the fetch and
// the writer are. Backup and Flush hand the caller's goroutine back
// unlabelled.
func TestStagesRunUnderProfilerLabels(t *testing.T) {
	r := newRig(t, "local", 2, rigOpt{})
	h := new(hold)
	for i, nd := range r.byID {
		r.byID[i] = holding{nd, h}
	}
	s := r.session(t, ingest.Config{SuperChunkSize: 64 << 10, Workers: 2})
	t.Cleanup(h.free) // before the session's Close, which waits for the parked calls
	data := randBytes(91, 6<<20)
	mustBackup(t, s, "/restored", data)
	mustFlush(t, s)

	h.arm()
	done := make(chan error, 1)
	go func() { done <- s.Backup(context.Background(), "/held", bytes.NewReader(data)) }()
	awaitLabels(t, stage("ingest", "chunk"), stage("ingest", "hash"), stage("ingest", "commit"), stage("ingest", "dedup"))
	h.free()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	mustFlush(t, s)

	h.arm()
	var out bytes.Buffer
	go func() {
		_, err := migrate.Restore(context.Background(), r.dir, r.node, tenant.Key(tenant.Default, "/restored"), ingest.DefaultInflight, &out)
		done <- err
	}()
	awaitLabels(t, stage("restore", "read"), stage("restore", "write"))
	h.free()
	if err := <-done; err != nil || !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("the held restore: %v, %d bytes of %d", err, out.Len(), len(data))
	}

	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	if labelledHere(buf.String()) {
		t.Fatal("the test goroutine kept a stage label after Backup and Restore returned")
	}
}

// labelledHere reports whether the goroutine running the test is listed
// under a labels line in a debug=1 goroutine profile.
func labelledHere(profile string) bool {
	for _, rec := range strings.Split(profile, "\n\n") {
		if strings.Contains(rec, "ingest_test.TestStagesRunUnderProfilerLabels(") && strings.Contains(rec, "# labels: ") {
			return true
		}
	}
	return false
}
