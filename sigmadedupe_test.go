package sigmadedupe

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestClusterFacadeEndToEnd drives the simulator's one-shot verbs and
// reads SimStats. Normalized DR compares exact dedup of the live catalog
// with the bytes stored, so it stays ≤ 1 whatever left the catalog — a
// delete, a superseded generation, a cancelled backup — and for unique
// data it is 1 once compaction has reclaimed the dead space.
func TestClusterFacadeEndToEnd(t *testing.T) {
	ctx := context.Background()
	random := func(seed int64, n int) []byte {
		data := make([]byte, n)
		rand.New(rand.NewSource(seed)).Read(data)
		return data
	}
	backup := func(t *testing.T, c *Cluster, name string, data []byte) {
		t.Helper()
		if err := c.Backup(ctx, name, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		// logical is what the sessions were handed (0: unchecked — a
		// cancelled read drops its last batch); unique says the live
		// catalog holds no chunk twice.
		logical int64
		unique  bool
		run     func(t *testing.T, c *Cluster)
	}{
		{"duplicate copy", 512 << 10, false, func(t *testing.T, c *Cluster) {
			content := random(1, 256<<10)
			backup(t, c, "/a", content)
			backup(t, c, "/a-again", content)
		}},
		{"delete", 8 << 20, true, func(t *testing.T, c *Cluster) {
			backup(t, c, "/a", random(2, 4<<20))
			backup(t, c, "/b", random(3, 4<<20))
			if err := c.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			if err := c.Delete(ctx, "/a"); err != nil {
				t.Fatal(err)
			}
		}},
		{"superseding re-backup", 8 << 20, true, func(t *testing.T, c *Cluster) {
			backup(t, c, "/a", random(4, 4<<20))
			backup(t, c, "/a", random(5, 4<<20))
		}},
		{"cancelled backup", 0, true, func(t *testing.T, c *Cluster) {
			backup(t, c, "/a", random(6, 4<<20))
			cctx, cancel := context.WithCancel(ctx)
			defer cancel()
			r := cancelAtEOF{bytes.NewReader(random(7, 3<<20)), cancel}
			if err := c.Backup(cctx, "/b", r); err == nil {
				t.Fatal("cancelled backup succeeded")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCluster(ClusterConfig{Nodes: 4, KeepPayloads: true})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			tc.run(t, c)
			if err := c.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Compact(ctx, 0.999); err != nil {
				t.Fatal(err)
			}
			st := c.SimStats()
			if tc.logical != 0 && st.LogicalBytes != tc.logical {
				t.Fatalf("logical = %d, want %d", st.LogicalBytes, tc.logical)
			}
			if !tc.unique && st.DedupRatio < 1.5 {
				t.Fatalf("dedup ratio = %v, want ~2 for duplicated content", st.DedupRatio)
			}
			if st.NormalizedDR <= 0 || st.NormalizedDR > 1.001 || st.EffectiveDR > 1.001 {
				t.Fatalf("normalized DR = %v, effective DR = %v: out of range", st.NormalizedDR, st.EffectiveDR)
			}
			if tc.unique && math.Abs(st.NormalizedDR-1) > 0.001 {
				t.Fatalf("normalized DR = %v, want 1 for unique data after compaction", st.NormalizedDR)
			}
			if st.FingerprintLookups == 0 {
				t.Fatal("no fingerprint lookups counted")
			}
		})
	}
}

// cancelAtEOF delivers r, then cancels the backup reading it.
type cancelAtEOF struct {
	r      io.Reader
	cancel context.CancelFunc
}

func (c cancelAtEOF) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if err == io.EOF {
		c.cancel()
		err = context.Canceled
	}
	return n, err
}

func TestPrototypeFacadeBackupRestore(t *testing.T) {
	srv1, err := StartServer(ServerConfig{ID: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer srv1.Close()
	srv2, err := StartServer(ServerConfig{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	ctx := context.Background()
	bc, err := NewRemote(ctx, RemoteConfig{Name: "t", SuperChunkSize: 32 << 10,
		Director: NewDirector(), Nodes: []string{srv1.Addr(), srv2.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()

	rng := rand.New(rand.NewSource(2))
	content := make([]byte, 200<<10)
	rng.Read(content)
	sess, err := bc.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Backup(ctx, "/doc", bytes.NewReader(content)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Backup(ctx, "/doc-copy", bytes.NewReader(content)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if saving := sess.Stats().BandwidthSaving(); saving < 0.4 {
		t.Fatalf("bandwidth saving = %v, want >= 0.4", saving)
	}
	var out bytes.Buffer
	if err := bc.Restore(ctx, "/doc-copy", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), content) {
		t.Fatal("restore corrupted")
	}
	if srv1.StorageUsage()+srv2.StorageUsage() == 0 {
		t.Fatal("servers stored nothing")
	}
}

func TestRunExperimentFacade(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment("ram", ExperimentOptions{Quick: true}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SigmaDedupe") {
		t.Fatalf("experiment output missing rows:\n%s", buf.String())
	}
	if err := RunExperiment("nope", ExperimentOptions{}, &buf); err == nil {
		t.Fatal("unknown experiment should error")
	}
	if len(ExperimentNames()) != 12 {
		t.Fatalf("ExperimentNames = %v", ExperimentNames())
	}
}

func TestWorkloadFilesFacade(t *testing.T) {
	if len(WorkloadNames()) != 4 {
		t.Fatalf("WorkloadNames = %v", WorkloadNames())
	}
	var files int
	var bytesTotal int64
	err := WorkloadFiles("linux", 0.2, 7, func(path string, data []byte) error {
		files++
		bytesTotal += int64(len(data))
		if path == "" || len(data) == 0 {
			t.Fatal("empty workload item")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 || bytesTotal == 0 {
		t.Fatal("no workload generated")
	}
	if err := WorkloadFiles("bogus", 1, 0, nil); err == nil {
		t.Fatal("unknown workload should error")
	}
}

// TestNewClusterRejectsBaselineSchemes: a Backend routes by Σ only; any
// other Scheme value is refused with a typed error instead of silently
// routing by Σ.
func TestNewClusterRejectsBaselineSchemes(t *testing.T) {
	for _, s := range []Scheme{0, SchemeSigma} {
		c, err := NewCluster(ClusterConfig{Nodes: 2, Scheme: s})
		if err != nil {
			t.Fatalf("Scheme %d: %v", s, err)
		}
		c.Close()
	}
	for _, s := range []Scheme{SchemeSigma + 1, SchemeSigma + 4, -1} {
		if c, err := NewCluster(ClusterConfig{Nodes: 2, Scheme: s}); !errors.Is(err, errors.ErrUnsupported) {
			if c != nil {
				c.Close()
			}
			t.Errorf("Scheme %d: err = %v, want errors.ErrUnsupported", s, err)
		}
	}
}

// TestRemoteValidation: a Remote needs node addresses, and a stream
// whose node cannot be dialed fails to open instead of failing later.
func TestRemoteValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := NewRemote(ctx, RemoteConfig{Director: NewDirector()}); err == nil {
		t.Fatal("no node addresses should error")
	}
	be, err := NewRemote(ctx, RemoteConfig{Director: NewDirector(), Nodes: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err) // node connections are dialed per stream
	}
	defer be.Close()
	if _, err := be.NewSession(ctx); err == nil {
		t.Fatal("session against an unreachable node should error")
	}
	if err := be.Backup(ctx, "/x", strings.NewReader("x")); err == nil {
		t.Fatal("one-shot backup against an unreachable node should error")
	}
}
