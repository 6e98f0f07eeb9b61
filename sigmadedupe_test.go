package sigmadedupe

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

func TestClusterFacadeEndToEnd(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 4, SuperChunkSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	content := make([]byte, 256<<10)
	rng.Read(content)

	if err := c.Backup(context.Background(), "/a", bytes.NewReader(content)); err != nil {
		t.Fatal(err)
	}
	if err := c.Backup(context.Background(), "/a-again", bytes.NewReader(content)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := c.SimStats()
	if st.LogicalBytes != 512<<10 {
		t.Fatalf("logical = %d", st.LogicalBytes)
	}
	if st.DedupRatio < 1.5 {
		t.Fatalf("dedup ratio = %v, want ~2 for duplicated content", st.DedupRatio)
	}
	if st.NormalizedDR <= 0 || st.NormalizedDR > 1.001 {
		t.Fatalf("normalized DR = %v out of range", st.NormalizedDR)
	}
	if st.FingerprintLookups == 0 {
		t.Fatal("no fingerprint lookups counted")
	}
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
	if err := bc.Backup(ctx, "/doc", bytes.NewReader(content)); err != nil {
		t.Fatal(err)
	}
	if err := bc.Backup(ctx, "/doc-copy", bytes.NewReader(content)); err != nil {
		t.Fatal(err)
	}
	if err := bc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if saving := bc.BackupStats().BandwidthSaving(); saving < 0.4 {
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
	if len(ExperimentNames()) != 11 {
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
