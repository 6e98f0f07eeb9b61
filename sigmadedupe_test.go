package sigmadedupe

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"
)

func TestClusterFacadeEndToEnd(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 4, Scheme: SchemeSigma, SuperChunkSize: 64 << 10})
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

func TestSchemeNames(t *testing.T) {
	names := map[Scheme]string{
		SchemeSigma:          "SigmaDedupe",
		SchemeStateless:      "Stateless",
		SchemeStateful:       "Stateful",
		SchemeExtremeBinning: "ExtremeBinning",
		SchemeChunkDHT:       "ChunkDHT",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
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

// TestChunkDHTRestoresInStreamOrder: a scheme that splits one
// super-chunk across nodes (chunk-level DHT) still records its recipe in
// stream order — entries are attributed by chunk position, not in the
// order the per-node assignments were stored — so the backup restores
// byte-identically.
func TestChunkDHTRestoresInStreamOrder(t *testing.T) {
	ctx := context.Background()
	c, err := NewCluster(ClusterConfig{Nodes: 4, Scheme: SchemeChunkDHT, KeepPayloads: true, SuperChunkSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := make([]byte, 300<<10)
	rand.New(rand.NewSource(3)).Read(data)
	if err := c.Backup(ctx, "/dht", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := c.Restore(ctx, "/dht", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("restored %d bytes differ from the %d backed up", out.Len(), len(data))
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
