// Package cmd holds the end-to-end test over the built binaries: two
// sigma-servers, a sigma-director and sigma-client driven through
// backup → restore → delete → compact, one sigma-bench mode, and a
// sigma-tracegen gen → replay round trip.
package cmd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildBinaries compiles the named commands into a temp dir.
func buildBinaries(t *testing.T, names ...string) string {
	t.Helper()
	// go test keys its result cache on the files this process touches, but
	// the sources are read by the go build child: stat every Go file of
	// the module so an edit anywhere invalidates a cached pass.
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != ".." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case strings.HasSuffix(path, ".go"):
			_, err = os.Stat(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	for _, name := range names {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, name), "./"+name).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
	}
	return bin
}

// startDaemon starts a server binary on an ephemeral port, waits for its
// "listening on ADDR" line and returns ADDR. The process is SIGTERMed
// (its graceful path) and reaped at test cleanup.
func startDaemon(t *testing.T, path string, args ...string) string {
	t.Helper()
	cmd := exec.Command(path, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addr := make(chan string, 1)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	t.Cleanup(func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		<-drained // Wait closes the pipe; the reader must hit EOF first
		if err := cmd.Wait(); err != nil {
			t.Errorf("%s exited uncleanly: %v\n%s", filepath.Base(path), err, stderr.String())
		}
	})
	select {
	case a := <-addr:
		return a
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never reported its address\n%s", filepath.Base(path), stderr.String())
		return ""
	}
}

func TestBinariesBackupRestoreDeleteCompact(t *testing.T) {
	bin := buildBinaries(t, "sigma-server", "sigma-director", "sigma-client")
	director := startDaemon(t, filepath.Join(bin, "sigma-director"), "-addr", "127.0.0.1:0")
	nodes := startDaemon(t, filepath.Join(bin, "sigma-server"), "-addr", "127.0.0.1:0", "-id", "0") + "," +
		startDaemon(t, filepath.Join(bin, "sigma-server"), "-addr", "127.0.0.1:0", "-id", "1")

	// client runs one sigma-client verb (flags before the verb) and
	// returns its combined output and whether it exited zero.
	client := func(args ...string) (string, bool) {
		full := append([]string{"-director", director, "-nodes", nodes}, args...)
		out, err := exec.Command(filepath.Join(bin, "sigma-client"), full...).CombinedOutput()
		return string(out), err == nil
	}
	mustClient := func(args ...string) string {
		t.Helper()
		out, ok := client(args...)
		if !ok {
			t.Fatalf("sigma-client %v failed:\n%s", args, out)
		}
		return out
	}

	data := t.TempDir()
	big, copyOf := filepath.Join(data, "big.bin"), filepath.Join(data, "copy.bin")
	content := make([]byte, 3<<20)
	rand.New(rand.NewSource(1)).Read(content)
	for _, p := range []string{big, copyOf} {
		if err := os.WriteFile(p, content, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// The copy dedups fully against the original: half the bytes cross.
	if out := mustClient("backup", big, copyOf); !strings.Contains(out, "50.0% bandwidth saved") {
		t.Fatalf("backup of a file and its copy should save 50%%:\n%s", out)
	}
	restored := filepath.Join(data, "restored.bin")
	mustClient("-out", restored, "restore", copyOf)
	got, err := os.ReadFile(restored)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("restored file differs from the backed-up file")
	}

	mustClient("delete", big)
	mustClient("delete", copyOf)
	if out, ok := client("-out", filepath.Join(data, "x.bin"), "restore", copyOf); ok || !strings.Contains(out, "not found") {
		t.Fatalf("restore after delete should fail with a typed not-found, got ok=%v:\n%s", ok, out)
	}
	// Both references are gone, so compaction retires every container.
	if out := mustClient("compact"); strings.Contains(out, " 0 retired") || strings.Contains(out, " 0 bytes reclaimed") {
		t.Fatalf("compact after delete-all reclaimed nothing:\n%s", out)
	}
}

// TestTracegenRoundTrip: a generated trace replays whole — every record,
// under file-spanning and per-file routing alike — and a trace cut short
// mid-record is an error, not a shorter replay.
func TestTracegenRoundTrip(t *testing.T) {
	tg := filepath.Join(buildBinaries(t, "sigma-tracegen"), "sigma-tracegen")
	dir := t.TempDir()
	trace := filepath.Join(dir, "linux.trace")
	out, err := exec.Command(tg, "gen", "-workload", "linux", "-scale", "0.05", "-out", trace).CombinedOutput()
	if err != nil {
		t.Fatalf("gen: %v\n%s", err, out)
	}
	var records int64
	if _, err := fmt.Sscanf(string(out), "wrote %d chunk records", &records); err != nil || records == 0 {
		t.Fatalf("gen output %q: %v", out, err)
	}
	for _, scheme := range []string{"sigma", "eb"} {
		out, err := exec.Command(tg, "replay", "-in", trace, "-nodes", "4", "-scheme", scheme).CombinedOutput()
		if err != nil {
			t.Fatalf("replay -scheme %s: %v\n%s", scheme, err, out)
		}
		if want := fmt.Sprintf("replayed %d chunks", records); !strings.Contains(string(out), want) {
			t.Fatalf("replay -scheme %s: want %q in\n%s", scheme, want, out)
		}
	}

	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.trace")
	if err := os.WriteFile(cut, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(tg, "replay", "-in", cut, "-nodes", "4").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "trace: truncated record") {
		t.Fatalf("replay of a truncated trace: err = %v, want a non-zero exit naming the truncated record:\n%s", err, out)
	}
}

func TestSigmaBenchListsAndRunsModes(t *testing.T) {
	bench := filepath.Join(buildBinaries(t, "sigma-bench"), "sigma-bench")

	listing, err := exec.Command(bench).Output()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table1", "fig7", "rebalance", "kill", "tenants", "scaleout", "all"} {
		if !strings.Contains(string(listing), name) {
			t.Errorf("listing omits %q:\n%s", name, listing)
		}
	}
	// A retired mode is unknown: the list on stderr, a non-zero exit.
	var stderr bytes.Buffer
	unknown := exec.Command(bench, "-mode", "ingest")
	unknown.Stderr = &stderr
	if err := unknown.Run(); err == nil {
		t.Error("unknown -mode exited zero")
	}
	if !strings.Contains(stderr.String(), strings.TrimSpace(string(listing))) {
		t.Errorf("unknown -mode did not print the listing:\n%s", stderr.String())
	}

	out, err := exec.Command(bench, "-json", "-mb", "2", "-nodes", "2", "-mode", "kill").Output()
	if err != nil {
		t.Fatalf("kill mode: %v", err)
	}
	var rep struct {
		Experiment    string `json:"experiment"`
		FailoverReads int64  `json:"failover_reads"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("kill mode output is not one JSON object: %v\n%s", err, out)
	}
	if rep.Experiment != "kill" || rep.FailoverReads == 0 {
		t.Fatalf("kill report = %+v", rep)
	}
}
