package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclaredNames keeps the tables in metrics.go and workloads.go in
// step with BENCHMARK.json.
func TestDeclaredNames(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q / %q, the benchmark %q / %q",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	seen := map[string]bool{}
	check := func(kind, name, unit, better string) {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || (better != "higher" && better != "lower") {
			t.Errorf("%s metric %q: bad name, unit %q or direction %q", kind, name, unit, better)
		}
		if seen[name] {
			t.Errorf("metric name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json says %+v, the benchmark %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		check("end-to-end", m.Name, m.Unit, m.Better)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer %d: BENCHMARK.json says %+v, the benchmark %+v", i, m, want)
		}
		if want.moves == "" {
			t.Errorf("per-layer %q does not say what it should move", m.Name)
		}
		check("per-layer", m.Name, m.Unit, m.Better)
	}
}

// TestSeedMakesInputs: the same seed gives the same inputs, another seed
// other inputs, on every workload.
func TestSeedMakesInputs(t *testing.T) {
	for _, sp := range workloads {
		var digests [3]string
		for i, seed := range []int64{7, 7, 8} {
			ds, err := sp.build(seed, true)
			if err != nil {
				t.Fatalf("%s: %v", sp.name, err)
			}
			digests[i] = ds.digest()
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: same seed, different inputs", sp.name)
		}
		if digests[0] == digests[2] {
			t.Errorf("%s: different seed, same inputs", sp.name)
		}
	}
}

// envelope is the part of the output schema the smoke test reads.
type envelope struct {
	Workloads []struct {
		Name       string                     `json:"name"`
		Metrics    map[string]json.RawMessage `json:"metrics"`
		Layers     map[string]json.RawMessage `json:"layers"`
		Failed     int                        `json:"failed"`
		DataDigest string                     `json:"data_digest"`
		Counts     map[string]int64           `json:"counts"`
	} `json:"workloads"`
}

func readEnvelope(t *testing.T, path string) envelope {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	return env
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, m := range defs {
		out[i] = m.name
	}
	sort.Strings(out)
	return out
}

// TestQuickRun is the smoke test: the whole benchmark at 1/32 size, traced,
// with no assertion on any timing.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark binary")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// run executes the binary in its own working directory (sockets and
	// outputs land under it) and returns standard output.
	run := func(dir string, args ...string) string {
		t.Helper()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("bench %v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	full := func(dir, seed string) envelope {
		t.Helper()
		run(dir, "-quick", "-trace", "1", "-seed", seed, "-out", "env.json")
		return readEnvelope(t, filepath.Join(dir, "env.json"))
	}

	a := full(filepath.Join(tmp, "a"), "7")
	if len(a.Workloads) != len(workloads) {
		t.Fatalf("envelope has %d workloads, want %d", len(a.Workloads), len(workloads))
	}
	for i, w := range a.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloads[i].name)
		}
		if w.Failed != 0 {
			t.Errorf("%s: %d operations failed", w.Name, w.Failed)
		}
		if got, want := keys(w.Metrics), sortedNames(endToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: end-to-end metrics printed %v, declared %v", w.Name, got, want)
		}
		if got, want := keys(w.Layers), sortedNames(perLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: per-layer metrics printed %v, declared %v", w.Name, got, want)
		}
		// The span tree the traced run wrote must be well formed.
		raw, err := os.ReadFile(filepath.Join(tmp, "a", "out", "trace-"+w.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tr struct{ Spans []span }
		if err := json.Unmarshal(raw, &tr); err != nil {
			t.Fatal(err)
		}
		if len(tr.Spans) == 0 {
			t.Errorf("%s: empty trace", w.Name)
		}
		if err := checkSpans(tr.Spans); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		for name, s := range selfSeconds(tr.Spans) {
			if s < 0 {
				t.Errorf("%s: layer %s has negative self time", w.Name, name)
			}
		}
	}

	// Same seed: identical inputs and identical traced-run counts.
	b := full(filepath.Join(tmp, "b"), "7")
	for i := range a.Workloads {
		if a.Workloads[i].DataDigest != b.Workloads[i].DataDigest {
			t.Errorf("%s: same seed, different data digest", a.Workloads[i].Name)
		}
		if !reflect.DeepEqual(a.Workloads[i].Counts, b.Workloads[i].Counts) {
			t.Errorf("%s: same seed, traced counts %v vs %v", a.Workloads[i].Name, a.Workloads[i].Counts, b.Workloads[i].Counts)
		}
	}

	// The one-workload mode ends with the one-line result; with another
	// seed it also shows that the inputs follow the seed.
	for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		dir := filepath.Join(tmp, "w"+trace)
		out := run(dir, "-quick", "-workload", "incremental-disk", "-trace", trace, "-seed", "8", "-out", "env.json")
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var res struct {
			Correct   *bool                      `json:"correct"`
			Attempted *int                       `json:"attempted"`
			Failed    *int                       `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("trace %s: last line is not the result object: %v", trace, err)
		}
		if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
			t.Errorf("trace %s: result %s", trace, lines[len(lines)-1])
		}
		if got, want := keys(res.Metrics), sortedNames(defs); !reflect.DeepEqual(got, want) {
			t.Errorf("trace %s: result metrics %v, declared %v", trace, got, want)
		}
		other := readEnvelope(t, filepath.Join(dir, "env.json"))
		for _, w := range a.Workloads {
			if w.Name == other.Workloads[0].Name && w.DataDigest == other.Workloads[0].DataDigest {
				t.Errorf("%s: different seed, same data digest", w.Name)
			}
		}
	}
}

// TestSourceClean keeps the benchmark's own files gofmt- and vet-clean
// (it is a module of its own, so the repository's checks do not reach it).
func TestSourceClean(t *testing.T) {
	out, err := exec.Command("gofmt", "-l", ".").CombinedOutput()
	if err != nil {
		t.Skipf("gofmt unavailable: %v", err)
	}
	if s := strings.TrimSpace(string(out)); s != "" {
		t.Errorf("gofmt needed on: %s", s)
	}
	if out, err := exec.Command("go", "vet", ".").CombinedOutput(); err != nil {
		t.Errorf("go vet: %v\n%s", err, out)
	}
}
