// Command bench is the repository's one benchmark: four lifecycle
// workloads (setup → ingest → restore → reclaim) driven through the public
// v2 API, eleven end-to-end metrics, and a traced per-layer breakdown.
// See README.md in this directory.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	quick     bool
	selfcheck bool
	dir       string
	out       string
	child     string // internal: "rep" or "trace" — this process is one repetition
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and end with the one-line JSON result (default: all four, one envelope)")
	flag.Int64Var(&o.seed, "seed", 7, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long to keep starting measured repetitions, per workload")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics and out/trace-<workload>.json")
	flag.BoolVar(&o.quick, "quick", false, "1/32 sizes, one repetition, no warm-up (smoke test)")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "A/A: run everything twice, fail if an end-to-end median moves by more than its bound")
	flag.StringVar(&o.dir, "dir", "", "scratch directory for node state and sockets (default <out dir>/tmp)")
	flag.StringVar(&o.out, "out", "", "envelope file (default <out dir>/bench.json)")
	flag.StringVar(&o.child, "child", "", "internal")
	flag.Parse()
	if flag.NArg() > 0 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: usage: bench [-workload w] [-seed n] [-seconds s] [-trace 0|1] [-quick] [-selfcheck] [-dir d] [-out f]")
		os.Exit(2)
	}
	if o.dir == "" {
		o.dir = filepath.Join(outDir(), "tmp")
	}
	code, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// outDir is where traces and envelopes go: bench/out from the repository
// root, out from inside bench/.
func outDir() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func run(o options) (int, error) {
	ctx := context.Background()
	switch {
	case o.child != "":
		return runChild(ctx, o)
	case o.selfcheck:
		return runSelfcheck(ctx, o)
	case o.workload != "":
		sp := specByName(o.workload)
		if sp == nil {
			return 2, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
		}
		// One half per invocation: the driver's time budget is per run.
		wr, err := runWorkload(ctx, o, sp, o.trace == 0, o.trace == 1)
		if err != nil {
			return 1, err
		}
		wr.print(os.Stdout)
		if o.out != "" {
			if err := writeEnvelope(o.out, o, []*workloadResult{wr}); err != nil {
				return 1, err
			}
		}
		// The contract line: the last line of standard output.
		line, err := json.Marshal(wr.contractResult(o.trace))
		if err != nil {
			return 1, err
		}
		fmt.Println(string(line))
		if wr.Failed > 0 {
			return 1, nil
		}
		return 0, nil
	default:
		results, err := runAll(ctx, o)
		if err != nil {
			return 1, err
		}
		return exitFor(results), nil
	}
}

func exitFor(results []*workloadResult) int {
	for _, wr := range results {
		if wr.Failed > 0 {
			return 1
		}
	}
	return 0
}

// runAll runs every workload (its repetitions are child processes) and
// writes the envelope: end-to-end numbers from the untraced path and,
// with -trace 1, the layers from the traced one.
func runAll(ctx context.Context, o options) ([]*workloadResult, error) {
	var results []*workloadResult
	for _, sp := range workloads {
		wr, err := runWorkload(ctx, o, sp, true, o.trace == 1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		wr.print(os.Stdout)
		results = append(results, wr)
	}
	out := o.out
	if out == "" {
		out = filepath.Join(outDir(), "bench.json")
	}
	return results, writeEnvelope(out, o, results)
}

// runSelfcheck is the A/A mode: two full untraced runs of the same
// binary must agree on every end-to-end median within that metric's own
// bound.
func runSelfcheck(ctx context.Context, o options) (int, error) {
	o.trace = 0
	a, err := runAll(ctx, o)
	if err != nil {
		return 1, err
	}
	b, err := runAll(ctx, o)
	if err != nil {
		return 1, err
	}
	bad := 0
	for i := range a {
		for _, m := range endToEnd {
			x, y := a[i].Metrics[m.name].Median, b[i].Metrics[m.name].Median
			worse := (y - x) / x
			if m.better == "higher" {
				worse = (x - y) / x
			}
			verdict := "ok"
			if math.Abs(worse) > m.bound {
				verdict = "OUTSIDE BOUND"
				bad++
			}
			fmt.Printf("selfcheck %-17s %-21s %12.4f %12.4f  %+6.1f%% (bound %.0f%%) %s\n",
				a[i].Name, m.name, x, y, 100*worse, 100*m.bound, verdict)
		}
	}
	if bad > 0 {
		return 1, fmt.Errorf("selfcheck: %d end-to-end medians moved by more than their bound between two runs of the same binary", bad)
	}
	return max(exitFor(a), exitFor(b)), nil
}

// childResult is what one child process reports on its last line: one
// untraced repetition of the lifecycle ("rep") or the traced replay
// ("replay").
type childResult struct {
	E2E       map[string]float64 `json:"e2e,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Canary    float64            `json:"canary_mb_s"`
	// IngestWall and DedupRatio let the parent relate the replay to the
	// product run; IngestBusy is the replay's traced busy time.
	IngestWall float64 `json:"ingest_wall_s,omitempty"`
	IngestBusy float64 `json:"ingest_busy_s,omitempty"`
	DedupRatio float64 `json:"dedup_ratio"`
	// DataDigest fingerprints the generated input; Counts are the traced
	// run's boundary counts. Both repeat exactly for a given seed.
	DataDigest string           `json:"data_digest"`
	Counts     map[string]int64 `json:"counts,omitempty"`
}

// runChild is one repetition (or the replay) in a process of its own, so
// each starts from the same memory state: inside one long-lived process
// the Go heap's reuse of returned pages makes otherwise identical
// repetitions differ by 2x in system time.
func runChild(ctx context.Context, o options) (int, error) {
	sp := specByName(o.workload)
	if sp == nil {
		return 2, fmt.Errorf("unknown workload %q", o.workload)
	}
	ds, err := sp.build(o.seed, o.quick)
	if err != nil {
		return 1, err
	}
	var orc oracle
	res := childResult{DataDigest: ds.digest()}
	switch o.child {
	case "rep":
		rep, err := runRep(ctx, sp, ds, o.dir, &orc)
		if err != nil {
			return 1, err
		}
		rss, err := rssPeakMB()
		if err != nil {
			return 1, err
		}
		res.Canary, res.IngestWall, res.DedupRatio = rep.canary, rep.ingest.wall, rep.afterIngest.DedupRatio
		res.E2E, res.Layers = rep.endToEnd(rss), rep.layerMetrics()
	case "replay":
		res.Canary = canaryMBs()
		tr, err := runReplay(ctx, sp, ds, o.dir, &orc)
		if err != nil {
			return 1, err
		}
		orc.check("span tree", checkSpans(tr.spans))
		res.Layers, res.IngestBusy, res.DedupRatio = tr.layers, tr.ingestBusy, tr.dedupRatio
		res.Layers["trace.spans"] = float64(len(tr.spans))
		res.Layers["trace.overhead_pct"] = 100 * ratio(float64(len(tr.spans))*spanCostSeconds(), tr.wall)
		res.Counts = map[string]int64{
			"spans":        int64(len(tr.spans)),
			"chunks":       tr.chunks,
			"super_chunks": int64(tr.layers["core.super_chunks"]),
		}
		if err := os.MkdirAll(outDir(), 0o755); err != nil {
			return 1, err
		}
		if err := writeTrace(filepath.Join(outDir(), "trace-"+sp.name+".json"), sp.name, o.seed, tr.spans); err != nil {
			return 1, err
		}
	default:
		return 2, fmt.Errorf("unknown child role %q", o.child)
	}
	res.Attempted, res.Failed = orc.attempted, orc.failed
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	return 0, nil
}

// digest fingerprints the whole generated input (item names and block
// seeds; payloads are a pure function of the seeds).
func (d *dataset) digest() string {
	h := sha256.New()
	for _, it := range d.all() {
		fmt.Fprintf(h, "%s:%d:", it.Name, len(it.Blocks))
		for _, b := range it.Blocks {
			fmt.Fprintf(h, "%x,", b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (res repResult) endToEnd(rssMB float64) map[string]float64 {
	gb := func(b int64) float64 { return float64(b) / 1e9 }
	return map[string]float64{
		"setup_s":              res.setup.wall,
		"ingest_mb_s":          ratio(float64(res.timedBytes)/1e6, res.ingest.wall),
		"restore_mb_s":         ratio(float64(res.restoredBytes)/1e6, res.restore.wall),
		"ingest_cpu_s_per_gb":  ratio(res.ingest.cpu, gb(res.timedBytes)),
		"restore_cpu_s_per_gb": ratio(res.restore.cpu, gb(res.restoredBytes)),
		"reclaim_s_per_gb":     ratio(res.reclaim.wall, gb(res.deletedBytes)),
		"dedup_ratio":          res.afterIngest.DedupRatio,
		"space_amp":            ratio(float64(res.afterReclaim.PhysicalBytes), float64(res.liveUnique)),
		"wire_ratio":           ratio(float64(res.sessions.TransferredBytes), float64(res.sessions.LogicalBytes)),
		"storage_skew":         1 + res.afterIngest.StorageSkew,
		"rss_peak_mb":          rssMB,
	}
}

// layerMetrics is the part of the per-layer breakdown that comes from
// the untraced product run: the modules' counters and the public stats.
func (res repResult) layerMetrics() map[string]float64 {
	out := res.layers
	out["store.compact_rewritten_mb"] = float64(res.gcReclaim.CopiedBytes) / 1e6
	out["store.compact_retired"] = float64(res.gcReclaim.ContainersRetired)
	out["store.reclaimed_mb"] = float64(res.gcReclaim.ReclaimedBytes) / 1e6
	out["store.dead_mb_after"] = float64(res.gcAfter.DeadBytes) / 1e6
	out["store.restore_post_gc_mb_s"] = ratio(float64(res.postGCBytes)/1e6, res.postGC.wall)
	out["store.recover_s"] = res.recover.wall
	out["store.disk_bytes_per_user_byte"] = ratio(float64(res.diskBytes), float64(res.sessions.LogicalBytes))
	out["client.peak_buffered_mb"] = float64(res.sessions.PeakBufferedBytes) / 1e6
	out["client.chunk_buf_reuse_rate"] = ratio(float64(res.sessions.ChunkBufReuses),
		float64(res.sessions.ChunkBufReuses+res.sessions.ChunkBufAllocs))
	lat := summarize(res.backupMs)
	out["client.gen_ingest_ms_p50"] = lat.Median
	sort.Float64s(res.backupMs)
	out["client.gen_ingest_ms_max"] = res.backupMs[len(res.backupMs)-1]
	mb := float64(res.timedBytes) / 1e6
	out["proc.mallocs_per_mb"] = ratio(float64(res.mem.mallocs), mb)
	out["proc.alloc_mb_per_gb"] = ratio(float64(res.mem.allocBytes)/1e6, mb/1e3)
	out["proc.gc_cycles"] = float64(res.mem.gcCycles)
	out["proc.gc_pause_ms"] = res.mem.gcPauseMs
	return out
}

// metricSummary is one end-to-end metric of one workload in the envelope.
type metricSummary struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	summary
	// CanaryNormalised is the median of value/canary over repetitions
	// (throughput metrics only): MB/s per canary MB/s.
	CanaryNormalised float64 `json:"canary_normalised,omitempty"`
}

type layerValue struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// workloadResult is one workload's entry in the envelope. Layers holds
// the traced half's raw values until finish gives them their units.
type workloadResult struct {
	Name          string                   `json:"name"`
	Why           string                   `json:"why"`
	Metrics       map[string]metricSummary `json:"metrics,omitempty"`
	Layers        map[string]float64       `json:"-"`
	LayerValues   map[string]layerValue    `json:"layers,omitempty"`
	Attempted     int                      `json:"attempted"`
	Failed        int                      `json:"failed"`
	ErrorRate     float64                  `json:"error_rate"`
	DiscardedReps int                      `json:"discarded_reps"`
	CanaryMBs     float64                  `json:"canary_mb_s"`
	DataDigest    string                   `json:"data_digest"`
	Counts        map[string]int64         `json:"counts,omitempty"`
}

// spawn runs one repetition as a child process and parses its last line.
func spawn(ctx context.Context, o options, sp *spec, role string, n int, quick bool) (childResult, error) {
	var res childResult
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	dir := filepath.Join(o.dir, fmt.Sprintf("%s-%d-%d", sp.name, os.Getpid(), n))
	args := []string{"-child", role, "-workload", sp.name, "-seed", fmt.Sprint(o.seed), "-dir", dir}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	if rmErr := os.RemoveAll(dir); runErr == nil {
		runErr = rmErr
	}
	if runErr != nil {
		return res, fmt.Errorf("repetition %d: %w", n, runErr)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("repetition %d: bad result line: %w", n, err)
	}
	return res, nil
}

// runWorkload measures one workload. After a discarded warm-up
// repetition, the untraced half runs measured repetitions (each a fresh
// process on a fresh cluster) for o.seconds, at least three, and every
// end-to-end metric is the median over them; a repetition whose host
// canary is more than 10 % off the run's median is discarded and rerun, at
// most twice. The traced half adds the per-layer metrics.
func runWorkload(ctx context.Context, o options, sp *spec, untraced, traced bool) (*workloadResult, error) {
	wr := &workloadResult{Name: sp.name, Why: sp.why}
	n := 0
	next := func(role string, quick bool) (childResult, error) {
		n++
		return spawn(ctx, o, sp, role, n, quick)
	}
	if !o.quick {
		// The warm-up only has to pull the binary and the scratch
		// directory into the OS caches, so it runs at -quick size.
		if _, err := next("rep", true); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if traced {
		if err := wr.traced(next, o.quick); err != nil {
			return nil, err
		}
	}
	if !untraced {
		return wr.finish(nil), nil
	}

	minReps := 3
	if o.quick {
		minReps = 1
	}
	var reps []childResult
	start := time.Now()
	for len(reps) < minReps || (!o.quick && time.Since(start).Seconds() < o.seconds) {
		res, err := next("rep", o.quick)
		if err != nil {
			return nil, err
		}
		reps = append(reps, res)
	}
	for wr.DiscardedReps < 2 {
		canaries := make([]float64, len(reps))
		for i, r := range reps {
			canaries[i] = r.Canary
		}
		med := median(canaries)
		bad := -1
		for i, c := range canaries {
			if math.Abs(c-med) > 0.10*med {
				bad = i
				break
			}
		}
		if bad < 0 {
			break
		}
		wr.DiscardedReps++
		res, err := next("rep", o.quick)
		if err != nil {
			return nil, err
		}
		reps[bad] = res
	}
	for _, r := range reps {
		wr.add(r)
	}
	return wr.finish(reps), nil
}

// maxDedupDelta is how far the replay's dedup ratio may sit from the
// product's before the traced run is declared unrepresentative. The
// product's own ratio moves by a few percent between identical runs on
// the incremental workloads (queries race the in-flight stores of
// neighbouring super-chunks), so the band has to be wider than that.
const maxDedupDelta = 0.15

// traced is the traced run: one untraced repetition for the counters the
// product keeps itself, then the replay, each in its own process.
func (wr *workloadResult) traced(next func(role string, quick bool) (childResult, error), quick bool) error {
	rep, err := next("rep", quick)
	if err != nil {
		return err
	}
	tr, err := next("replay", quick)
	if err != nil {
		return err
	}
	wr.add(rep)
	wr.add(tr)
	wr.Layers = rep.Layers
	for k, v := range tr.Layers {
		wr.Layers[k] = v
	}
	wr.Layers["client.pipeline_overlap"] = ratio(tr.IngestBusy, rep.IngestWall)
	wr.Layers["host.canary_mb_s"] = (rep.Canary + tr.Canary) / 2
	delta := math.Abs(tr.DedupRatio-rep.DedupRatio) / rep.DedupRatio
	wr.Layers["trace.dedup_ratio_delta"] = delta
	// At -quick size a generation is one or two super-chunks and a single
	// routing race moves the ratio by tens of percent: nothing to check.
	wr.Attempted++
	if delta > maxDedupDelta && !quick {
		wr.Failed++
		fmt.Fprintf(os.Stderr, "bench: FAILED %s: replay dedup ratio %.4f vs product %.4f: the replay no longer represents the product\n",
			wr.Name, tr.DedupRatio, rep.DedupRatio)
	}
	wr.finish(nil)
	return nil
}

func (wr *workloadResult) add(r childResult) {
	wr.Attempted += r.Attempted
	wr.Failed += r.Failed
	wr.DataDigest = r.DataDigest
	if r.Counts != nil {
		wr.Counts = r.Counts
	}
}

// finish turns the repetitions' samples (none when only the traced half
// ran) into the envelope's summaries.
func (wr *workloadResult) finish(reps []childResult) *workloadResult {
	wr.ErrorRate = ratio(float64(wr.Failed), float64(wr.Attempted))
	if len(reps) > 0 {
		wr.Metrics = map[string]metricSummary{}
		var canaries []float64
		for _, r := range reps {
			canaries = append(canaries, r.Canary)
		}
		wr.CanaryMBs = median(canaries)
		for _, m := range endToEnd {
			var vs, norm []float64
			for _, r := range reps {
				vs = append(vs, r.E2E[m.name])
				norm = append(norm, ratio(r.E2E[m.name], r.Canary))
			}
			ms := metricSummary{Unit: m.unit, Better: m.better, Bound: m.bound, summary: summarize(vs)}
			if throughput[m.name] {
				ms.CanaryNormalised = median(norm)
			}
			wr.Metrics[m.name] = ms
		}
	}
	if wr.Layers != nil {
		if len(reps) == 0 {
			wr.CanaryMBs = wr.Layers["host.canary_mb_s"]
		}
		wr.Layers["host.discarded_reps"] = float64(wr.DiscardedReps)
		wr.LayerValues = map[string]layerValue{}
		for _, m := range perLayer {
			wr.LayerValues[m.name] = layerValue{Unit: m.unit, Value: wr.Layers[m.name]}
		}
	}
	return wr
}

// print lists every metric by name with unit, median, quartiles and n.
func (wr *workloadResult) print(w *os.File) {
	fmt.Fprintf(w, "== %s  (attempted %d, failed %d, discarded reps %d, canary %.0f MB/s)\n",
		wr.Name, wr.Attempted, wr.Failed, wr.DiscardedReps, wr.CanaryMBs)
	if wr.Metrics != nil {
		for _, m := range endToEnd {
			s := wr.Metrics[m.name]
			fmt.Fprintf(w, "%-22s %-6s median %12.4f  q1 %12.4f  q3 %12.4f  n %d", m.name, m.unit, s.Median, s.Q1, s.Q3, s.N)
			if throughput[m.name] {
				fmt.Fprintf(w, "  per-canary %.4f", s.CanaryNormalised)
			}
			fmt.Fprintln(w)
		}
	}
	if wr.Layers != nil {
		for _, m := range perLayer {
			fmt.Fprintf(w, "%-36s %-9s %14.4f\n", m.name, m.unit, wr.Layers[m.name])
		}
	}
}

// contractResult is the one-line result the driver reads: the
// end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func (wr *workloadResult) contractResult(trace int) map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if trace == 1 {
		for _, m := range perLayer {
			metrics[m.name] = value{wr.Layers[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = value{wr.Metrics[m.name].Median, m.unit}
		}
	}
	return map[string]any{
		"correct":   wr.Failed == 0,
		"attempted": wr.Attempted,
		"failed":    wr.Failed,
		"metrics":   metrics,
	}
}

// writeEnvelope writes the one JSON schema every mode emits.
func writeEnvelope(path string, o options, results []*workloadResult) error {
	var canaries []float64
	for _, wr := range results {
		canaries = append(canaries, wr.CanaryMBs)
	}
	env := map[string]any{
		"bench": "sigmadedupe-lifecycle",
		"host":  newHostInfo(median(canaries)),
		"config": map[string]any{
			"seed": o.seed, "seconds": o.seconds, "quick": o.quick, "trace": o.trace,
		},
		"workloads": results,
	}
	raw, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func specByName(name string) *spec {
	for _, sp := range workloads {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, sp := range workloads {
		out = append(out, sp.name)
	}
	return out
}
