// Command sigma-bench regenerates the tables and figures of the paper's
// evaluation section (internal/experiments) and runs the four scenario
// benchmarks the repo benchmark (bench/, BENCHMARK.json) has no workload
// for yet: "rebalance" (elastic membership: migration under concurrent
// ingest), "kill" (R=2 failover restore and repair), "tenants"
// (weighted-fair scheduling, dedup domains, quotas) and "scaleout" (the
// bid-summary routing sweep). Throughput, memory, GC, recovery and wire
// measurements live in bench/ — see EXPERIMENTS.md for the successor
// metric of each retired mode. With no arguments it lists what it can
// run; "all" runs every paper experiment.
//
// Usage:
//
//	sigma-bench [-scale 1.0] [-quick] [-json] all|fig1|...|table2|ram ...
//	sigma-bench [-json] [-mb 32] [-nodes 3] -mode rebalance
//	sigma-bench [-json] [-mb 32] [-nodes 3] -mode kill
//	sigma-bench [-json] [-nodes 4] [-streams 240] -mode tenants
//	sigma-bench [-json] [-scale 1.0] [-nodes N] [-sc KB] [-schemes csv] -mode scaleout
//
// With -json every result is emitted as one JSON object per line (the
// shape of the checked-in BENCH_{rebalance,failover,tenants,scaleout}.json).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"sigmadedupe"
	"sigmadedupe/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sigma-bench:", err)
		os.Exit(1)
	}
}

// options are the parsed flags a benchmark may read.
type options struct {
	scale    float64
	quick    bool
	nodes    int
	nodesSet bool // -nodes given explicitly (scaleout: one grid point)
	mb       int
	streams  int
	scKB     int64
	workload string
	schemes  string
	seed     int64
}

// report is one benchmark result: JSON-encodable, or printed as text.
type report interface{ print(*os.File) }

// benchmark is one runnable name.
type benchmark struct {
	name string
	run  func(o options) (report, error)
}

// benchmarks is the one table of everything sigma-bench can run — the
// paper experiments, then the scenario modes. The dispatcher and the
// "available" listing both read it.
func benchmarks() []benchmark {
	var t []benchmark
	for _, name := range experiments.Names() {
		name := name
		t = append(t, benchmark{name, func(o options) (report, error) { return runPaper(name, o) }})
	}
	return append(t,
		benchmark{"rebalance", func(o options) (report, error) { return runRebalance(o.mb, o.nodes) }},
		benchmark{"kill", func(o options) (report, error) { return runKill(o.mb, o.nodes) }},
		benchmark{"tenants", func(o options) (report, error) {
			return runTenants(tenantsConfig{Nodes: o.nodes, Sessions: o.streams, Seed: o.seed})
		}},
		benchmark{"scaleout", func(o options) (report, error) {
			// -nodes/-sc narrow the sweep grid to one point each when
			// set; -schemes narrows the scheme axis.
			cfg := scaleoutConfig{Workload: o.workload, Scale: o.scale, Seed: o.seed}
			if o.nodesSet {
				cfg.NodeCounts = []int{o.nodes}
			}
			if o.scKB > 0 {
				cfg.SCKBs = []int64{o.scKB}
			}
			if o.schemes != "" {
				cfg.Schemes = strings.Split(o.schemes, ",")
			}
			return runScaleout(cfg)
		}},
	)
}

// available renders the table's names for the listing and the
// unknown-name error.
func available(table []benchmark) string {
	names := make([]string, len(table))
	for i, b := range table {
		names[i] = b.name
	}
	return "available experiments: " + strings.Join(names, ", ") + ", all"
}

func run(args []string) error {
	var o options
	fs := flag.NewFlagSet("sigma-bench", flag.ContinueOnError)
	fs.Float64Var(&o.scale, "scale", 1.0, "dataset scale multiplier (smaller = faster)")
	fs.BoolVar(&o.quick, "quick", false, "trim sweeps to a few points")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON, one object per line")
	fs.IntVar(&o.nodes, "nodes", 4, "rebalance/kill/tenants: number of nodes; scaleout: the one cluster size to run")
	fs.IntVar(&o.mb, "mb", 32, "rebalance/kill: logical MB backed up per generation")
	fs.StringVar(&o.workload, "workload", "", "scaleout: generational dataset (linux|vm|mail|web; default linux)")
	fs.Int64Var(&o.seed, "seed", 7, "tenants/scaleout: workload generator seed")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile of the whole run to this file")
	fs.Int64Var(&o.scKB, "sc", 0, "scaleout: the one super-chunk size in KB to run (0 = the full grid)")
	fs.IntVar(&o.streams, "streams", 240, "tenants: concurrent backup sessions across all tenants")
	fs.StringVar(&o.schemes, "schemes", "", "scaleout: comma-separated routing schemes (default sigma,stateless,stateful,eb)")
	mode := fs.String("mode", "", "run one experiment by name (alias for the positional argument, e.g. -mode kill)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := fs.Args()
	if *mode != "" {
		names = append(names, *mode)
	}
	table := benchmarks()
	if len(names) == 0 {
		fmt.Println(available(table))
		return nil
	}
	if len(names) == 1 && names[0] == "all" {
		names = experiments.Names()
	}
	byName := make(map[string]benchmark, len(table))
	for _, b := range table {
		byName[b.name] = b
	}
	for _, name := range names {
		if _, ok := byName[name]; !ok {
			fmt.Fprintln(os.Stderr, available(table))
			return fmt.Errorf("unknown experiment %q", name)
		}
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "nodes" {
			o.nodesSet = true
		}
	})
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer func() {
			_ = pprof.Lookup("allocs").WriteTo(f, 0)
			f.Close()
		}()
	}
	enc := json.NewEncoder(os.Stdout)
	for _, name := range names {
		rep, err := byName[name].run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if *jsonOut {
			if err := enc.Encode(rep); err != nil {
				return err
			}
			continue
		}
		rep.print(os.Stdout)
	}
	return nil
}

// tableReport is the JSON shape of one paper experiment.
type tableReport struct {
	Experiment string     `json:"experiment"`
	Title      string     `json:"title"`
	Headers    []string   `json:"headers"`
	Rows       [][]string `json:"rows"`
	Notes      []string   `json:"notes,omitempty"`
	ElapsedMS  int64      `json:"elapsed_ms"`

	tab *experiments.Table
}

func (r *tableReport) print(w *os.File) {
	r.tab.Fprint(w)
	fmt.Fprintf(w, "  [%s completed in %v]\n\n", r.Experiment, time.Duration(r.ElapsedMS)*time.Millisecond)
}

// runPaper runs one internal/experiments table.
func runPaper(name string, o options) (*tableReport, error) {
	start := time.Now()
	tab, err := experiments.Run(name, experiments.Options{Scale: o.scale, Quick: o.quick})
	if err != nil {
		return nil, err
	}
	return &tableReport{
		Experiment: tab.Name,
		Title:      tab.Title,
		Headers:    tab.Headers,
		Rows:       tab.Rows,
		Notes:      tab.Notes,
		ElapsedMS:  time.Since(start).Milliseconds(),
		tab:        tab,
	}, nil
}

// streamSource yields exactly n pseudo-random bytes — a stream, not a
// buffer: the bench proves the session never materializes it. Content is
// a fixed random template with a counter stamped into every 4KB block,
// so every chunk is unique (the heaviest dedup path) while the source
// itself runs at memcpy speed and stays out of the measured hot path.
type streamSource struct {
	rng      *rand.Rand
	left     int
	template []byte
	off      int    // position within the current template pass
	ctr      uint64 // per-4KB-block uniqueness counter
}

const streamTemplateSize = 256 << 10

func (s *streamSource) Read(p []byte) (int, error) {
	if s.left <= 0 {
		return 0, io.EOF
	}
	if s.template == nil {
		s.template = make([]byte, streamTemplateSize)
		s.rng.Read(s.template)
	}
	if len(p) > s.left {
		p = p[:s.left]
	}
	if s.off >= len(s.template) {
		s.off = 0
	}
	n := copy(p, s.template[s.off:])
	// Stamp the counter at each 4KB boundary crossed by this read; the
	// stream position is tracked via off so stamps stay block-aligned.
	for b := s.off &^ 4095; b < s.off+n; b += 4096 {
		if b >= s.off {
			s.ctr++
			for i, shift := 0, 0; i < 8 && b+i < s.off+n; i, shift = i+1, shift+8 {
				p[b-s.off+i] = byte(s.ctr >> shift)
			}
		}
	}
	s.off += n
	s.left -= n
	return n, nil
}

// rebalanceReport records one elastic-cluster cycle: ingest a
// generation, AddNode, then rebalance onto the new node while a second
// generation ingests concurrently. The acceptance criterion is
// IngestRatio: ingest throughput during the concurrent migration stays
// a healthy fraction of idle throughput.
type rebalanceReport struct {
	Experiment string `json:"experiment"`
	Nodes      int    `json:"nodes"`
	DataMB     int    `json:"data_mb"`
	// Migration volume and speed (Rebalance wall clock).
	BackupsMoved     int     `json:"backups_moved"`
	SuperChunksMoved int     `json:"super_chunks_moved"`
	BytesMigrated    int64   `json:"bytes_migrated"`
	MigrationSeconds float64 `json:"migration_seconds"`
	MigrationMBps    float64 `json:"migration_mb_s"`
	// Ingest throughput, same workload shape, without and with the
	// migration running concurrently.
	IngestMBpsIdle      float64 `json:"ingest_mb_s_idle"`
	IngestMBpsMigrating float64 `json:"ingest_mb_s_migrating"`
	IngestRatio         float64 `json:"ingest_ratio_migrating_vs_idle"`
	// NewNodeMB is the physical data the joined node holds afterwards.
	NewNodeMB float64 `json:"new_node_mb"`
}

func (r *rebalanceReport) print(w *os.File) {
	fmt.Fprintf(w, "== rebalance: %d+1 nodes, %d MB per generation\n", r.Nodes, r.DataMB)
	fmt.Fprintf(w, "  migrated: %d backups, %d super-chunks, %.1f MB in %.3fs (%.1f MB/s)\n",
		r.BackupsMoved, r.SuperChunksMoved, float64(r.BytesMigrated)/(1<<20),
		r.MigrationSeconds, r.MigrationMBps)
	fmt.Fprintf(w, "  ingest: %.1f MB/s idle, %.1f MB/s while migrating (ratio %.2f)\n",
		r.IngestMBpsIdle, r.IngestMBpsMigrating, r.IngestRatio)
	fmt.Fprintf(w, "  new node holds %.1f MB after rebalance\n\n", r.NewNodeMB)
}

// runRebalance measures the elastic-membership path end to end on the
// TCP prototype: `nNodes` loopback servers ingest one generation, a
// fresh server joins (AddNode), and Rebalance migrates existing
// super-chunks onto it while a second generation ingests concurrently.
func runRebalance(mb, nNodes int) (*rebalanceReport, error) {
	if mb <= 0 {
		mb = 32
	}
	if nNodes <= 0 {
		nNodes = 3
	}
	ctx := context.Background()
	addrs := make([]string, nNodes)
	for i := range addrs {
		srv, err := sigmadedupe.StartServer(sigmadedupe.ServerConfig{ID: i})
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		addrs[i] = srv.Addr()
	}
	be, err := sigmadedupe.NewRemote(ctx, sigmadedupe.RemoteConfig{
		Name:           "rebalance-bench",
		Director:       sigmadedupe.NewDirector(),
		Nodes:          addrs,
		SuperChunkSize: 256 << 10,
	})
	if err != nil {
		return nil, err
	}
	defer be.Close()

	const files = 4
	ingestGen := func(gen int) (float64, error) {
		sess, err := be.NewSession(ctx, sigmadedupe.WithSessionName(fmt.Sprintf("gen%d", gen)))
		if err != nil {
			return 0, err
		}
		defer sess.Close()
		perFile := mb << 20 / files
		start := time.Now()
		for f := 0; f < files; f++ {
			src := &streamSource{rng: rand.New(rand.NewSource(int64(100*gen + f))), left: perFile}
			if err := sess.Backup(ctx, fmt.Sprintf("/gen%d/file%d", gen, f), src); err != nil {
				return 0, err
			}
		}
		if err := sess.Flush(ctx); err != nil {
			return 0, err
		}
		return float64(files*perFile) / (1 << 20) / time.Since(start).Seconds(), nil
	}

	// Generation 1: idle ingest baseline.
	idleMBps, err := ingestGen(1)
	if err != nil {
		return nil, err
	}

	// A fresh node joins.
	joiner, err := sigmadedupe.StartServer(sigmadedupe.ServerConfig{ID: nNodes})
	if err != nil {
		return nil, err
	}
	defer joiner.Close()
	if _, err := be.AddNode(ctx, joiner.Addr()); err != nil {
		return nil, err
	}

	// Rebalance onto it while generation 2 ingests concurrently.
	type migOutcome struct {
		res     sigmadedupe.MigrationResult
		seconds float64
		err     error
	}
	migDone := make(chan migOutcome, 1)
	go func() {
		start := time.Now()
		res, err := be.Rebalance(ctx)
		migDone <- migOutcome{res: res, seconds: time.Since(start).Seconds(), err: err}
	}()
	migratingMBps, err := ingestGen(2)
	if err != nil {
		return nil, err
	}
	mig := <-migDone
	if mig.err != nil {
		return nil, mig.err
	}

	rep := &rebalanceReport{
		Experiment:          "rebalance",
		Nodes:               nNodes,
		DataMB:              mb,
		BackupsMoved:        mig.res.Backups,
		SuperChunksMoved:    mig.res.SuperChunks,
		BytesMigrated:       mig.res.Bytes,
		MigrationSeconds:    mig.seconds,
		IngestMBpsIdle:      idleMBps,
		IngestMBpsMigrating: migratingMBps,
		NewNodeMB:           float64(joiner.StorageUsage()) / (1 << 20),
	}
	if mig.seconds > 0 {
		rep.MigrationMBps = float64(mig.res.Bytes) / (1 << 20) / mig.seconds
	}
	if idleMBps > 0 {
		rep.IngestRatio = migratingMBps / idleMBps
	}
	return rep, nil
}

// killReport records one kill-a-node cycle on a replicated cluster:
// restore throughput healthy, with one node hard-dead (every read of its
// primaries failing over to replicas), and again after anti-entropy
// repair; plus the repair pass itself (promotions, re-replication
// volume, stray references released).
type killReport struct {
	Experiment string `json:"experiment"`
	Nodes      int    `json:"nodes"`
	DataMB     int    `json:"data_mb"`
	// Restore throughput across the three cluster states.
	RestoreMBpsHealthy  float64 `json:"restore_mb_s_healthy"`
	RestoreMBpsDegraded float64 `json:"restore_mb_s_degraded"`
	RestoreMBpsRepaired float64 `json:"restore_mb_s_repaired"`
	DegradedRatio       float64 `json:"restore_ratio_degraded_vs_healthy"`
	// FailoverReads is replica-served chunk reads during the degraded
	// pass.
	FailoverReads int64 `json:"failover_reads"`
	// The repair pass: wall clock, volume re-replicated, and outcome.
	RepairSeconds      float64 `json:"repair_seconds"`
	RepairMBps         float64 `json:"repair_mb_s"`
	PromotedChunks     int64   `json:"promoted_chunks"`
	RereplicatedChunks int64   `json:"rereplicated_chunks"`
	RepairBytes        int64   `json:"repair_bytes"`
	ReleasedRefs       int64   `json:"released_refs"`
}

func (r *killReport) print(w *os.File) {
	fmt.Fprintf(w, "== kill: %d nodes (R=2), %d MB, one node hard-killed\n", r.Nodes, r.DataMB)
	fmt.Fprintf(w, "  restore: %.1f MB/s healthy, %.1f MB/s with one node dead (ratio %.2f, %d failover reads), %.1f MB/s after repair\n",
		r.RestoreMBpsHealthy, r.RestoreMBpsDegraded, r.DegradedRatio, r.FailoverReads, r.RestoreMBpsRepaired)
	fmt.Fprintf(w, "  repair: promoted %d chunks, re-replicated %d (%.1f MB) in %.3fs (%.1f MB/s), released %d stray refs\n\n",
		r.PromotedChunks, r.RereplicatedChunks, float64(r.RepairBytes)/(1<<20),
		r.RepairSeconds, r.RepairMBps, r.ReleasedRefs)
}

// runKill measures node-crash survival end to end on the TCP prototype:
// `nNodes` loopback servers ingest one generation with R=2 replication,
// one server is hard-killed (its process closes, then KillNode drops it
// from the membership with no drain), every backup restores through
// replica failover, and Repair re-establishes R=2.
func runKill(mb, nNodes int) (*killReport, error) {
	if mb <= 0 {
		mb = 32
	}
	if nNodes <= 0 {
		nNodes = 3
	}
	if nNodes < 2 {
		return nil, fmt.Errorf("kill needs at least 2 nodes for R=2")
	}
	ctx := context.Background()
	srvs := make([]*sigmadedupe.Server, nNodes)
	addrs := make([]string, nNodes)
	victim := -1 // the server killed below is closed there
	defer func() {
		for i, srv := range srvs {
			if srv != nil && i != victim {
				srv.Close()
			}
		}
	}()
	for i := range addrs {
		srv, err := sigmadedupe.StartServer(sigmadedupe.ServerConfig{ID: i})
		if err != nil {
			return nil, err
		}
		srvs[i] = srv
		addrs[i] = srv.Addr()
	}
	dir := sigmadedupe.NewDirector()
	be, err := sigmadedupe.NewRemote(ctx, sigmadedupe.RemoteConfig{
		Name:           "kill-bench",
		Director:       dir,
		Nodes:          addrs,
		SuperChunkSize: 256 << 10,
		Replicas:       2,
	})
	if err != nil {
		return nil, err
	}
	defer be.Close()

	const files = 4
	perFile := mb << 20 / files
	names := make([]string, files)
	for f := 0; f < files; f++ {
		names[f] = fmt.Sprintf("/kill/file%d", f)
		src := &streamSource{rng: rand.New(rand.NewSource(int64(900 + f))), left: perFile}
		if err := be.Backup(ctx, names[f], src); err != nil {
			return nil, err
		}
	}
	if err := be.Flush(ctx); err != nil {
		return nil, err
	}

	restorePass := func() (float64, error) {
		start := time.Now()
		for _, name := range names {
			if err := be.Restore(ctx, name, io.Discard); err != nil {
				return 0, fmt.Errorf("restore %s: %w", name, err)
			}
		}
		return float64(files*perFile) / (1 << 20) / time.Since(start).Seconds(), nil
	}

	rep := &killReport{Experiment: "kill", Nodes: nNodes, DataMB: mb}
	if rep.RestoreMBpsHealthy, err = restorePass(); err != nil {
		return nil, err
	}

	// The crash: the victim's server dies, then the membership drops it.
	// The victim holds the primary copy of the first chunk restored, so
	// the degraded pass fails over at least once however placement fell
	// (at two nodes every primary can land on one of them).
	first, err := dir.GetRecipe(ctx, names[0])
	if err != nil {
		return nil, err
	}
	if len(first.Chunks) == 0 {
		return nil, fmt.Errorf("recipe %s is empty", names[0])
	}
	victim = int(first.Chunks[0].Node)
	if err := srvs[victim].Close(); err != nil {
		return nil, err
	}
	if err := be.KillNode(ctx, victim); err != nil {
		return nil, err
	}

	if rep.RestoreMBpsDegraded, err = restorePass(); err != nil {
		return nil, fmt.Errorf("degraded restore: %w", err)
	}
	rep.FailoverReads = be.BackupStats().FailoverReads
	if rep.FailoverReads == 0 {
		return nil, fmt.Errorf("degraded restore hit no replicas; the victim held nothing")
	}
	if rep.RestoreMBpsHealthy > 0 {
		rep.DegradedRatio = rep.RestoreMBpsDegraded / rep.RestoreMBpsHealthy
	}

	start := time.Now()
	res, err := be.Repair(ctx)
	if err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	rep.RepairSeconds = time.Since(start).Seconds()
	rep.PromotedChunks = res.PromotedChunks
	rep.RereplicatedChunks = res.RereplicatedChunks
	rep.RepairBytes = res.Bytes
	rep.ReleasedRefs = res.ReleasedRefs
	if rep.RepairSeconds > 0 {
		rep.RepairMBps = float64(res.Bytes) / (1 << 20) / rep.RepairSeconds
	}

	if rep.RestoreMBpsRepaired, err = restorePass(); err != nil {
		return nil, fmt.Errorf("post-repair restore: %w", err)
	}
	return rep, nil
}
