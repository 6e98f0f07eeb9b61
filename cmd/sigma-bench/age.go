package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"sigmadedupe"
	"sigmadedupe/internal/workload"
)

// ageConfig parameterizes the restore aging benchmark.
type ageConfig struct {
	Nodes       int   `json:"nodes"`
	ImageMB     int   `json:"image_mb"`
	Generations int   `json:"generations"`
	Seed        int64 `json:"-"`
}

// ageRetention is how many most-recent generations stay restorable; the
// generation falling off the window is deleted, feeding the compactor
// dead space the way a real retention policy does.
const ageRetention = 8

// ageCompactEvery is how often (in generations) a compaction scan runs.
const ageCompactEvery = 4

// ageFinalRuns is how many times the fully aged stream is restored at
// the end; the best run is reported (the bench shares cores with the
// servers, so the max is the least noisy estimator).
const ageFinalRuns = 2

// ageReport records one aging run: restore throughput generation by
// generation as churn fragments the image across containers, plus a
// final best-of restore of the fully aged stream.
type ageReport struct {
	Experiment   string  `json:"experiment"`
	Nodes        int     `json:"nodes"`
	ImageMB      int     `json:"image_mb"`
	Generations  int     `json:"generations"`
	ChurnPercent float64 `json:"churn_percent"`
	Retention    int     `json:"retention_generations"`
	CompactEvery int     `json:"compact_every_generations"`
	// PerGenMBps[g] is the batched restore throughput of generation g's
	// backup, measured right after it was taken.
	PerGenMBps []float64 `json:"per_gen_restore_mb_s"`
	Gen1MBps   float64   `json:"gen1_restore_mb_s"`
	GenNMBps   float64   `json:"genN_restore_mb_s"`
	// DecayRatio is gen-1 over gen-N restore throughput: how much restore
	// slowed down as the stream aged (1.0 = no decay; restore-aware
	// compaction and the read-ahead cache keep it near 1).
	DecayRatio float64 `json:"decay_ratio"`
	// Final restore of the fully aged stream (best of ageFinalRuns) and
	// the read RPCs the backend's restores issued over the whole run.
	BatchedMBps      float64 `json:"batched_restore_mb_s"`
	BatchedRPCs      int64   `json:"batched_restore_rpcs"`
	DedupRatio       float64 `json:"dedup_ratio"`
	CacheHits        uint64  `json:"read_cache_hits"`
	CacheMisses      uint64  `json:"read_cache_misses"`
	CacheEvictions   uint64  `json:"read_cache_evictions"`
	IngestSeconds    float64 `json:"ingest_seconds"`
	CompactedRetired int     `json:"compacted_containers_retired"`
}

func (r *ageReport) print(w *os.File) {
	fmt.Fprintf(w, "== age: %d generations of a %d MB image, %.0f%% churn, %d nodes, retention %d, compact every %d\n",
		r.Generations, r.ImageMB, 100*r.ChurnPercent, r.Nodes, r.Retention, r.CompactEvery)
	fmt.Fprintf(w, "  restore: gen1 %.1f MB/s -> gen%d %.1f MB/s (decay %.2fx)\n",
		r.Gen1MBps, r.Generations, r.GenNMBps, r.DecayRatio)
	fmt.Fprintf(w, "  aged stream: %.1f MB/s (%d restore RPCs over the run)\n", r.BatchedMBps, r.BatchedRPCs)
	fmt.Fprintf(w, "  read cache: %d hits, %d misses, %d evictions; dedup %.2f; %d containers compacted away\n\n",
		r.CacheHits, r.CacheMisses, r.CacheEvictions, r.DedupRatio, r.CompactedRetired)
}

// countWriter discards restored bytes, counting them.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// ageName is the backup name of one generation.
func ageName(gen int) string { return fmt.Sprintf("/age/gen%04d", gen) }

// restoreOnce restores one named backup through be, returning MB/s.
func restoreOnce(ctx context.Context, be *sigmadedupe.Remote, name string, wantBytes int64) (float64, error) {
	var cw countWriter
	start := time.Now()
	if err := be.Restore(ctx, name, &cw); err != nil {
		return 0, err
	}
	elapsed := time.Since(start).Seconds()
	if cw.n != wantBytes {
		return 0, fmt.Errorf("restore %s returned %d bytes, want %d", name, cw.n, wantBytes)
	}
	return float64(cw.n) / (1 << 20) / elapsed, nil
}

// runAge drives ~Generations generational backups of one churning image
// through the TCP prototype (durable disk-backed servers over unix
// sockets), deleting generations past the retention window and
// compacting periodically — the access pattern that fragments an aged
// backup across containers — and measures restore throughput per
// generation, ending with a best-of restore of the aged stream.
func runAge(cfg ageConfig) (*ageReport, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	if cfg.ImageMB <= 0 {
		cfg.ImageMB = 32
	}
	if cfg.Generations <= 0 {
		cfg.Generations = 100
	}
	ctx := context.Background()

	base, err := os.MkdirTemp("", "sigma-bench-age-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	servers := make([]*sigmadedupe.Server, cfg.Nodes)
	defer func() {
		for _, s := range servers {
			if s != nil {
				s.Close()
			}
		}
	}()
	addrs := make([]string, cfg.Nodes)
	for i := range servers {
		srv, err := sigmadedupe.StartServer(sigmadedupe.ServerConfig{
			ID:   i,
			Addr: fmt.Sprintf("unix:%s/n%d.sock", base, i),
			Dir:  fmt.Sprintf("%s/node%d", base, i),
		})
		if err != nil {
			return nil, err
		}
		servers[i] = srv
		addrs[i] = srv.Addr()
	}
	dir := sigmadedupe.NewDirector()
	be, err := sigmadedupe.NewRemote(ctx, sigmadedupe.RemoteConfig{
		Name:           "age-bench",
		Director:       dir,
		Nodes:          addrs,
		SuperChunkSize: 256 << 10,
	})
	if err != nil {
		return nil, err
	}
	defer be.Close()

	aging := workload.NewAging(workload.AgingConfig{
		Seed:   cfg.Seed,
		Blocks: cfg.ImageMB << 20 / workload.BlockSize,
	})
	rep := &ageReport{
		Experiment:   "age",
		Nodes:        cfg.Nodes,
		ImageMB:      cfg.ImageMB,
		Generations:  cfg.Generations,
		ChurnPercent: 0.02,
		Retention:    ageRetention,
		CompactEvery: ageCompactEvery,
	}
	imageBytes := int64(cfg.ImageMB) << 20

	ingestStart := time.Now()
	var retired int
	for gen := 0; gen < cfg.Generations; gen++ {
		it := aging.Next()
		if err := be.Backup(ctx, ageName(gen), newItemReader(it)); err != nil {
			return nil, fmt.Errorf("gen %d backup: %w", gen, err)
		}
		// Settle the tail super-chunks so the generation's recipe is
		// complete (restorable, deletable) before it is measured.
		if err := be.Flush(ctx); err != nil {
			return nil, fmt.Errorf("gen %d flush: %w", gen, err)
		}
		if old := gen - ageRetention; old >= 0 {
			if err := be.Delete(ctx, ageName(old)); err != nil {
				return nil, fmt.Errorf("gen %d delete: %w", old, err)
			}
		}
		if (gen+1)%ageCompactEvery == 0 {
			res, err := be.Compact(ctx, 0)
			if err != nil {
				return nil, fmt.Errorf("gen %d compact: %w", gen, err)
			}
			retired += res.ContainersRetired
		}
		mbps, err := restoreOnce(ctx, be, ageName(gen), imageBytes)
		if err != nil {
			return nil, fmt.Errorf("gen %d: %w", gen, err)
		}
		rep.PerGenMBps = append(rep.PerGenMBps, mbps)
	}
	rep.IngestSeconds = time.Since(ingestStart).Seconds()
	rep.CompactedRetired = retired
	rep.Gen1MBps = rep.PerGenMBps[0]
	rep.GenNMBps = rep.PerGenMBps[len(rep.PerGenMBps)-1]
	if rep.GenNMBps > 0 {
		rep.DecayRatio = rep.Gen1MBps / rep.GenNMBps
	}

	last := ageName(cfg.Generations - 1)
	for i := 0; i < ageFinalRuns; i++ {
		mbps, err := restoreOnce(ctx, be, last, imageBytes)
		if err != nil {
			return nil, fmt.Errorf("aged-stream restore: %w", err)
		}
		if mbps > rep.BatchedMBps {
			rep.BatchedMBps = mbps
		}
	}
	rep.BatchedRPCs = be.BackupStats().RestoreRPCs

	for _, s := range servers {
		cs := s.ReadCacheStats()
		rep.CacheHits += cs.Hits
		rep.CacheMisses += cs.Misses
		rep.CacheEvictions += cs.Evictions
	}
	bst, err := be.Stats(ctx)
	if err != nil {
		return nil, err
	}
	rep.DedupRatio = bst.DedupRatio
	return rep, nil
}
