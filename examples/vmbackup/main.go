// Vmbackup: the virtual-machine full-backup scenario from the paper's
// evaluation — few very large disk images with a skewed size
// distribution, backed up twice. Σ-Dedupe's super-chunk handprint routing
// keeps both the dedup ratio and the storage balance here; this is the
// workload on which Extreme Binning's file-level routing collapses (paper
// Fig. 8, VM panel; Σ-Dedupe beats EB by up to 228% there).
//
// It backs the images up through the simulator Backend, then regenerates
// Fig. 8 at quick scale, whose vm rows put the two schemes side by side.
//
// Run with: go run ./examples/vmbackup
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"

	"sigmadedupe"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	c, err := sigmadedupe.NewCluster(sigmadedupe.ClusterConfig{Nodes: 8})
	if err != nil {
		return err
	}
	defer c.Close()
	var images int
	err = sigmadedupe.WorkloadFiles("vm", 1, 0, func(path string, data []byte) error {
		images++
		return c.Backup(ctx, path, bytes.NewReader(data))
	})
	if err != nil {
		return err
	}
	if err := c.Flush(ctx); err != nil {
		return err
	}
	st := c.SimStats()
	fmt.Println("Σ-Dedupe backend, 8 nodes:")
	fmt.Printf("  %d image backups, %.1f MB logical\n", images, float64(st.LogicalBytes)/(1<<20))
	fmt.Printf("  cluster dedup ratio: %.2f\n", st.DedupRatio)
	fmt.Printf("  storage skew (sigma/alpha): %.3f\n", st.StorageSkew)
	fmt.Printf("  effective dedup ratio (Eq. 7): %.3f\n\n", st.EffectiveDR)
	// Extreme Binning routes each whole image by one representative
	// fingerprint, so shared OS blocks drag every image to the same bins:
	// compare its vm rows' skew and EDR with SigmaDedupe's.
	return sigmadedupe.RunExperiment("fig8", sigmadedupe.ExperimentOptions{Quick: true}, os.Stdout)
}
