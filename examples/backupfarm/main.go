// Backupfarm: the scenario that motivates Σ-Dedupe — many backup
// generations of an evolving source tree (the paper's synthetic
// Linux-kernel workload), deduplicated across a 16-node cluster.
//
// It backs the tree up through the simulator Backend, which routes by
// Σ-Dedupe's similarity bids, and reports the cluster-wide dedup ratio,
// the normalized effective dedup ratio (Eq. 7), storage skew and
// fingerprint-lookup message cost. The comparison with the baseline
// routing schemes is the paper's Table 1, regenerated by RunExperiment
// on the same workload.
//
// Run with: go run ./examples/backupfarm
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
	c, err := sigmadedupe.NewCluster(sigmadedupe.ClusterConfig{Nodes: 16})
	if err != nil {
		return err
	}
	defer c.Close()
	err = sigmadedupe.WorkloadFiles("linux", 0.4, 0, func(path string, data []byte) error {
		return c.Backup(ctx, path, bytes.NewReader(data))
	})
	if err != nil {
		return err
	}
	if err := c.Flush(ctx); err != nil {
		return err
	}
	st := c.SimStats()
	fmt.Println("Σ-Dedupe backend, 16 nodes:")
	fmt.Printf("  DR %.2f   EDR %.3f   skew %.3f   fp-lookup msgs %d\n\n",
		st.DedupRatio, st.EffectiveDR, st.StorageSkew, st.FingerprintLookups)
	// The schemes side by side: trace replays through the same ingest
	// session, one router each.
	return sigmadedupe.RunExperiment("table1", sigmadedupe.ExperimentOptions{Scale: 0.8}, os.Stdout)
}
