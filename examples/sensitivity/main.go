// Sensitivity: sweep the two parameters the paper's design hinges on —
// handprint size (Fig. 6) and super-chunk size — and print how cluster
// deduplication effectiveness responds, using the public API only.
//
// Run with: go run ./examples/sensitivity
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"sigmadedupe"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func measure(k int, scSize int64) (sigmadedupe.ClusterStats, error) {
	ctx := context.Background()
	c, err := sigmadedupe.NewCluster(sigmadedupe.ClusterConfig{
		Nodes:          16,
		HandprintSize:  k,
		SuperChunkSize: scSize,
	})
	if err != nil {
		return sigmadedupe.ClusterStats{}, err
	}
	err = sigmadedupe.WorkloadFiles("linux", 0.3, 0, func(path string, data []byte) error {
		return c.Backup(ctx, path, bytes.NewReader(data))
	})
	if err != nil {
		return sigmadedupe.ClusterStats{}, err
	}
	if err := c.Flush(ctx); err != nil {
		return sigmadedupe.ClusterStats{}, err
	}
	return c.SimStats(), nil
}

func run() error {
	fmt.Println("handprint size sweep (1MB super-chunks, N=16):")
	fmt.Println("  k    normDR   EDR     msgs")
	for _, k := range []int{1, 2, 4, 8, 16, 32} {
		st, err := measure(k, 1<<20)
		if err != nil {
			return err
		}
		fmt.Printf("  %-3d  %.3f    %.3f   %d\n", k, st.NormalizedDR, st.EffectiveDR, st.FingerprintLookups)
	}

	fmt.Println("\nsuper-chunk size sweep (k=8, N=16):")
	fmt.Println("  sc-size  normDR   EDR     superchunks")
	for _, s := range []int64{128 << 10, 512 << 10, 1 << 20, 4 << 20} {
		st, err := measure(8, s)
		if err != nil {
			return err
		}
		fmt.Printf("  %-6dK  %.3f    %.3f   %d\n", s>>10, st.NormalizedDR, st.EffectiveDR, st.SuperChunks)
	}

	fmt.Println("\nthe paper picks k=8 at 1MB super-chunks: effectiveness close to")
	fmt.Println("larger handprints at a quarter of their pre-routing message cost.")
	return nil
}
