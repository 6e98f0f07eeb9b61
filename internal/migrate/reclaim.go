package migrate

import (
	"context"
	"fmt"
	"runtime/pprof"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/store"
)

// Delete removes the backup recorded under key end to end: the recipe
// leaves the catalog first (journaled on a durable director — the
// deletion's commit point), then every node holding its chunks drops
// the recipe's references. Failing in between can only strand
// references (space), never free a chunk another backup needs. The
// freed chunks stay dead container space until compaction.
func Delete(ctx context.Context, meta director.Metadata, nodes func(id int) (Node, bool), key string) error {
	pprof.SetGoroutineLabels(reclaimLabels)
	defer pprof.SetGoroutineLabels(ctx) // the caller's, if ctx carries any
	recipe, err := meta.DeleteRecipe(ctx, key)
	if err != nil {
		return err
	}
	return Release(ctx, nodes, recipe.Chunks)
}

// Release drops one recipe generation's chunk references — primary and
// replica attributions alike — with one DecRef per node, counts
// aggregated per fingerprint. A node that is not in nodes (it left the
// membership: crashed, killed) took its references with it and is
// skipped; an error from a live member fails the release.
func Release(ctx context.Context, nodes func(id int) (Node, bool), entries []director.ChunkEntry) error {
	if len(entries) == 0 {
		return nil // a fresh name superseded nothing
	}
	byNode := make(map[int32][]fingerprint.Fingerprint)
	for _, e := range entries {
		byNode[e.Node] = append(byNode[e.Node], e.FP)
		if e.Replica >= 0 {
			byNode[e.Replica] = append(byNode[e.Replica], e.FP)
		}
	}
	for id, fps := range byNode {
		nd, ok := nodes(int(id))
		if !ok {
			continue
		}
		order, ns := core.AggregateRefs(fps)
		if err := nd.DecRef(ctx, order, ns); err != nil {
			return fmt.Errorf("migrate: release references on node %d: %w", id, err)
		}
	}
	return nil
}

// Compact runs one compaction scan on every member (≤0 threshold
// selects each node's configured live-ratio floor) and sums the
// results. A canceled ctx stops between nodes and, inside a node,
// between containers.
func Compact(ctx context.Context, members []int, nodes func(id int) (Node, bool), threshold float64) (store.CompactResult, error) {
	pprof.SetGoroutineLabels(reclaimLabels)
	defer pprof.SetGoroutineLabels(ctx) // the caller's, if ctx carries any
	var total store.CompactResult
	for _, id := range members {
		nd, ok := nodes(id)
		if !ok {
			continue // left the membership since the snapshot
		}
		res, err := nd.Compact(ctx, threshold)
		if err != nil {
			return total, fmt.Errorf("migrate: compact node %d: %w", id, err)
		}
		total.Scanned += res.Scanned
		total.Rewritten += res.Rewritten
		total.Retired += res.Retired
		total.CopiedBytes += res.CopiedBytes
		total.ReclaimedBytes += res.ReclaimedBytes
		total.SkippedNoPayload += res.SkippedNoPayload
	}
	return total, nil
}

// GCStats sums the deletion/compaction counters of every member.
func GCStats(ctx context.Context, members []int, nodes func(id int) (Node, bool)) (store.GCStats, error) {
	var total store.GCStats
	for _, id := range members {
		nd, ok := nodes(id)
		if !ok {
			continue // left the membership since the snapshot
		}
		gc, _, err := nd.GCStats(ctx)
		if err != nil {
			return total, fmt.Errorf("migrate: gc stats node %d: %w", id, err)
		}
		total.StoredBytes += gc.StoredBytes
		total.DeadBytes += gc.DeadBytes
		total.LiveBytes += gc.LiveBytes
		total.Containers += gc.Containers
		total.RetiredContainers += gc.RetiredContainers
		total.ReclaimedBytes += gc.ReclaimedBytes
		total.CopiedBytes += gc.CopiedBytes
		total.CompactRuns += gc.CompactRuns
		total.CompactErrors += gc.CompactErrors
		if gc.LastCompactErr != "" {
			total.LastCompactErr = fmt.Sprintf("node %d: %s", id, gc.LastCompactErr)
		}
	}
	return total, nil
}
