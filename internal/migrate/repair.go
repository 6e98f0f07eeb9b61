package migrate

import (
	"context"
	"errors"
	"fmt"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/sderr"
)

// ReplicateRecipe is Repair's re-replication (ingest writes replicas as
// it routes): every replica-less run of one recipe gets a second copy on
// the rendezvous replica owner of the run's first fingerprint, read back
// off the sealed primary, one journaled transaction per run (bounded at
// DefaultSegmentChunks, so a huge backup replicates in bounded-memory
// units). A recipe superseded mid-pass (re-backup, delete) stops
// cleanly: the newer generation wins.
func (e *Engine) ReplicateRecipe(ctx context.Context, r director.Recipe, members core.Membership) (RepairResult, error) {
	var res RepairResult
	noReplica := func(en director.ChunkEntry) bool { return en.Replica < 0 }
	for {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		seg, ok := nextRun(r.Chunks, 0, noReplica)
		if !ok {
			return res, nil
		}
		primary := int(r.Chunks[seg.start].Node)
		replica := members.ReplicaTarget(r.Chunks[seg.start].FP, primary)
		if replica < 0 {
			return res, nil // single-member epoch: no second site exists
		}
		updated, bytes, err := e.moveSegment(ctx, r, seg, primary, replica, true)
		if errors.Is(err, sderr.ErrConflict) {
			return res, nil
		}
		if err != nil {
			return res, err
		}
		r = updated
		res.Rereplicated += int64(seg.count)
		res.Bytes += bytes
	}
}

// rewrite is one committed recipe rewrite: the chunk list as read and
// as replaced.
type rewrite struct{ before, after []director.ChunkEntry }

// rewriteAll applies edit to a copy of every recipe's chunk list,
// commits the ones it reports changed and returns those. A recipe
// superseded under the rewrite is skipped: the newer generation wins.
func (e *Engine) rewriteAll(ctx context.Context, edit func(path string, chunks []director.ChunkEntry) (bool, error)) ([]rewrite, error) {
	recipes, err := e.Catalog.Recipes(ctx)
	if err != nil {
		return nil, err
	}
	var done []rewrite
	for _, r := range recipes {
		chunks := append([]director.ChunkEntry(nil), r.Chunks...)
		changed, err := edit(r.Path, chunks)
		if err != nil {
			return done, err
		}
		if !changed {
			continue
		}
		if err := e.Catalog.ReplaceRecipe(ctx, r.Path, r.Session, r.Gen, chunks); err != nil {
			if errors.Is(err, sderr.ErrConflict) {
				continue
			}
			return done, err
		}
		done = append(done, rewrite{before: r.Chunks, after: chunks})
	}
	return done, nil
}

// StripReplicas clears every replica attribution pointing at node id
// and releases the corresponding references there. Attribution clears
// before the decref so no recipe ever points at references that are
// gone — the failure mode is a leak, and leaks are what Repair's
// reconciliation exists to erase.
func (e *Engine) StripReplicas(ctx context.Context, id int) error {
	done, err := e.rewriteAll(ctx, func(_ string, chunks []director.ChunkEntry) (changed bool, _ error) {
		for i := range chunks {
			if chunks[i].Replica == int32(id) {
				chunks[i].Replica = -1
				changed = true
			}
		}
		return changed, nil
	})
	if err != nil || len(done) == 0 {
		return err
	}
	var fps []fingerprint.Fingerprint
	for _, rw := range done {
		for _, en := range rw.before {
			if en.Replica == int32(id) {
				fps = append(fps, en.FP)
			}
		}
	}
	nd, err := e.node(id)
	if err != nil {
		return err
	}
	order, ns := core.AggregateRefs(fps)
	if err := nd.DecRef(ctx, order, ns); err != nil {
		return fmt.Errorf("migrate: strip replicas off node %d: %w", id, err)
	}
	return nil
}

// Repair is the anti-entropy pass that re-converges a deployment after
// a node crash (or any interrupted replication or migration), in four
// idempotent phases: settle crash-leftover transactions, promote
// replicas whose primaries died, give every under-replicated run a
// fresh second copy (R=2 deployments only), and release every reference
// the recipe catalog does not account for. members is the post-crash
// epoch (the dead node already removed). Repair may itself be
// interrupted and rerun; callers must quiesce backups, deletes and
// membership changes first, and the catalog must be the sole source of
// references. Fails if any chunk lost both of its copies.
func (e *Engine) Repair(ctx context.Context, members core.Membership) (RepairResult, error) {
	var res RepairResult

	// Phase 0: surplus from half-done transactions is gone before counts
	// are compared.
	if err := e.Recover(ctx); err != nil {
		return res, err
	}

	// Phase 1: promotion. A dead primary's entries swing to their live
	// replica; a dead replica's attribution clears so phase 2 re-covers
	// it. Both copies gone means the backup is unrecoverable — report it
	// rather than restore garbage.
	done, err := e.rewriteAll(ctx, func(path string, chunks []director.ChunkEntry) (changed bool, _ error) {
		for i := range chunks {
			en := &chunks[i]
			if !members.Contains(int(en.Node)) {
				if en.Replica < 0 || !members.Contains(int(en.Replica)) {
					return false, fmt.Errorf("migrate: repair %q: chunk %s lost primary and replica: %w",
						path, en.FP.Short(), sderr.ErrNotFound)
				}
				en.Node, en.Replica = en.Replica, -1
				changed = true
			} else if en.Replica >= 0 && !members.Contains(int(en.Replica)) {
				en.Replica = -1
				changed = true
			}
		}
		return changed, nil
	})
	if err != nil {
		return res, err
	}
	for _, rw := range done {
		for i := range rw.before {
			if rw.before[i].Node != rw.after[i].Node {
				res.Promoted++
			}
		}
	}

	// Phase 2: re-replication of every run still missing its second copy
	// (a fresh catalog read picks up phase 1's rewrites).
	if e.Replicas >= 2 && members.Len() >= 2 {
		recipes, err := e.Catalog.Recipes(ctx)
		if err != nil {
			return res, err
		}
		for _, r := range recipes {
			rr, err := e.ReplicateRecipe(ctx, r, members)
			res.Rereplicated += rr.Rereplicated
			res.Bytes += rr.Bytes
			if err != nil {
				return res, err
			}
		}
	}

	// Phase 3: global reconciliation over every fingerprint of the catalog
	// as phases 1 and 2 left it — it catches strands no journal record
	// points at (a killed node's promoted-away primaries,
	// clear-then-decref orderings interrupted mid-way).
	recipes, err := e.Catalog.Recipes(ctx)
	if err != nil {
		return res, err
	}
	res.ReleasedRefs, err = e.releaseSurplus(ctx, recipes, members.Nodes, nil, false)
	if err != nil {
		err = fmt.Errorf("migrate: repair reconcile: %w", err)
	}
	return res, err
}
