// Compaction: reclaiming the container space of deleted backups.
//
// Deletion (DecRef) only turns chunk copies into dead weight inside
// immutable sealed containers; the compactor is what gives the bytes
// back. It scans the sealed-container directory for containers whose
// live ratio — live payload bytes over total payload bytes — has dropped
// below a threshold, and rewrites each one: surviving chunks are copied
// into a fresh container through the normal append/seal path (so they are
// journaled and CRC-protected like any other write), the chunk index is
// repointed at the copies, a retire record commits the old container's
// death, and only then is its file removed.
//
// Crash safety. The commit order per container is
//
//	copy survivors → seal new container (fsynced seal record)
//	→ repoint chunk index → fsynced retire record → remove file
//
// so a crash at any point leaves the store recoverable to either the old
// or the new container, never neither: before the retire record lands,
// replay adopts both copies and the journal-order chunk-index rebuild
// prefers the newer one (the old container simply scores a zero live
// ratio and is retired, without copying, by the next compaction); after
// the retire record lands, replay skips the old container and removes its
// leftover file.
//
// Concurrency. Compaction runs while ingest and restore proceed. Per
// chunk, the liveness decision and the chunk-index repoint happen under
// the chunk's fingerprint shard lock — the same lock that serializes the
// store path's lookup-or-append — so a store racing the compactor either
// sees the chunk alive (and its reference keeps the copy a survivor) or
// re-appends it fresh after the compactor dropped it. Restores that
// looked a location up just before the repoint retry through the chunk
// index (see Engine.ReadChunk).
package store

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sort"
	"time"

	"sigmadedupe/internal/container"
	"sigmadedupe/internal/fingerprint"
)

// errNoPayload marks a container whose surviving chunks cannot be moved
// because its payload was never retained (trace-driven durable engines
// spill metadata-only containers). Compact skips such containers instead
// of aborting the scan: they are permanently unmovable, not transiently
// failed.
var errNoPayload = errors.New("store: container payload not retained")

// compactStream is the container-manager stream that receives surviving
// chunks. The name cannot collide with client streams in practice and the
// stream is only ever appended to under compactMu.
const compactStream = "\x00compact"

// CompactStage names a point in one container's compaction at which a
// fault can be injected (tests) — see SetCompactFault.
type CompactStage string

// Compaction fault-injection points, in commit order.
const (
	// StageCopied: survivors appended to the compaction container, which
	// is not yet sealed. A crash here loses only the copies.
	StageCopied CompactStage = "copied"
	// StageSealed: the new container is sealed and journaled; the chunk
	// index still points at the old container. A crash here leaves both
	// copies on disk.
	StageSealed CompactStage = "sealed"
	// StageIndexed: the chunk index points at the new copies; the old
	// container is not yet retired. A crash here leaves both copies on
	// disk with the old one fully dead.
	StageIndexed CompactStage = "indexed"
	// StageRetired: the retire record is durable; the old container's
	// file is not yet removed. A crash here leaves a dead file that
	// recovery deletes.
	StageRetired CompactStage = "retired"
)

// SetCompactFault installs a fault-injection hook invoked at each stage
// of each container's compaction; a non-nil return aborts the compaction
// mid-flight, emulating a crash at that point. Tests only; not safe to
// call while a compaction is running.
func (e *Engine) SetCompactFault(fn func(stage CompactStage, cid uint64) error) {
	e.compactFault = fn
}

func (e *Engine) faultAt(stage CompactStage, cid uint64) error {
	if e.compactFault != nil {
		return e.compactFault(stage, cid)
	}
	return nil
}

// CompactResult summarizes one compaction scan.
type CompactResult struct {
	Scanned        int   // sealed containers examined
	Rewritten      int   // containers whose survivors were copied out
	Retired        int   // containers removed (includes fully-dead ones)
	CopiedBytes    int64 // surviving payload bytes rewritten
	ReclaimedBytes int64 // payload bytes freed
	// SkippedNoPayload counts low-live containers that could not be
	// rewritten because their payload was never retained (metadata-only
	// trace mode); fully-dead ones still retire.
	SkippedNoPayload int
}

// Compact runs one compaction scan: every sealed container whose live
// ratio is below minLive (0 < minLive ≤ 1; ≤0 selects the configured
// CompactThreshold) is rewritten or, when fully dead, retired outright.
// Safe to call concurrently with ingest and restore; concurrent Compact
// calls serialize. Cancellation is observed between containers: a
// canceled ctx ends the scan after the in-flight container commits or
// aborts whole, returning ctx.Err() with the partial result — already
// compacted containers stay compacted.
func (e *Engine) Compact(ctx context.Context, minLive float64) (CompactResult, error) {
	var res CompactResult
	if !e.gcEnabled() {
		return res, fmt.Errorf("store node %d: compaction requires the chunk index", e.cfg.ID)
	}
	if minLive <= 0 {
		minLive = e.cfg.CompactThreshold
	}
	e.compactMu.Lock()
	defer e.compactMu.Unlock()

	infos := e.containers.SealedContainers()
	e.gcMu.Lock()
	deadByCID := make(map[uint64]int64, len(e.dead))
	for cid, d := range e.dead {
		deadByCID[cid] = d
	}
	e.gcMu.Unlock()

	for _, info := range infos {
		if err := ctx.Err(); err != nil {
			e.compactRuns.Add(1)
			return res, err
		}
		res.Scanned++
		if info.Bytes <= 0 {
			continue
		}
		live := 1 - float64(deadByCID[info.CID])/float64(info.Bytes)
		if live >= minLive {
			continue
		}
		copied, err := e.compactContainer(info.CID)
		if errors.Is(err, errNoPayload) {
			res.SkippedNoPayload++
			continue
		}
		if err != nil {
			e.compactRuns.Add(1)
			return res, err
		}
		if copied > 0 {
			res.Rewritten++
		}
		res.Retired++
		res.CopiedBytes += copied
		res.ReclaimedBytes += info.Bytes - copied
	}
	e.compactRuns.Add(1)
	return res, nil
}

// compactContainer rewrites one sealed container. Caller holds compactMu.
func (e *Engine) compactContainer(cid uint64) (copied int64, err error) {
	meta, err := e.containers.Metadata(cid)
	if err != nil {
		return 0, fmt.Errorf("store node %d: compact container %d: %w", e.cfg.ID, cid, err)
	}
	var totalBytes int64
	for _, cm := range meta {
		totalBytes += int64(cm.Length)
	}

	// Phase 1a: take each chunk's verdict under its shard lock — the same
	// lock the store path's lookup-or-append holds. Survivors are
	// collected together with their last-touch sequence number; dead
	// chunks have their index entry dropped *now*: were the entry left
	// behind, a store arriving after this verdict but before the retire
	// would resurrect a copy whose container is about to be deleted — a
	// live chunk pointing at a dead file. With the entry gone, such a
	// store appends the chunk fresh instead.
	type survivor struct {
		fp     fingerprint.Fingerprint
		oldLoc container.Loc
		seq    uint64 // last time a stored backup took a reference
	}
	var survivors []survivor
	for _, cm := range meta {
		oldLoc := container.Loc{CID: cid, Offset: cm.Offset, Length: cm.Length}
		sh := e.shardFor(cm.FP)
		sh.mu.Lock()
		curLoc, ok := e.cidx.peek(cm.FP)
		if !ok || curLoc != oldLoc {
			// This copy is a stale duplicate of a chunk that already lives
			// elsewhere (a prior compaction crash): nothing to do, it dies
			// with the container.
			sh.mu.Unlock()
			continue
		}
		if sh.refs[cm.FP] <= 0 {
			e.cidx.delete(cm.FP)
			sh.mu.Unlock()
			continue
		}
		seq := sh.touch[cm.FP]
		sh.mu.Unlock()
		survivors = append(survivors, survivor{fp: cm.FP, oldLoc: oldLoc, seq: seq})
	}

	// A fully-dead container retires without a disk read; a metadata-only
	// container (trace-driven durable mode, whose survivors cannot be
	// moved) is skipped before touching its file.
	var old *container.Container
	if len(survivors) > 0 {
		if e.cfg.Dir != "" && !e.cfg.KeepPayloads {
			return copied, fmt.Errorf("store node %d: compact container %d: %w", e.cfg.ID, cid, errNoPayload)
		}
		// One full, CRC-verified load through the non-caching read path
		// (container.Manager.Get): a background rewrite must not evict
		// restore's region-cache working set.
		if old, err = e.containers.Get(cid); err != nil {
			return copied, fmt.Errorf("store node %d: compact container %d: %w", e.cfg.ID, cid, err)
		}
		if old.Data == nil {
			return copied, fmt.Errorf("store node %d: compact container %d: %w", e.cfg.ID, cid, errNoPayload)
		}
	}

	// Capping (restore-aware compaction): copy survivors in last-touch
	// order rather than old container order. Chunks the most recent
	// backup generations referenced last — in recipe order, since the
	// store path touches a stream's chunks sequentially — end up
	// co-located and sequential in the new container, so an aged restore
	// of a recent backup re-sequentializes instead of inheriting years of
	// accumulated fragmentation. Untouched survivors (recovered state,
	// seq 0) keep their original container order via the stable sort.
	sort.SliceStable(survivors, func(a, b int) bool { return survivors[a].seq < survivors[b].seq })

	// Phase 1b: copy each survivor, re-taking its verdict under the shard
	// lock so the copy stays atomic with respect to concurrent stores and
	// decrefs (the verdict and the append happen under one critical
	// section, exactly like the store path's lookup-or-append).
	type move struct {
		fp     fingerprint.Fingerprint
		oldLoc container.Loc
		newLoc container.Loc
	}
	var moves []move
	for _, sv := range survivors {
		sh := e.shardFor(sv.fp)
		sh.mu.Lock()
		curLoc, ok := e.cidx.peek(sv.fp)
		if !ok || curLoc != sv.oldLoc {
			sh.mu.Unlock()
			continue
		}
		if sh.refs[sv.fp] <= 0 {
			// Died between the verdict and the copy: same treatment as in
			// phase 1a — drop the entry, the payload dies with the container.
			e.cidx.delete(sv.fp)
			sh.mu.Unlock()
			continue
		}
		cm := sv.oldLoc
		data := old.Data[int(cm.Offset) : int(cm.Offset)+int(cm.Length)]
		newLoc, aerr := e.containers.Append(compactStream, sv.fp, data, int(cm.Length))
		sh.mu.Unlock()
		if aerr != nil {
			return copied, fmt.Errorf("store node %d: compact container %d: %w", e.cfg.ID, cid, aerr)
		}
		moves = append(moves, move{fp: sv.fp, oldLoc: sv.oldLoc, newLoc: newLoc})
		copied += int64(cm.Length)
	}
	if err := e.faultAt(StageCopied, cid); err != nil {
		return copied, err
	}

	// Phase 2: seal the survivors' new home, making it durable and
	// journaled before any index points at it.
	if len(moves) > 0 {
		if err := e.containers.Seal(compactStream); err != nil {
			return copied, fmt.Errorf("store node %d: compact container %d: %w", e.cfg.ID, cid, err)
		}
	}
	if err := e.faultAt(StageSealed, cid); err != nil {
		return copied, err
	}

	// Phase 3: repoint the chunk index at the copies, each under its
	// shard lock.
	for _, mv := range moves {
		sh := e.shardFor(mv.fp)
		sh.mu.Lock()
		if cur, ok := e.cidx.peek(mv.fp); ok && cur == mv.oldLoc {
			if sh.refs[mv.fp] > 0 {
				e.cidx.insert(mv.fp, mv.newLoc)
			} else {
				// Died between the copy and now: the old copy goes with the
				// retire below; the new copy becomes dead weight in the new
				// container, found by a later scan.
				e.cidx.delete(mv.fp)
				e.gcMu.Lock()
				e.dead[mv.newLoc.CID] += int64(mv.newLoc.Length)
				e.gcMu.Unlock()
			}
		}
		sh.mu.Unlock()
	}
	if err := e.faultAt(StageIndexed, cid); err != nil {
		return copied, err
	}

	// Phase 4: commit the old container's death, then physically drop it.
	if e.man != nil {
		if err := e.man.appendRetire(cid); err != nil {
			return copied, fmt.Errorf("store node %d: compact container %d: %w", e.cfg.ID, cid, err)
		}
	}
	if err := e.faultAt(StageRetired, cid); err != nil {
		return copied, err
	}
	if err := e.containers.Retire(cid); err != nil {
		return copied, fmt.Errorf("store node %d: compact container %d: %w", e.cfg.ID, cid, err)
	}
	e.gcMu.Lock()
	delete(e.dead, cid)
	e.gcMu.Unlock()
	e.retiredContainers.Add(1)
	e.copiedBytes.Add(copied)
	e.reclaimedBytes.Add(totalBytes - copied)
	return copied, nil
}

// startCompactor launches the background compaction loop when configured
// (Config.CompactEvery > 0).
func (e *Engine) startCompactor() {
	if e.cfg.CompactEvery <= 0 || !e.gcEnabled() {
		return
	}
	e.compactStop = make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	e.compactCancel = cancel
	e.compactWG.Add(1)
	go func() {
		defer e.compactWG.Done()
		// The loop runs under phase=reclaim, as the cluster's compaction
		// fan-out (internal/migrate) and the node's compact verb
		// (internal/rpc) do.
		ctx := pprof.WithLabels(ctx, pprof.Labels("phase", "reclaim"))
		pprof.SetGoroutineLabels(ctx)
		ticker := time.NewTicker(e.cfg.CompactEvery)
		defer ticker.Stop()
		for {
			select {
			case <-e.compactStop:
				return
			case <-ticker.C:
				// Background compaction is best-effort; an error (e.g. a
				// fault hook in tests) stops this pass, the next tick
				// rescans from durable state.
				e.backgroundCompactOnce(ctx)
			}
		}
	}()
}

// backgroundCompactOnce runs one background compaction pass, recording a
// failure in the GCStats error counters instead of dropping it — the
// ticker loop has no caller, so this is the only place a persistently
// failing compactor becomes visible.
func (e *Engine) backgroundCompactOnce(ctx context.Context) {
	if _, err := e.Compact(ctx, e.cfg.CompactThreshold); err != nil {
		e.compactErrMu.Lock()
		e.compactErrors++
		e.lastCompactErr = err.Error()
		e.compactErrMu.Unlock()
	}
}

// stopCompactor stops the background loop — canceling any in-flight
// pass between containers — and waits for it to finish.
func (e *Engine) stopCompactor() {
	if e.compactStop == nil {
		return
	}
	e.compactCancel()
	close(e.compactStop)
	e.compactWG.Wait()
	e.compactStop = nil
	e.compactCancel = nil
}
