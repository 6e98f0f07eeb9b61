// Package migrate holds everything a deployment does to data it has
// already stored, written once for the simulator and the TCP prototype:
// the super-chunk migration engine behind online membership changes and
// anti-entropy repair with re-replication (this file, engine.go, repair.go),
// the windowed restore scheduler with replica failover (restore.go), and
// backup deletion, compaction and the GC counters (reclaim.go). The
// algorithms live here; a deployment supplies a Node transport per
// deduplication node (*rpc.Client over the wire, Local over an
// in-process *store.Engine) and the director as metadata — its Catalog of
// recipes and journaled transactions for the engine, its
// director.Metadata for the read and reclaim verbs — in process, over
// TCP, or the simulator's in-RAM one.
//
// Every elastic verb is the same journaled transaction over one recipe
// segment, run as a move or as a replication:
//
//	journal mig-begin (fsynced)              — the transaction opens
//	→ read payloads from the source node
//	→ store on the target node               — refs + sim-index entries
//	→ commit target (seal/fsync manifest)    — target durably holds refs
//	→ rewrite the recipe (fsynced put)       — THE COMMIT POINT
//	→ decref the source (fsynced)            — move only; a replication
//	                                           keeps both copies
//	→ journal mig-end (fsynced)              — the transaction closes
//
// A crash before the recipe rewrite leaves the backup on its old
// placement with (at most) surplus references stranded on the target; a
// crash after it leaves the backup on its new placement with surplus
// references stranded on the source. Either way, recovery recomputes
// each involved chunk's expected per-node reference count from the
// recipe catalog — recipes are the sole source of references, one per
// stored occurrence per attribution (primary and replica) — queries
// the node's actual count, and releases exactly the surplus. That
// reconciliation is idempotent, so recovery itself may crash and rerun.
package migrate

import (
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
)

// Stage names a point in one segment's transaction at which a fault can
// be injected (tests) — the membership analogue of store.CompactStage.
// A replication passes the same five points; it just has nothing to
// release before StageDecreffed.
type Stage string

// Migration fault-injection points, in commit order.
const (
	// StageRead: source payloads are in memory; nothing written yet. A
	// crash here is a pure no-op.
	StageRead Stage = "read"
	// StageStored: the target holds the chunks and their references in
	// its (possibly unflushed) store; the recipe still points at the
	// source. A crash here strands at most the target's surplus refs.
	StageStored Stage = "stored"
	// StageCommitted: the target's refs are durable (manifest fsynced);
	// the recipe still points at the source. Same recovery as
	// StageStored, but the surplus is guaranteed visible after restart.
	StageCommitted Stage = "committed"
	// StageUpdated: the recipe points at the target — the migration is
	// committed; the source still holds the old references. A crash here
	// strands the source's surplus refs.
	StageUpdated Stage = "updated"
	// StageDecreffed: source references are released; only the mig-end
	// journal record is missing. Recovery finds zero surplus anywhere
	// and simply closes the transaction.
	StageDecreffed Stage = "decreffed"
)

// Fault is a fault-injection hook: invoked at every Stage of every
// migrated segment, a non-nil return aborts the migration mid-flight,
// emulating a crash at that point.
type Fault func(stage Stage, path string) error

// defaultSegmentChunks bounds one migration segment so a huge backup
// moves in bounded-memory super-chunk-sized units.
const defaultSegmentChunks = 1024

// Stream is the node stream that receives migrated and replicated
// segments, sealed per transaction without disturbing the open
// containers of backup streams, and R=2 ingest's replica passes, sealed
// by the node Flush that seals their primaries.
const Stream = "\x00migrate"

// Result summarizes the super-chunk migration behind one membership
// change or rebalance pass.
type Result struct {
	Backups  int   // distinct backup items whose placement changed
	Segments int   // super-chunk segments moved
	Chunks   int64 // chunk occurrences moved
	Bytes    int64 // payload bytes migrated
}

// Add folds another result in.
func (r *Result) Add(o Result) {
	r.Backups += o.Backups
	r.Segments += o.Segments
	r.Chunks += o.Chunks
	r.Bytes += o.Bytes
}

// RepairResult summarizes one anti-entropy repair pass: recovered
// transactions, replica promotions after a node loss, re-replication of
// under-replicated chunks, and surplus references released.
type RepairResult struct {
	Promoted     int64 // recipe entries whose replica became the primary
	Rereplicated int64 // chunk occurrences given a fresh second copy
	Bytes        int64 // payload bytes written during re-replication
	ReleasedRefs int64 // surplus references released by reconciliation
}

// segment is one movable run of a recipe: count consecutive chunks
// starting at start, all placed on the same node.
type segment struct {
	start, count int
}

// nextRun finds, at or after index at, the first maximal run of
// consecutive chunks on one node that all satisfy want, cut at
// defaultSegmentChunks. Such runs are the original routing's
// super-chunk granularity — the minimal movable units of a drain
// (want: placed on the departing node), a rebalance (want: anything)
// and a re-replication (want: no replica yet).
func nextRun(chunks []director.ChunkEntry, at int, want func(director.ChunkEntry) bool) (segment, bool) {
	for i := at; i < len(chunks); i++ {
		if !want(chunks[i]) {
			continue
		}
		end := i + 1
		for end < len(chunks) && end-i < defaultSegmentChunks &&
			chunks[end].Node == chunks[i].Node && want(chunks[end]) {
			end++
		}
		return segment{start: i, count: end - i}, true
	}
	return segment{}, false
}

// surplus computes, per fingerprint, how many references a node holds
// beyond what the recipe catalog accounts for: actual[i] - expected[i],
// clamped at zero (a node can legitimately hold references the caller's
// expected-count scan has not attributed — never release those).
// Fingerprints with zero surplus are dropped. The result is exactly what
// recovery must decref on that node to erase a half-done migration.
func surplus(fps []fingerprint.Fingerprint, actual, expected []int64) ([]fingerprint.Fingerprint, []int64) {
	var outFP []fingerprint.Fingerprint
	var outN []int64
	for i, fp := range fps {
		if d := actual[i] - expected[i]; d > 0 {
			outFP = append(outFP, fp)
			outN = append(outN, d)
		}
	}
	return outFP, outN
}

// Rebalance policy: a segment moves only from a member above the
// cluster's mean storage usage onto one below it, with a ±5% dead band
// so one pass cannot thrash around the balance point.
const rebalanceSlackDivisor = 20

// overloaded reports whether a rebalance pass may move data off a node
// with the given usage.
func overloaded(usage, mean int64) bool { return usage > mean+mean/rebalanceSlackDivisor }

// underloaded reports whether a rebalance pass may move data onto a
// node with the given usage.
func underloaded(usage, mean int64) bool { return usage < mean-mean/rebalanceSlackDivisor }
