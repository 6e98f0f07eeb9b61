// Package node implements a Σ-Dedupe deduplication server node. The
// intra-node machinery — similarity index, chunk-fingerprint cache with
// container-granularity prefetch (locality-preserved caching), the
// traditional on-disk chunk index with a Bloom filter, and parallel
// container management (paper §3.3, Fig. 3) — lives in the storage engine
// (package store); Node binds one engine to a cluster identity and the
// node-level API used by the RPC server and the cluster simulator.
//
// The store path is concurrent: there is no node-wide store lock. The
// engine's fingerprint-sharded lock striping lets multiple backup streams
// dedupe in parallel inside one node, and with a durable directory the
// node survives a full stop/restart/restore cycle (Config.Recover).
package node

import (
	"context"
	"fmt"
	"time"

	"sigmadedupe/internal/container"
	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/store"
)

// Config parameterizes a deduplication node.
type Config struct {
	// ID is the node's cluster identity.
	ID int
	// HandprintSize is k, the number of representative fingerprints
	// per super-chunk. Defaults to core.DefaultHandprintSize.
	HandprintSize int
	// CacheContainers is the chunk-fingerprint cache capacity in
	// containers.
	CacheContainers int
	// ContainerCapacity is the container payload capacity in bytes.
	ContainerCapacity int
	// DisableChunkIndex turns off the traditional chunk index, leaving
	// only similarity-index + cache dedup (approximate; Fig. 5b mode).
	DisableChunkIndex bool
	// KeepPayloads retains chunk payloads for restore support.
	KeepPayloads bool
	// Dir, when set, makes the node durable: sealed containers spill to
	// disk and a manifest journals recovery state.
	Dir string
	// ReadCacheBytes is the byte budget of the container read-region
	// cache that serves restore reads of spilled containers. Zero selects
	// the default (store/container defaults table).
	ReadCacheBytes int64
	// Recover re-opens the engine from Dir, replaying the manifest to
	// restore the node's pre-shutdown state. Requires Dir.
	Recover bool
	// CompactEvery, when positive, runs a background compactor that
	// periodically rewrites containers whose live-chunk ratio fell below
	// CompactThreshold. Zero leaves compaction manual (Compact).
	CompactEvery time.Duration
	// CompactThreshold is the live-ratio floor below which a container is
	// rewritten (default store's defaultCompactThreshold).
	CompactThreshold float64
}

func (c Config) storeConfig() store.Config {
	return store.Config{
		NodeID:            c.ID,
		HandprintSize:     c.HandprintSize,
		CacheContainers:   c.CacheContainers,
		ContainerCapacity: c.ContainerCapacity,
		DisableChunkIndex: c.DisableChunkIndex,
		KeepPayloads:      c.KeepPayloads,
		Dir:               c.Dir,
		ReadCacheBytes:    c.ReadCacheBytes,
		CompactEvery:      c.CompactEvery,
		CompactThreshold:  c.CompactThreshold,
	}
}

// Stats aggregates a node's deduplication counters.
type Stats = store.Stats

// Node is one deduplication server. All methods are safe for concurrent
// use by multiple backup streams.
type Node struct {
	cfg Config
	eng *store.Engine
}

// New creates a node from cfg. With cfg.Recover set the node re-opens its
// durable state from cfg.Dir instead of starting empty.
func New(cfg Config) (*Node, error) {
	var (
		eng *store.Engine
		err error
	)
	if cfg.Recover {
		eng, err = store.Open(cfg.storeConfig())
	} else {
		eng, err = store.New(cfg.storeConfig())
	}
	if err != nil {
		return nil, fmt.Errorf("node %d: %w", cfg.ID, err)
	}
	// Echo the engine's resolved defaults (the single defaults table) so
	// Config() reports effective values and a restart reconstructs an
	// identical node.
	eff := eng.Config()
	cfg.HandprintSize = eff.HandprintSize
	cfg.CacheContainers = eff.CacheContainers
	cfg.ContainerCapacity = eff.ContainerCapacity
	cfg.ReadCacheBytes = eff.ReadCacheBytes
	cfg.CompactThreshold = eff.CompactThreshold
	return &Node{cfg: cfg, eng: eng}, nil
}

// ID returns the node's cluster identity.
func (n *Node) ID() int { return n.cfg.ID }

// Config returns the node's effective configuration.
func (n *Node) Config() Config { return n.cfg }

// Engine exposes the node's storage engine (stats inspection and tests).
func (n *Node) Engine() *store.Engine { return n.eng }

// CountHandprintMatches implements the routing bid of Algorithm 1 step 2:
// how many representative fingerprints of hp this node has stored.
func (n *Node) CountHandprintMatches(hp core.Handprint) int {
	return n.eng.CountHandprintMatches(hp)
}

// StorageUsage returns the node's physical storage usage in bytes, the
// w_i input of Algorithm 1 step 3.
func (n *Node) StorageUsage() int64 { return n.eng.StorageUsage() }

// SummaryMayContain reports whether any RFP of hp may be in this node's
// similarity index, per its bid summary. False means a bid is guaranteed
// to return zero, so the router can skip this candidate entirely.
func (n *Node) SummaryMayContain(hp core.Handprint) bool {
	return n.eng.SummaryMayContain(hp)
}

// CountStoredChunks reports how many of the given chunk fingerprints this
// node already stores — the sampled chunk-index bid used by EMC-style
// Stateful routing. Charged against the chunk index like any other lookup.
func (n *Node) CountStoredChunks(fps []fingerprint.Fingerprint) int {
	return n.eng.CountStoredChunks(fps)
}

// Dedup deduplicates one routed super-chunk arriving on the given stream
// in a single node pass: every chunk the node holds gains its reference,
// every chunk with a payload it lacks is appended, and hp — the handprint
// the super-chunk was routed by, nil to compute it here — is indexed.
// Without eager, a payload-less chunk the node lacks is reported missing
// for StoreMissing to deliver. Concurrent streams dedupe in parallel; the
// engine serializes only same-fingerprint races. fresh[i] reports that
// chunk i was not held before; on error, that it holds no reference from
// this call. See store.Engine.Dedup.
func (n *Node) Dedup(stream string, sc *core.SuperChunk, hp core.Handprint, eager bool) (fresh []bool, err error) {
	return n.eng.Dedup(stream, sc, hp, eager)
}

// StoreMissing delivers the payloads of the chunks a fingerprint-first
// Dedup reported missing. See store.Engine.StoreMissing.
func (n *Node) StoreMissing(stream string, sc *core.SuperChunk, hp core.Handprint) (fresh []bool, err error) {
	return n.eng.StoreMissing(stream, sc, hp)
}

// StoreSuperChunk deduplicates and stores one routed super-chunk arriving
// on the given stream, the payloads of its new chunks included — the same
// pass as Dedup with eager set — reporting sizes. Kept, with
// QuerySuperChunk, for the benchmark's traced replay until that is
// deleted (ROADMAP item 7(c)).
func (n *Node) StoreSuperChunk(stream string, sc *core.SuperChunk) (store.Result, error) {
	return n.eng.StoreSuperChunk(stream, sc)
}

// QuerySuperChunk answers a source-dedup batched fingerprint query: for
// each chunk of the super-chunk, report whether it is already stored,
// taking no reference. Kept for the benchmark's traced replay until that
// is deleted (ROADMAP item 7(c)); the ingest path asks Dedup.
func (n *Node) QuerySuperChunk(sc *core.SuperChunk) []bool {
	return n.eng.QuerySuperChunk(sc)
}

// ReadChunk fetches a stored chunk payload (restore path). Requires
// KeepPayloads or Dir.
func (n *Node) ReadChunk(fp fingerprint.Fingerprint) ([]byte, error) {
	return n.eng.ReadChunk(fp)
}

// ReadChunkBatch fetches many chunk payloads in one call, grouped by
// container and sorted by offset so each container is read once,
// sequentially. Results come back in container read order; idx[i] is the
// position in fps that out[i] answers. See store.Engine.ReadChunkBatch.
func (n *Node) ReadChunkBatch(fps []fingerprint.Fingerprint) (out [][]byte, idx []int, err error) {
	return n.eng.ReadChunkBatch(fps)
}

// ReadCacheStats snapshots the container read-region cache counters
// (restore instrumentation).
func (n *Node) ReadCacheStats() container.CacheStats {
	return n.eng.ReadCacheStats()
}

// DecRef releases backup references on chunks: fps[i] loses ns[i]
// references — the per-node share of a deleted backup's recipe. Durable
// nodes journal the batch before applying it. See store.Engine.DecRef.
func (n *Node) DecRef(fps []fingerprint.Fingerprint, ns []int64) error {
	return n.eng.DecRef(fps, ns)
}

// RefCounts reports the current reference count of each chunk — the
// migration recovery probe: reconciliation compares these against the
// recipe-derived expected counts and releases exactly the surplus.
func (n *Node) RefCounts(fps []fingerprint.Fingerprint) []int64 {
	out := make([]int64, len(fps))
	for i, fp := range fps {
		out[i] = n.eng.RefCount(fp)
	}
	return out
}

// Compact runs one compaction scan, rewriting sealed containers whose
// live ratio fell below minLive (≤0 selects the configured threshold).
// Safe to run concurrently with backups and restores. Cancellation is
// observed between containers (see store.Engine.Compact).
func (n *Node) Compact(ctx context.Context, minLive float64) (store.CompactResult, error) {
	return n.eng.Compact(ctx, minLive)
}

// GCStats returns the node's deletion/compaction counters.
func (n *Node) GCStats() store.GCStats { return n.eng.GCStats() }

// Flush seals all open containers (end of a backup session). In durable
// mode everything stored before a successful Flush is recoverable.
func (n *Node) Flush() error { return n.eng.Flush() }

// SealStream seals one stream's open container and fsyncs the manifest
// — the migration commit: durable for that stream without disturbing
// concurrent backup streams' open containers.
func (n *Node) SealStream(stream string) error { return n.eng.SealStream(stream) }

// Close flushes the node and releases its durable state so the directory
// can be re-opened by a future node with Config.Recover.
func (n *Node) Close() error { return n.eng.Close() }

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats { return n.eng.Stats() }

// NumSealedContainers returns the node's sealed-container count.
func (n *Node) NumSealedContainers() int { return n.eng.Manager().NumSealed() }

// SimIndexSize returns the similarity index entry count (RAM accounting).
func (n *Node) SimIndexSize() int { return n.eng.SimIndexSize() }

// CacheHitRate returns the chunk-fingerprint cache hit rate.
func (n *Node) CacheHitRate() float64 { return n.eng.CacheHitRate() }

// DiskIndexStats returns the chunk index disk-I/O counters (zeroes when
// the index is disabled).
func (n *Node) DiskIndexStats() (diskReads, bloomSkips uint64) {
	return n.eng.DiskIndexStats()
}
