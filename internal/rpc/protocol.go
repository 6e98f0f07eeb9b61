// Package rpc implements the wire protocol of the Σ-Dedupe prototype: a
// batched, pipelined request/response protocol over TCP, mirroring the
// paper's event-driven client design ("an asynchronous RPC implementation
// via message passing over TCP streams; all RPC requests are batched in
// order to minimize the round-trip overheads", §4.1).
//
// Messages are length-prefixed binary frames (see internal/wire): fixed
// little-endian field layouts, chunk payloads carried as raw ranges the
// server hands to the store without re-copying, and empty-success
// responses for store-class verbs coalesced into batched ack frames.
// Every request carries a client-chosen ID; responses may arrive out of
// order, so a client can keep many requests in flight (pipelining) and
// match responses by ID.
package rpc

import (
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/node"
	"sigmadedupe/internal/store"
)

// Op enumerates request types understood by a deduplication server.
type Op int

// Deduplication server operations.
const (
	// OpBid asks for the similarity-index match count of a handprint
	// (Algorithm 1 step 2) plus current storage usage.
	OpBid Op = iota + 1
	// OpQuery asks, for each chunk fingerprint of a super-chunk, whether
	// the chunk is already stored, taking no reference. With OpStore and
	// OpStoreRefs it is kept, wire bytes unchanged, for the benchmark's
	// traced replay until that is deleted (ROADMAP item 7(c)); ingest
	// speaks OpDedup.
	OpQuery
	// OpStore delivers a routed super-chunk with payloads for the chunks
	// an OpQuery found new.
	OpStore
	// OpStoreRefs delivers a fingerprint-only super-chunk (trace mode).
	OpStoreRefs
	// Op 5 was the single-chunk read verb, retired for OpReadBatch. The
	// slot stays reserved so the later ops keep their wire numbers and a
	// stale peer sending it gets "unknown op", not another verb.
	_
	// OpFlush seals open containers.
	OpFlush
	// OpStats fetches node statistics.
	OpStats
	// OpDecRef releases backup references on chunks (backup deletion: one
	// batch per node, grouped from the deleted recipe).
	OpDecRef
	// OpCompact runs one compaction scan on the node.
	OpCompact
	// OpGCStats fetches the node's deletion/compaction counters.
	OpGCStats
	// OpMigrateRead streams a batch of chunk payloads off a migration
	// source node (container contents, fingerprint-addressed).
	OpMigrateRead
	// Op 13 was the migration write verb; a migrated super-chunk is stored
	// with OpStore, which it duplicated. Reserved like op 5.
	_
	// OpMigrateCommit makes everything a migration wrote to the node
	// durable (containers sealed, manifest fsynced) — the target-side
	// commit that must land before the recipe may be repointed.
	OpMigrateCommit
	// OpRefCounts fetches the node's current reference count per chunk
	// fingerprint (migration recovery's reconciliation probe).
	OpRefCounts
	// OpReadBatch fetches a batch of chunk payloads in one round trip
	// (batched restore). The node groups the requested fingerprints by
	// container via its chunk index and reads each container once,
	// sequentially; the response returns payloads in that read order,
	// with Response.Idx tagging each one with the index of the request
	// chunk it answers.
	OpReadBatch
	// OpDedup is the ingest store of a routed super-chunk, fingerprints
	// first: one node pass gives every chunk the node holds its reference
	// (verdict and reference under one shard lock, so nothing the reply
	// calls held can be collected before the payloads follow) and appends
	// every chunk that came with a payload — all of them when the client
	// sends eagerly, as it does for a super-chunk no node resembles.
	// Handprint carries the router's handprint, which the node indexes
	// instead of recomputing (empty: the node computes its own); one longer
	// than store.MaxHandprint or not strictly ascending is refused as
	// malformed. Response.Dup[i] reports chunk i held; on an error reply,
	// that it holds a reference from this call.
	OpDedup
	// OpDedupMissing delivers, with payloads, the chunks an OpDedup reply
	// reported missing — the second and last round trip of a super-chunk
	// whose target lacks chunks — under the same Handprint. Acknowledged in
	// the batched-ack frame; an error reply's Dup[i] reports which of its
	// chunks hold a reference from this call. A node that predates these
	// two ops answers "unknown op": clients and nodes upgrade together.
	OpDedupMissing
)

// ChunkWire is one chunk on the wire: fingerprint, size and (for store
// and restore operations) payload.
type ChunkWire struct {
	FP   fingerprint.Fingerprint
	Size int32
	Data []byte
}

// Request is the single envelope for all deduplication server operations.
type Request struct {
	ID     uint64
	Op     Op
	Stream string
	// Handprint carries representative fingerprints for OpBid and the
	// routed handprint of OpDedup/OpDedupMissing.
	Handprint []fingerprint.Fingerprint
	// Chunks carries the super-chunk membership for OpQuery and OpDedup
	// (sizes and fingerprints, payloads too when OpDedup is eager), the
	// chunks to persist for OpStore and OpDedupMissing (with payloads), the
	// fingerprints to fetch for OpReadBatch/OpMigrateRead, or the
	// fingerprints losing references for OpDecRef.
	Chunks []ChunkWire
	// Counts carries per-fingerprint reference counts for OpDecRef
	// (parallel to Chunks).
	Counts []int64
	// Threshold is the live-ratio floor for OpCompact (≤0 selects the
	// node's configured threshold).
	Threshold float64
	// TimeoutMS is the caller's remaining context deadline in
	// milliseconds at send time (0 = none). The server bounds the
	// handler's context with it, so a call the client has already given
	// up on does not keep burning server work.
	TimeoutMS int64
}

// Response is the single envelope for all server replies.
type Response struct {
	ID  uint64
	Err string
	// Count is the similarity bid for OpBid.
	Count int
	// Usage is the node storage usage for OpBid.
	Usage int64
	// Dup holds per-chunk duplicate verdicts for OpQuery and OpDedup; on
	// an OpDedup or OpDedupMissing error reply, which chunks hold a
	// reference the failed call took.
	Dup []bool
	// Chunks returns payloads for OpReadBatch and OpMigrateRead.
	Chunks []ChunkWire
	// Counts carries per-fingerprint reference counts for OpRefCounts
	// (parallel to the request's Chunks).
	Counts []int64
	// Stats is populated for OpStats.
	Stats node.Stats
	// GC is populated for OpGCStats.
	GC store.GCStats
	// Compacted is populated for OpCompact.
	Compacted store.CompactResult
	// Idx tags each entry of Chunks with the index of the request chunk
	// it answers. Populated for OpReadBatch, whose payloads come back in
	// container read order rather than request order.
	Idx []uint32

	// frame, when non-nil, is the pooled receive buffer that Chunks'
	// payloads alias (client side only; never encoded). Whoever consumes
	// the response must call ReleaseFrame exactly once.
	frame []byte
}
