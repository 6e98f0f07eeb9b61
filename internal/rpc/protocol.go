// Package rpc is the one call layer of the Σ-Dedupe prototype: the
// deduplication nodes' verbs (NewServer, Dial) and the director's
// metadata verbs (NewDirectorServer, DialDirector) travel on it alike. It
// mirrors the paper's event-driven client design ("an asynchronous RPC
// implementation via message passing over TCP streams; all RPC requests
// are batched in order to minimize the round-trip overheads", §4.1).
//
// Messages are length-prefixed binary frames (internal/wire) after a
// handshake naming the protocol, wire.ProtoNode or wire.ProtoDirector. A
// request starts kind | ID | op | timeoutMS, a response kind | ID | err.
// IDs are client-chosen, so responses may arrive out of order and many
// calls share one connection; the caller's remaining deadline bounds the
// server's handler context, and a cancelled call is abandoned, its late
// response dropped. Chunk payloads travel as raw ranges the server hands
// to the store without re-copying, and empty-success responses of
// store-class verbs coalesce into batched ack frames. A connection that
// breaks, or whose send is torn, is redialed by the next call; a seal
// (opFlush, opMigrateCommit) after losing unsealed stores fails (Client).
package rpc

import (
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/node"
	"sigmadedupe/internal/store"
)

// opcode enumerates request types: the node verbs below, the director's from 32.
type opcode int

// Deduplication server operations.
const (
	// opBid asks for the similarity-index match count of a handprint
	// (Algorithm 1 step 2) plus current storage usage.
	opBid opcode = iota + 1
	// opQuery asks, for each chunk fingerprint of a super-chunk, whether
	// the chunk is already stored, taking no reference. With opStore and
	// opStoreRefs it is kept, wire bytes unchanged, for the benchmark's
	// traced replay until that is deleted (ROADMAP item 7(c)); ingest
	// speaks OpDedup.
	opQuery
	// opStore delivers a routed super-chunk with payloads for the chunks
	// an opQuery found new.
	opStore
	// opStoreRefs delivers a fingerprint-only super-chunk (trace mode).
	opStoreRefs
	// Opcode 5 was the single-chunk read verb, retired for opReadBatch. The
	// slot stays reserved so the later ops keep their wire numbers and a
	// stale peer sending it gets "unknown op", not another verb.
	_
	// opFlush seals open containers.
	opFlush
	// opStats fetches node statistics.
	opStats
	// opDecRef releases backup references on chunks (backup deletion: one
	// batch per node, grouped from the deleted recipe).
	opDecRef
	// opCompact runs one compaction scan on the node.
	opCompact
	// opGCStats fetches the node's deletion/compaction counters.
	opGCStats
	// opMigrateRead streams a batch of chunk payloads off a migration
	// source node (container contents, fingerprint-addressed).
	opMigrateRead
	// Opcode 12 was the migration write verb; a migrated super-chunk is stored
	// with opStore, which it duplicated. Reserved like op 5.
	_
	// opMigrateCommit makes everything a migration wrote to the node
	// durable (containers sealed, manifest fsynced) — the target-side
	// commit that must land before the recipe may be repointed.
	opMigrateCommit
	// opRefCounts fetches the node's current reference count per chunk
	// fingerprint (migration recovery's reconciliation probe).
	opRefCounts
	// opReadBatch fetches a batch of chunk payloads in one round trip
	// (batched restore). The node groups the requested fingerprints by
	// container via its chunk index and reads each container once,
	// sequentially; the response returns payloads in that read order,
	// with Response.Idx tagging each one with the index of the request
	// chunk it answers.
	opReadBatch
	// OpDedup is the ingest store of a routed super-chunk, fingerprints
	// first: one node pass gives every chunk the node holds its reference
	// (verdict and reference under one shard lock, so nothing the reply
	// calls held can be collected before the payloads follow) and appends
	// every chunk that came with a payload — all of them when the client
	// sends eagerly, as it does for a super-chunk no node resembles.
	// Handprint carries the router's handprint, which the node indexes
	// instead of recomputing (empty: the node computes its own); one longer
	// than store's maxHandprint or not strictly ascending is refused as
	// malformed. Response.Dup[i] reports chunk i held; on an error reply,
	// that it holds a reference from this call.
	OpDedup
	// opDedupMissing delivers, with payloads, the chunks an OpDedup reply
	// reported missing — the second and last round trip of a super-chunk
	// whose target lacks chunks — under the same Handprint. Acknowledged in
	// the batched-ack frame; an error reply's Dup[i] reports which of its
	// chunks hold a reference from this call. A node that predates these
	// two ops answers "unknown op": clients and nodes upgrade together.
	opDedupMissing
)

// stores reports whether op writes what only a later seal makes durable.
func (op opcode) stores() bool {
	return op == opStore || op == opStoreRefs || op == opDecRef || op == OpDedup || op == opDedupMissing
}

// seals reports whether op makes the stores before it durable.
func (op opcode) seals() bool { return op == opFlush || op == opMigrateCommit }

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
	Op     opcode
	Stream string
	// Handprint carries representative fingerprints for opBid and the
	// routed handprint of OpDedup/opDedupMissing.
	Handprint []fingerprint.Fingerprint
	// Chunks carries the super-chunk membership for opQuery and OpDedup
	// (sizes and fingerprints, payloads too when OpDedup is eager), the
	// chunks to persist for opStore and opDedupMissing (with payloads), the
	// fingerprints to fetch for opReadBatch/opMigrateRead, or the
	// fingerprints losing references for opDecRef.
	Chunks []ChunkWire
	// Counts carries per-fingerprint reference counts for opDecRef
	// (parallel to Chunks).
	Counts []int64
	// Threshold is the live-ratio floor for opCompact (≤0 selects the
	// node's configured threshold).
	Threshold float64
	// TimeoutMS is the caller's remaining deadline in milliseconds at
	// send time (0 = none): it bounds the server handler's context, so a
	// call the client gave up on stops burning server work.
	TimeoutMS int64
}

// response is the single envelope for all server replies.
type response struct {
	ID  uint64
	Err string
	// Count is the similarity bid for opBid.
	Count int
	// Usage is the node storage usage for opBid.
	Usage int64
	// Dup holds per-chunk duplicate verdicts for opQuery and OpDedup; on
	// an OpDedup or opDedupMissing error reply, which chunks hold a
	// reference the failed call took.
	Dup []bool
	// Chunks returns payloads for opReadBatch and opMigrateRead.
	Chunks []ChunkWire
	// Counts carries per-fingerprint reference counts for opRefCounts
	// (parallel to the request's Chunks).
	Counts []int64
	// Stats is populated for opStats.
	Stats node.Stats
	// GC is populated for opGCStats.
	GC store.GCStats
	// Compacted is populated for opCompact.
	Compacted store.CompactResult
	// Idx tags each entry of Chunks with the index of the request chunk
	// it answers. Populated for opReadBatch, whose payloads come back in
	// container read order rather than request order.
	Idx []uint32

	// frame, when non-nil, is the pooled receive buffer that Chunks'
	// payloads alias (client side only; never encoded). Whoever consumes
	// the response must call ReleaseFrame exactly once.
	frame []byte
}
