package rpc

import (
	"context"
	"fmt"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/store"
	"sigmadedupe/internal/wire"
)

// The deduplication node's verbs, each with its Client method.

type bidReply struct {
	count int
	usage int64
}

// bid asks for the similarity-index match count of a handprint
// (Algorithm 1 step 2) plus current storage usage.
var bid = declare(1, 0, (*coder).fps,
	func(x *coder, r *bidReply) { x.int(&r.count); x.i64(&r.usage) },
	func(n *store.Engine, _ context.Context, hp []fingerprint.Fingerprint) (bidReply, error) {
		return bidReply{n.CountHandprintMatches(hp), n.StorageUsage()}, nil
	})

// Bid sends a handprint and returns the node's similarity match count and
// storage usage (Algorithm 1 step 2).
func (c *Client) Bid(ctx context.Context, hp core.Handprint) (count int, usage int64, err error) {
	r, err := call(c, ctx, bid, []fingerprint.Fingerprint(hp))
	return r.count, r.usage, err
}

// query asks, for each chunk of a super-chunk, whether the node already
// stores it, taking no reference. With storeChunks it is kept for the
// benchmark's traced replay until that is deleted (ROADMAP item 7(c));
// ingest speaks dedup.
var query = declare(2, 0, (*coder).chunks, (*coder).flags,
	func(n *store.Engine, _ context.Context, chunks []core.ChunkRef) ([]bool, error) {
		return n.QuerySuperChunk(&core.SuperChunk{Chunks: chunks}), nil
	})

// Query performs the batched duplicate check for a super-chunk, taking
// no reference. Kept with Store for the benchmark's traced replay; ingest
// stores through Dedup.
func (c *Client) Query(ctx context.Context, sc *core.SuperChunk) ([]bool, error) {
	return call(c, ctx, query, withoutPayloads(sc.Chunks))
}

// scArgs is a super-chunk on its way to a stream: the router's handprint
// (empty: the node computes its own) and the chunks, with the payloads
// that travel.
type scArgs struct {
	stream string
	hp     []fingerprint.Fingerprint
	chunks []core.ChunkRef
}

func (x *coder) scArgs(a *scArgs) { x.str(&a.stream); x.fps(&a.hp); x.chunks(&a.chunks) }

func (a scArgs) sc() *core.SuperChunk { return &core.SuperChunk{Chunks: a.chunks} }

// storeChunks is the eager one-pass dedup of a super-chunk, with the
// payloads of the chunks a query found new, or with none (trace mode).
var storeChunks = declare(3, stores|acked|payloads, (*coder).scArgs, none,
	func(n *store.Engine, _ context.Context, a scArgs) (struct{}, error) {
		_, err := n.Dedup(a.stream, a.sc(), a.hp, true)
		return struct{}{}, err
	})

// Store sends a super-chunk, with payloads for the chunks the node must
// persist or without any, to the target node. Kept with Query for the
// benchmark's traced replay.
func (c *Client) Store(ctx context.Context, stream string, sc *core.SuperChunk, withData bool) error {
	chunks := sc.Chunks
	if !withData {
		chunks = withoutPayloads(chunks)
	}
	_, err := call(c, ctx, storeChunks, scArgs{stream: stream, chunks: chunks})
	return err
}

// held turns a node's fresh verdicts into the reply's: chunk i held, or,
// on an error reply, holding a reference the failed call took.
func held(fresh []bool, err error) ([]bool, error) {
	dup := make([]bool, len(fresh))
	for i, f := range fresh {
		dup[i] = !f
	}
	return dup, err
}

// dedup is the ingest store of a routed super-chunk, fingerprints first:
// one node pass gives every chunk the node holds its reference (verdict
// and reference under one shard lock, so nothing the reply calls held can
// be collected before the payloads follow) and appends every chunk that
// came with a payload — all of them when the client sends eagerly, as it
// does for a super-chunk no node resembles. A handprint longer than
// store's maxHandprint or not strictly ascending is refused as malformed.
var dedup = declare(16, stores|payloads, (*coder).scArgs, (*coder).flags,
	func(n *store.Engine, _ context.Context, a scArgs) ([]bool, error) {
		return held(n.Dedup(a.stream, a.sc(), a.hp, false))
	})

// dedupMissing delivers, with payloads, the chunks a dedup reply reported
// missing — the second and last round trip of a super-chunk whose target
// lacks chunks — under the same handprint.
var dedupMissing = declare(17, stores|acked|payloads, (*coder).scArgs, (*coder).flags,
	func(n *store.Engine, _ context.Context, a scArgs) ([]bool, error) {
		return held(n.StoreMissing(a.stream, a.sc(), a.hp))
	})

// Dedup stores a routed super-chunk on the node, fingerprints first: a
// dedup round trip gives every chunk the node holds its reference and
// reports the rest, then one dedupMissing round trip carries the
// payloads of exactly those — none when the node holds everything. With
// eager set the payloads ride in the first call and the second never
// happens (unless a chunk has no payload to send). hp is the router's
// handprint (nil: the node computes one).
//
// fresh[i] reports that chunk i was not held before. On error it reports
// instead that chunk i holds no reference the call took — as far as the
// replies tell: a call whose reply never arrived is counted as having
// taken none, which can only strand references, never free one.
func (c *Client) Dedup(ctx context.Context, stream string, sc *core.SuperChunk, hp core.Handprint, eager bool) ([]bool, error) {
	chunks := sc.Chunks
	if !eager {
		chunks = withoutPayloads(chunks)
	}
	dup, err := call(c, ctx, dedup, scArgs{stream, hp, chunks})
	fresh := make([]bool, len(sc.Chunks))
	for i := range fresh {
		fresh[i] = i >= len(dup) || !dup[i]
	}
	if err == nil && len(dup) != len(sc.Chunks) {
		for i := range fresh {
			fresh[i] = true
		}
		err = fmt.Errorf("rpc: dedup: got %d verdicts, want %d", len(dup), len(sc.Chunks))
	}
	if err != nil {
		return fresh, err
	}
	var missing []core.ChunkRef
	var at []int
	for i, ch := range sc.Chunks {
		if fresh[i] && (!eager || ch.Data == nil) {
			missing = append(missing, ch)
			at = append(at, i)
		}
	}
	if len(missing) == 0 {
		return fresh, nil
	}
	if dup, err = call(c, ctx, dedupMissing, scArgs{stream, hp, missing}); err != nil {
		// Everything but the missing chunks holds its reference from the
		// first call; of those, the ones the failed reply names.
		unref := make([]bool, len(fresh))
		for j, i := range at {
			unref[i] = j >= len(dup) || !dup[j]
		}
		return unref, err
	}
	return fresh, nil
}

// withoutPayloads is a fingerprint-only copy of a chunk list.
func withoutPayloads(chunks []core.ChunkRef) []core.ChunkRef {
	out := make([]core.ChunkRef, len(chunks))
	for i, ch := range chunks {
		out[i] = core.ChunkRef{FP: ch.FP, Size: ch.Size}
	}
	return out
}

// readReply is a batch of payloads in the node's container read order,
// idx[i] the position in the request of the fingerprint chunks[i]
// answers.
type readReply struct {
	idx    []uint32
	chunks []core.ChunkRef
}

// readBatch fetches a batch of chunk payloads in one round trip (batched
// restore, and a migration's read). The node groups the requested
// fingerprints by container via its chunk index and reads each container
// once, sequentially; the payloads alias node-owned memory and leave
// uncopied.
var readBatch = declare(15, payloads, (*coder).fps,
	func(x *coder, r *readReply) { list(x, &r.idx, 4, x.u32); x.chunks(&r.chunks) },
	func(n *store.Engine, _ context.Context, fps []fingerprint.Fingerprint) (readReply, error) {
		datas, idxs, err := n.ReadChunkBatch(fps)
		if err != nil {
			return readReply{}, err // an errored reply ships no payloads
		}
		r := readReply{make([]uint32, len(datas)), make([]core.ChunkRef, len(datas))}
		for i, data := range datas {
			r.idx[i] = uint32(idxs[i])
			r.chunks[i] = core.ChunkRef{FP: fps[idxs[i]], Size: len(data), Data: data}
		}
		return r, nil
	})

// ChunkBatch is the result of one ReadBatch call: Data[i] is the payload
// of the i-th requested fingerprint. The payloads alias the pooled
// receive frame — the caller must invoke Release exactly once, after the
// data has been written out, to recycle the buffer.
type ChunkBatch struct {
	Data  [][]byte
	Bytes int64 // total payload bytes
	frame []byte
}

// Release returns the batch's receive frame to the buffer pool. The
// Data slices are invalid afterwards. Safe to call more than once.
func (b *ChunkBatch) Release() {
	if b.frame != nil {
		wire.PutBuf(b.frame)
		b.frame = nil
		b.Data = nil
	}
}

// ReadBatch fetches a batch of chunk payloads in one round trip — the
// client side of the batched restore path and of a migration's read. The
// reply's read-order payloads are scattered back into request order here,
// and the batch takes over the receive frame they alias. The caller
// bounds total batch bytes well below the frame limit (the restore
// scheduler windows by recipe sizes).
func (c *Client) ReadBatch(ctx context.Context, fps []fingerprint.Fingerprint) (*ChunkBatch, error) {
	r, frame, err := exchange(c, ctx, readBatch, fps)
	b := &ChunkBatch{Data: make([][]byte, len(fps)), frame: frame}
	if err == nil && (len(r.chunks) != len(fps) || len(r.idx) != len(r.chunks)) {
		err = fmt.Errorf("rpc: read batch: got %d payloads, %d tags, want %d", len(r.chunks), len(r.idx), len(fps))
	}
	for i := 0; err == nil && i < len(r.chunks); i++ {
		j := int(r.idx[i])
		if j >= len(b.Data) || b.Data[j] != nil {
			err = fmt.Errorf("rpc: read batch: bad request-index tag %d", j)
			break
		}
		b.Data[j] = r.chunks[i].Data
		b.Bytes += int64(len(r.chunks[i].Data))
	}
	if err != nil {
		b.Release()
		return nil, err
	}
	return b, nil
}

// flush seals the node's open containers.
var flush = declare(6, seals|acked, none, none,
	func(n *store.Engine, _ context.Context, _ struct{}) (struct{}, error) { return struct{}{}, n.Flush() })

// Flush seals the server's open containers.
func (c *Client) Flush(ctx context.Context) error {
	_, err := call(c, ctx, flush, struct{}{})
	return err
}

// migrateCommit makes everything a migration wrote to the node on the
// stream durable (containers sealed, manifest fsynced) — the target-side
// commit that must land before the recipe may be repointed.
var migrateCommit = declare(13, seals|acked, (*coder).str, none,
	func(n *store.Engine, _ context.Context, stream string) (struct{}, error) {
		return struct{}{}, n.SealStream(stream)
	})

// MigrateCommit makes the migration stream's writes durable on the
// node (its container sealed, manifest fsynced): the target-side
// commit that must land before the recipe repoints at the node.
// Concurrent backup streams' open containers are left undisturbed.
func (c *Client) MigrateCommit(ctx context.Context, stream string) error {
	_, err := call(c, ctx, migrateCommit, stream)
	return err
}

type decRefArgs struct {
	fps    []fingerprint.Fingerprint
	counts []int64
}

// decRef releases backup references on chunks (backup deletion: one batch
// per node, grouped from the deleted recipe).
var decRef = declare(8, stores|acked, func(x *coder, a *decRefArgs) { x.fps(&a.fps); x.i64s(&a.counts) }, none,
	func(n *store.Engine, _ context.Context, a decRefArgs) (struct{}, error) {
		return struct{}{}, n.DecRef(a.fps, a.counts)
	})

// DecRef releases backup references on the server's chunks: fps[i] loses
// ns[i] references (one batch per node of a deleted backup's recipe).
func (c *Client) DecRef(ctx context.Context, fps []fingerprint.Fingerprint, ns []int64) error {
	_, err := call(c, ctx, decRef, decRefArgs{fps, ns})
	return err
}

// refCounts fetches the node's current reference count per chunk
// fingerprint (migration recovery's reconciliation probe).
var refCounts = declare(14, 0, (*coder).fps, (*coder).i64s,
	func(n *store.Engine, _ context.Context, fps []fingerprint.Fingerprint) ([]int64, error) {
		return n.RefCounts(fps), nil
	})

// RefCounts fetches the node's current reference count for each chunk
// fingerprint (migration recovery's reconciliation probe).
func (c *Client) RefCounts(ctx context.Context, fps []fingerprint.Fingerprint) ([]int64, error) {
	counts, err := call(c, ctx, refCounts, fps)
	if err == nil && len(counts) != len(fps) {
		err = fmt.Errorf("rpc: ref counts: got %d counts, want %d", len(counts), len(fps))
	}
	return counts, err
}

// compact runs one compaction scan on the node (≤0 threshold selects its
// configured live-ratio floor).
var compact = declare(9, 0, (*coder).f64, (*coder).compacted, (*store.Engine).Compact)

// Compact runs one compaction scan on the server (≤0 threshold selects
// the server's configured live-ratio floor).
func (c *Client) Compact(ctx context.Context, threshold float64) (store.CompactResult, error) {
	return call(c, ctx, compact, threshold)
}

type gcReply struct {
	gc    store.GCStats
	usage int64
}

// gcStats fetches the node's deletion/compaction counters and usage.
var gcStats = declare(10, 0, none, func(x *coder, r *gcReply) { x.gcStats(&r.gc); x.i64(&r.usage) },
	func(n *store.Engine, _ context.Context, _ struct{}) (gcReply, error) {
		return gcReply{n.GCStats(), n.StorageUsage()}, nil
	})

// GCStats fetches the server's deletion/compaction counters and storage
// usage.
func (c *Client) GCStats(ctx context.Context) (store.GCStats, int64, error) {
	r, err := call(c, ctx, gcStats, struct{}{})
	return r.gc, r.usage, err
}
