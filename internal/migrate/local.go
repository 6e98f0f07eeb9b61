package migrate

import (
	"context"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/rpc"
	"sigmadedupe/internal/store"
)

// Local is the in-process Node transport: direct calls into a
// *store.Engine, the same ones the RPC server makes on the wire verbs'
// behalf.
func Local(n *store.Engine) Node { return local{n} }

type local struct{ n *store.Engine }

func (l local) Bid(_ context.Context, hp core.Handprint) (int, int64, error) {
	return l.n.CountHandprintMatches(hp), l.n.StorageUsage(), nil
}

// Dedup hands the payloads in sc to the node in its one pass, eager or
// not: in process there is no wire to spare them. A chunk the node lacks
// and sc carries no payload for is treated as the wire's second call
// treats it.
func (l local) Dedup(_ context.Context, stream string, sc *core.SuperChunk, hp core.Handprint, _ bool) ([]bool, error) {
	return l.n.Dedup(stream, sc, hp, true)
}

func (l local) Flush(context.Context) error { return l.n.Flush() }

// ReadBatch scatters the node's container-read-order results back to
// request order. The payloads alias node memory, not a pooled frame, so
// the batch's Release is a no-op.
func (l local) ReadBatch(_ context.Context, fps []fingerprint.Fingerprint) (*rpc.ChunkBatch, error) {
	out, idx, err := l.n.ReadChunkBatch(fps)
	if err != nil {
		return nil, err
	}
	b := &rpc.ChunkBatch{Data: make([][]byte, len(fps))}
	for i, data := range out {
		b.Data[idx[i]] = data
		b.Bytes += int64(len(data))
	}
	return b, nil
}

func (l local) MigrateCommit(_ context.Context, stream string) error {
	return l.n.SealStream(stream)
}

func (l local) DecRef(_ context.Context, fps []fingerprint.Fingerprint, ns []int64) error {
	return l.n.DecRef(fps, ns)
}

func (l local) RefCounts(_ context.Context, fps []fingerprint.Fingerprint) ([]int64, error) {
	return l.n.RefCounts(fps), nil
}

func (l local) Compact(ctx context.Context, threshold float64) (store.CompactResult, error) {
	return l.n.Compact(ctx, threshold)
}

func (l local) GCStats(context.Context) (store.GCStats, int64, error) {
	return l.n.GCStats(), l.n.StorageUsage(), nil
}
