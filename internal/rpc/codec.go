package rpc

import (
	"fmt"
	"io"

	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/node"
	"sigmadedupe/internal/store"
	"sigmadedupe/internal/wire"
)

// Frame kinds of the call layer. A batched-ack frame carries only
// request IDs: it acknowledges ack-eligible verbs (stores, decrefs,
// flushes) whose response would otherwise be an empty Response, letting
// the server coalesce the whole in-flight super-chunk window into one
// frame and one flush.
const (
	frameRequest  byte = 1
	frameResponse byte = 2
	frameAcks     byte = 3
)

// maxFrame bounds any single message of the call layer.
const maxFrame = wire.DefaultMaxFrame

// vectoredMin is the total-payload threshold above which a frame, request
// or response, is sent with writev (writeVectored) instead of copying the
// payloads into the encode scratch. Below it the copy is cheaper than the
// extra iovec bookkeeping.
const vectoredMin = 64 << 10

// writeVectored sends head ‖ chunks' payloads ‖ tail as one frame straight
// to conn, the payloads in place; head begins with the four spare bytes
// of the length prefix. The caller holds the connection's write lock.
func writeVectored(v *wire.VecWriter, conn io.Writer, head []byte, chunks []ChunkWire, tail []byte) error {
	v.Add(head)
	for i := range chunks {
		v.Add(chunks[i].Data)
	}
	v.Add(tail)
	return v.Write(conn)
}

// appendRequestHeader encodes the header every request frame starts
// with, node or director: kind | ID | op | timeoutMS.
func appendRequestHeader(b []byte, id uint64, op opcode, timeoutMS int64) []byte {
	b = wire.AppendU8(b, frameRequest)
	b = wire.AppendU64(b, id)
	b = wire.AppendU8(b, byte(op))
	return wire.AppendI64(b, timeoutMS)
}

// decodeRequestHeader reads that header.
func decodeRequestHeader(r *wire.Reader) (id uint64, op opcode, timeoutMS int64, err error) {
	if k := r.U8(); k != frameRequest {
		return 0, 0, 0, fmt.Errorf("%w: request frame kind %d", wire.ErrMalformed, k)
	}
	return r.U64(), opcode(r.U8()), r.I64(), r.Err()
}

// appendResponseHeader encodes the header every response frame starts
// with: kind | ID | err.
func appendResponseHeader(b []byte, id uint64, err string) []byte {
	b = wire.AppendU8(b, frameResponse)
	b = wire.AppendU64(b, id)
	return wire.AppendString(b, err)
}

// ackEligible reports whether op's successful response carries no data
// beyond the ID, making it safe to acknowledge via a batched-ack frame:
// every store but OpDedup (its reply carries verdicts), and the seals.
func ackEligible(op opcode) bool { return op.stores() && op != OpDedup || op.seals() }

// requestSize returns a capacity hint for encoding req.
func requestSize(req *Request) int {
	n := 1 + 8 + 1 + 8 + 8 + // kind, ID, Op, TimeoutMS, Threshold
		4 + len(req.Stream) +
		4 + len(req.Handprint)*fingerprint.Size +
		4 + len(req.Counts)*8 +
		4 + len(req.Chunks)*(fingerprint.Size+8)
	return n + payloadSize(req.Chunks)
}

// payloadSize returns the total chunk payload bytes of a chunk list — the
// part of a frame that the vectored send path hands to writev in place.
func payloadSize(chunks []ChunkWire) int {
	n := 0
	for i := range chunks {
		n += len(chunks[i].Data)
	}
	return n
}

// appendRequest encodes req (kind byte included) onto b.
func appendRequest(b []byte, req *Request) []byte {
	return appendPayloads(appendRequestMeta(b, req), req.Chunks)
}

// appendRequestMeta encodes everything of req except the chunk payload
// bytes. Because the chunk-list layout puts all payloads at the frame
// tail, appendRequestMeta(b, req) followed by the concatenated payloads
// is byte-identical to appendRequest(b, req) — the invariant the
// vectored send relies on.
func appendRequestMeta(b []byte, req *Request) []byte {
	b = appendRequestHeader(b, req.ID, req.Op, req.TimeoutMS)
	b = wire.AppendF64(b, req.Threshold)
	b = wire.AppendString(b, req.Stream)
	b = appendList(b, req.Handprint, func(b []byte, fp fingerprint.Fingerprint) []byte { return append(b, fp[:]...) })
	b = appendList(b, req.Counts, wire.AppendI64)
	b = appendChunksMeta(b, req.Chunks)
	return b
}

// decodeRequest decodes a request frame body. Chunk payloads ALIAS body:
// the caller owns body until it is done with the request (the server
// returns the frame to the pool only after the handler completes).
func decodeRequest(body []byte) (Request, error) {
	r := wire.NewReader(body)
	var req Request
	var err error
	if req.ID, req.Op, req.TimeoutMS, err = decodeRequestHeader(r); err != nil {
		return Request{}, err
	}
	req.Threshold = r.F64()
	req.Stream = r.String()
	req.Handprint = decodeList(r, fingerprint.Size, func() (fp fingerprint.Fingerprint) {
		copy(fp[:], r.Raw(fingerprint.Size))
		return fp
	})
	req.Counts = decodeList(r, 8, r.I64)
	req.Chunks = decodeChunks(r)
	if err := r.Done(); err != nil {
		return Request{}, fmt.Errorf("rpc: decode request: %w", err)
	}
	return req, nil
}

// appendResponse encodes resp (kind byte included) onto b: head ‖
// payloads ‖ tail, the pieces a vectored reply sends without joining them.
func appendResponse(b []byte, resp *response) []byte {
	b = appendPayloads(appendResponseHead(b, resp), resp.Chunks)
	return appendResponseTail(b, resp)
}

// appendResponseHead encodes resp up to and including the chunk headers.
func appendResponseHead(b []byte, resp *response) []byte {
	b = appendResponseHeader(b, resp.ID, resp.Err)
	b = wire.AppendI64(b, int64(resp.Count))
	b = wire.AppendI64(b, resp.Usage)
	b = appendList(b, resp.Dup, wire.AppendBool)
	b = appendList(b, resp.Counts, wire.AppendI64)
	return appendChunksMeta(b, resp.Chunks)
}

// appendResponseTail encodes what follows the chunk payloads: Stats … Idx.
func appendResponseTail(b []byte, resp *response) []byte {
	b = wire.AppendI64(b, resp.Stats.LogicalBytes)
	b = wire.AppendI64(b, resp.Stats.PhysicalBytes)
	b = wire.AppendI64(b, resp.Stats.LogicalChunks)
	b = wire.AppendI64(b, resp.Stats.UniqueChunks)
	b = wire.AppendI64(b, resp.Stats.SuperChunks)
	b = wire.AppendU64(b, resp.Stats.CacheHits)
	b = wire.AppendU64(b, resp.Stats.DiskIndexHits)
	b = wire.AppendU64(b, resp.Stats.Prefetches)
	b = wire.AppendI64(b, resp.GC.StoredBytes)
	b = wire.AppendI64(b, resp.GC.DeadBytes)
	b = wire.AppendI64(b, resp.GC.LiveBytes)
	b = wire.AppendI64(b, int64(resp.GC.Containers))
	b = wire.AppendI64(b, resp.GC.RetiredContainers)
	b = wire.AppendI64(b, resp.GC.ReclaimedBytes)
	b = wire.AppendI64(b, resp.GC.CopiedBytes)
	b = wire.AppendI64(b, resp.GC.CompactRuns)
	b = wire.AppendI64(b, resp.GC.CompactErrors)
	b = wire.AppendString(b, resp.GC.LastCompactErr)
	b = wire.AppendI64(b, int64(resp.Compacted.Scanned))
	b = wire.AppendI64(b, int64(resp.Compacted.Rewritten))
	b = wire.AppendI64(b, int64(resp.Compacted.Retired))
	b = wire.AppendI64(b, resp.Compacted.CopiedBytes)
	b = wire.AppendI64(b, resp.Compacted.ReclaimedBytes)
	b = wire.AppendI64(b, int64(resp.Compacted.SkippedNoPayload))
	return appendList(b, resp.Idx, wire.AppendU32)
}

// replyOK reports whether a reply frame carries no error.
func replyOK(frame []byte) bool {
	if frame == nil {
		return true // a batched ack
	}
	r := wire.NewReader(frame)
	r.U8() // kind and ID: the read loop matched them
	r.U64()
	return r.String() == "" && r.Err() == nil
}

// decodeResponse decodes a response frame body. Chunk payloads ALIAS
// body; the client copies them before releasing the frame.
func decodeResponse(body []byte) (response, error) {
	r := wire.NewReader(body)
	if k := r.U8(); k != frameResponse {
		return response{}, fmt.Errorf("%w: response frame kind %d", wire.ErrMalformed, k)
	}
	var resp response
	resp.ID = r.U64()
	resp.Err = r.String()
	resp.Count = int(r.I64())
	resp.Usage = r.I64()
	resp.Dup = decodeList(r, 1, r.Bool)
	resp.Counts = decodeList(r, 8, r.I64)
	resp.Chunks = decodeChunks(r)
	resp.Stats = node.Stats{
		LogicalBytes:  r.I64(),
		PhysicalBytes: r.I64(),
		LogicalChunks: r.I64(),
		UniqueChunks:  r.I64(),
		SuperChunks:   r.I64(),
		CacheHits:     r.U64(),
		DiskIndexHits: r.U64(),
		Prefetches:    r.U64(),
	}
	resp.GC = store.GCStats{
		StoredBytes:       r.I64(),
		DeadBytes:         r.I64(),
		LiveBytes:         r.I64(),
		Containers:        int(r.I64()),
		RetiredContainers: r.I64(),
		ReclaimedBytes:    r.I64(),
		CopiedBytes:       r.I64(),
		CompactRuns:       r.I64(),
		CompactErrors:     r.I64(),
		LastCompactErr:    r.String(),
	}
	resp.Compacted = store.CompactResult{
		Scanned:          int(r.I64()),
		Rewritten:        int(r.I64()),
		Retired:          int(r.I64()),
		CopiedBytes:      r.I64(),
		ReclaimedBytes:   r.I64(),
		SkippedNoPayload: int(r.I64()),
	}
	resp.Idx = decodeList(r, 4, r.U32)
	if err := r.Done(); err != nil {
		return response{}, fmt.Errorf("rpc: decode response: %w", err)
	}
	return resp, nil
}

// ReleaseFrame returns the pooled receive frame this response took
// ownership of (payload-carrying responses on the client side) — callers
// that alias Chunks' Data must invoke it exactly once, after the data has
// been consumed or copied. A no-op on responses without a frame.
func (r *response) ReleaseFrame() {
	if r.frame != nil {
		wire.PutBuf(r.frame)
		r.frame = nil
		r.Chunks = nil // aliases are invalid once the frame is pooled
	}
}

// appendAcks encodes a batched-ack frame for the given request IDs.
func appendAcks(b []byte, ids []uint64) []byte {
	return appendList(wire.AppendU8(b, frameAcks), ids, wire.AppendU64)
}

// decodeAcks decodes a batched-ack frame body into request IDs.
func decodeAcks(body []byte) ([]uint64, error) {
	r := wire.NewReader(body)
	if k := r.U8(); k != frameAcks {
		return nil, fmt.Errorf("%w: ack frame kind %d", wire.ErrMalformed, k)
	}
	ids := decodeList(r, 8, r.U64)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("rpc: decode acks: %w", err)
	}
	return ids, nil
}

// appendList encodes a u32-counted list, each element with put.
func appendList[T any](b []byte, v []T, put func([]byte, T) []byte) []byte {
	b = wire.AppendU32(b, uint32(len(v)))
	for _, e := range v {
		b = put(b, e)
	}
	return b
}

// decodeList decodes a u32-counted list whose elements take at least min
// bytes each on the wire (nil when empty).
func decodeList[T any](r *wire.Reader, min int, get func() T) []T {
	n := r.Count(min)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = get()
	}
	return out
}

// Chunk list layout: u32 count, then per-chunk fixed headers
// (fingerprint, size, payload length), then all payloads concatenated.
// Headers-before-payloads lets the decoder alias every payload as a
// sub-slice of the frame with no per-chunk framing overhead. A payload
// length of zero means Data == nil (fingerprint-only chunk).
//
// appendChunksMeta encodes the chunk count and fixed headers only; the
// payload concatenation that completes the layout is added by the caller
// (inline by appendPayloads, via writev by writeVectored).
func appendChunksMeta(b []byte, chunks []ChunkWire) []byte {
	b = wire.AppendU32(b, uint32(len(chunks)))
	for i := range chunks {
		b = append(b, chunks[i].FP[:]...)
		b = wire.AppendU32(b, uint32(chunks[i].Size))
		b = wire.AppendU32(b, uint32(len(chunks[i].Data)))
	}
	return b
}

// appendPayloads appends every chunk's payload bytes, in order.
func appendPayloads(b []byte, chunks []ChunkWire) []byte {
	for i := range chunks {
		b = append(b, chunks[i].Data...)
	}
	return b
}

// decodeChunks decodes a chunk list; Data slices alias the frame body.
func decodeChunks(r *wire.Reader) []ChunkWire {
	n := r.Count(fingerprint.Size + 8)
	if n == 0 {
		return nil
	}
	out := make([]ChunkWire, n)
	// Payload lengths are needed across the two passes; a stack buffer
	// covers any realistic super-chunk without a second heap allocation.
	var stack [512]uint32
	dlens := stack[:0]
	if n > len(stack) {
		dlens = make([]uint32, 0, n)
	}
	dlens = dlens[:n]
	for i := 0; i < n; i++ {
		copy(out[i].FP[:], r.Raw(fingerprint.Size))
		out[i].Size = int32(r.U32())
		dlens[i] = r.U32()
	}
	for i := 0; i < n; i++ {
		if dlens[i] == 0 {
			continue
		}
		out[i].Data = r.Raw(int(dlens[i]))
	}
	return out
}
