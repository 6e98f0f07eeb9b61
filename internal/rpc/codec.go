package rpc

import (
	"fmt"
	"io"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/store"
	"sigmadedupe/internal/wire"
)

// Frame kinds of the call layer. A batched-ack frame carries only
// request IDs: it acknowledges ack-eligible verbs whose reply would
// otherwise be empty, letting the server coalesce the whole in-flight
// super-chunk window into one frame and one flush.
const (
	frameRequest  byte = 1
	frameResponse byte = 2
	frameAcks     byte = 3
)

// maxFrame bounds any single message of the call layer.
const maxFrame = wire.DefaultMaxFrame

// vectoredMin is the total-payload threshold above which a frame, request
// or reply, is sent with writev (writeVectored) instead of copying the
// payloads into the encode buffer. Below it the copy is cheaper than the
// extra iovec bookkeeping.
const vectoredMin = 64 << 10

// writeVectored sends head ‖ chunks' payloads as one frame straight to
// conn, the payloads in place; head begins with the four spare bytes of
// the length prefix. The caller holds the connection's write lock.
func writeVectored(v *wire.VecWriter, conn io.Writer, head []byte, chunks []core.ChunkRef) error {
	v.Add(head)
	for i := range chunks {
		v.Add(chunks[i].Data)
	}
	return v.Write(conn)
}

// appendRequestHeader encodes the header every request frame starts
// with: kind | ID | op | timeoutMS.
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

// appendResponseHeader encodes the header every reply frame starts with:
// kind | ID | err.
func appendResponseHeader(b []byte, id uint64, err string) []byte {
	b = wire.AppendU8(b, frameResponse)
	b = wire.AppendU64(b, id)
	return wire.AppendString(b, err)
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

// appendAcks encodes a batched-ack frame for the given request IDs.
func appendAcks(b []byte, ids []uint64) []byte {
	x := coder{b: wire.AppendU8(b, frameAcks)}
	list(&x, &ids, 8, x.u64)
	return x.b
}

// decodeAcks decodes a batched-ack frame body into request IDs.
func decodeAcks(body []byte) ([]uint64, error) {
	r := wire.NewReader(body)
	if k := r.U8(); k != frameAcks {
		return nil, fmt.Errorf("%w: ack frame kind %d", wire.ErrMalformed, k)
	}
	var ids []uint64
	x := coder{r: r}
	list(&x, &ids, 8, x.u64)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("rpc: decode acks: %w", err)
	}
	return ids, nil
}

// coder walks a message's fields in wire order: with r set it decodes
// into them, otherwise it appends them to b. One walk per message keeps
// the two directions from drifting apart. A chunk list's payloads are
// not appended but kept in payloads: the list is a message's last field,
// so b ‖ payloads is the whole message (frame), and a large one goes to
// writev in place.
type coder struct {
	b        []byte
	r        *wire.Reader
	payloads []core.ChunkRef
	err      error // content the reader cannot see is wrong (a forged chunk size)
}

// grow makes room for n more bytes, trading a pooled buffer for a larger
// one instead of letting append allocate outside the pools.
func (x *coder) grow(n int) {
	if cap(x.b)-len(x.b) < n {
		b := append(wire.GetBuf(len(x.b) + n)[:0], x.b...)
		wire.PutBuf(x.b)
		x.b = b
	}
}

// frame finishes an encoded message: payloads under vectoredMin join b,
// larger ones are returned for writeVectored.
func (x *coder) frame() (body []byte, payloads []core.ChunkRef) {
	n := payloadSize(x.payloads)
	if n >= vectoredMin {
		return x.b, x.payloads
	}
	x.grow(n)
	for i := range x.payloads {
		x.b = append(x.b, x.payloads[i].Data...)
	}
	return x.b, nil
}

// done is the decoder's verdict: the body consumed exactly, every value
// in it plausible.
func (x *coder) done() error {
	if err := x.r.Done(); err != nil {
		return err
	}
	return x.err
}

func walk[T any](x *coder, v *T, put func([]byte, T) []byte, get func() T) {
	if x.r != nil {
		*v = get()
	} else {
		x.b = put(x.b, *v)
	}
}

func (x *coder) u32(v *uint32)  { walk(x, v, wire.AppendU32, x.r.U32) }
func (x *coder) u64(v *uint64)  { walk(x, v, wire.AppendU64, x.r.U64) }
func (x *coder) i64(v *int64)   { walk(x, v, wire.AppendI64, x.r.I64) }
func (x *coder) f64(v *float64) { walk(x, v, wire.AppendF64, x.r.F64) }
func (x *coder) flag(v *bool)   { walk(x, v, wire.AppendBool, x.r.Bool) }
func (x *coder) str(v *string)  { walk(x, v, wire.AppendString, x.r.String) }

func (x *coder) i32(v *int32) { u := uint32(*v); x.u32(&u); *v = int32(u) }
func (x *coder) int(v *int)   { n := int64(*v); x.i64(&n); *v = int(n) }

func (x *coder) fp(v *fingerprint.Fingerprint) {
	if x.r != nil {
		copy(v[:], x.r.Raw(fingerprint.Size))
	} else {
		x.b = append(x.b, v[:]...)
	}
}

// list walks a u32-counted list whose elements take at least min bytes
// on the wire (the bound that keeps a corrupt count from allocating).
func list[T any](x *coder, v *[]T, min int, each func(*T)) {
	if x.r == nil {
		x.grow(4 + len(*v)*min)
		x.b = wire.AppendU32(x.b, uint32(len(*v)))
	} else if n := x.r.Count(min); n > 0 {
		*v = make([]T, n)
	} else {
		*v = nil
	}
	for i := range *v {
		each(&(*v)[i])
	}
}

func (x *coder) fps(v *[]fingerprint.Fingerprint) { list(x, v, fingerprint.Size, x.fp) }
func (x *coder) flags(v *[]bool)                  { list(x, v, 1, x.flag) }
func (x *coder) i64s(v *[]int64)                  { list(x, v, 8, x.i64) }

// chunkHeader is a chunk list's fixed bytes per chunk: fingerprint, size
// and payload length.
const chunkHeader = fingerprint.Size + 8

// chunks walks a chunk list: u32 count, then the fixed per-chunk headers,
// then all payloads concatenated — so the decoder aliases every payload
// in the frame with no per-chunk framing, and the encoder leaves them to
// frame. A payload length of zero means Data == nil (fingerprint-only
// chunk). A chunk whose size is negative, or disagrees with the length
// of the payload it came with, is refused (err): the node would account
// its size while storing its payload.
func (x *coder) chunks(v *[]core.ChunkRef) {
	if x.r == nil {
		x.grow(4 + len(*v)*chunkHeader)
		x.b = wire.AppendU32(x.b, uint32(len(*v)))
		for i := range *v {
			ch := &(*v)[i]
			x.b = append(x.b, ch.FP[:]...)
			x.b = wire.AppendU32(x.b, uint32(ch.Size))
			x.b = wire.AppendU32(x.b, uint32(len(ch.Data)))
		}
		x.payloads = *v
		return
	}
	r := x.r
	n := r.Count(chunkHeader)
	if n == 0 {
		*v = nil
		return
	}
	out := make([]core.ChunkRef, n)
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
		out[i].Size = int(int32(r.U32()))
		dlens[i] = r.U32()
		if size := out[i].Size; (size < 0 || dlens[i] != 0 && int64(dlens[i]) != int64(size)) && x.err == nil {
			x.err = fmt.Errorf("chunk %d: size %d with a %d-byte payload", i, size, dlens[i])
		}
	}
	for i := 0; i < n; i++ {
		if dlens[i] != 0 {
			out[i].Data = r.Raw(int(dlens[i]))
		}
	}
	*v = out
}

// payloadSize returns the total payload bytes of a chunk list.
func payloadSize(chunks []core.ChunkRef) int {
	n := 0
	for i := range chunks {
		n += len(chunks[i].Data)
	}
	return n
}

func (x *coder) gcStats(v *store.GCStats) {
	x.i64(&v.StoredBytes)
	x.i64(&v.DeadBytes)
	x.i64(&v.LiveBytes)
	x.int(&v.Containers)
	x.i64(&v.RetiredContainers)
	x.i64(&v.ReclaimedBytes)
	x.i64(&v.CopiedBytes)
	x.i64(&v.CompactRuns)
	x.i64(&v.CompactErrors)
	x.str(&v.LastCompactErr)
}

func (x *coder) compacted(v *store.CompactResult) {
	x.int(&v.Scanned)
	x.int(&v.Rewritten)
	x.int(&v.Retired)
	x.i64(&v.CopiedBytes)
	x.i64(&v.ReclaimedBytes)
	x.int(&v.SkippedNoPayload)
}
