package rpc

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/node"
	"sigmadedupe/internal/sderr"
	"sigmadedupe/internal/store"
	"sigmadedupe/internal/wire"
)

// Client is a pipelined connection to one deduplication server. Multiple
// goroutines may issue calls concurrently; requests are matched to
// responses by ID, so many calls can be in flight at once — the paper's
// batched asynchronous RPC design.
//
// Every call takes a context.Context: a context deadline travels on the
// wire (the server bounds its handler with it), and cancellation
// abandons the wait immediately — the response, if it ever arrives, is
// discarded by the read loop.
type Client struct {
	conn  net.Conn
	bw    *bufio.Writer
	calls atomic.Int64

	wmu    sync.Mutex     // serializes frame writes
	vec    wire.VecWriter // vectored-send scratch, guarded by wmu
	mu     sync.Mutex     // guards pending/nextID/err/chfree
	nextID uint64
	pend   map[uint64]chan Response
	chfree []chan Response // recycled response channels (empty, never closed)
	err    error
	done   chan struct{}
}

// getChanLocked pops a recycled response channel (or makes one). Caller
// holds c.mu.
func (c *Client) getChanLocked() chan Response {
	if last := len(c.chfree) - 1; last >= 0 {
		ch := c.chfree[last]
		c.chfree[last] = nil
		c.chfree = c.chfree[:last]
		return ch
	}
	return make(chan Response, 1)
}

// putChanLocked recycles a response channel. Only channels proven empty
// and unclosed may come back: either the call received its response, or
// the pending entry was still registered (so no sender existed). Caller
// holds c.mu.
func (c *Client) putChanLocked(ch chan Response) {
	if len(c.chfree) < 64 {
		c.chfree = append(c.chfree, ch)
	}
}

// Calls returns how many requests this connection has issued — the RPC
// message count of the session (observability for the Fig. 7-style
// overhead accounting on the prototype path).
func (c *Client) Calls() int64 { return c.calls.Load() }

// Dial connects to a deduplication server.
func Dial(addr string) (*Client, error) {
	return DialContext(context.Background(), addr)
}

// DialContext connects to a deduplication server, honoring ctx for the
// dial itself (deadline and cancellation).
func DialContext(ctx context.Context, addr string) (*Client, error) {
	network, address := splitAddr(addr)
	var d net.Dialer
	conn, err := d.DialContext(ctx, network, address)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	tuneConn(conn)
	// Exchange the version/protocol handshake before any frame, bounded
	// by the dial context's deadline.
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	if err := wire.WriteHandshake(conn, wire.ProtoNode); err != nil {
		conn.Close()
		return nil, fmt.Errorf("rpc: handshake %s: %w", addr, err)
	}
	if _, err := wire.ReadHandshake(conn, wire.ProtoNode); err != nil {
		conn.Close()
		return nil, fmt.Errorf("rpc: handshake %s: %w", addr, err)
	}
	conn.SetDeadline(time.Time{})
	c := &Client{
		conn: conn,
		bw:   bufio.NewWriterSize(conn, 256<<10),
		pend: make(map[uint64]chan Response),
		done: make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// Close tears down the connection; outstanding calls fail.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.done
	return err
}

func (c *Client) readLoop() {
	defer close(c.done)
	br := bufio.NewReaderSize(c.conn, 256<<10)
	for {
		body, err := wire.ReadFrame(br, maxFrame)
		if err == nil {
			err = c.dispatchFrame(body)
		}
		if err != nil {
			c.mu.Lock()
			c.err = fmt.Errorf("rpc: connection lost: %w", err)
			for id, ch := range c.pend {
				close(ch)
				delete(c.pend, id)
			}
			c.mu.Unlock()
			return
		}
	}
}

// dispatchFrame decodes one inbound frame and delivers it to the waiting
// call(s). Payload-free frames release the pooled buffer here; a
// payload-carrying response instead transfers frame ownership to the
// waiting call (Response.frame), so restore payloads are consumed as
// zero-copy aliases of the receive buffer and the buffer returns to the
// pool only after the caller is done with them (ReleaseFrame).
func (c *Client) dispatchFrame(body []byte) error {
	if len(body) == 0 {
		wire.PutBuf(body)
		return fmt.Errorf("%w: empty frame", wire.ErrMalformed)
	}
	switch body[0] {
	case frameResponse:
		resp, err := decodeResponse(body)
		if err != nil {
			wire.PutBuf(body)
			return err
		}
		carries := false
		for i := range resp.Chunks {
			if resp.Chunks[i].Data != nil {
				carries = true
				break
			}
		}
		if carries {
			resp.frame = body
			if !c.deliver(resp) {
				// Abandoned call: nobody will ever release the frame.
				wire.PutBuf(body)
			}
		} else {
			wire.PutBuf(body)
			c.deliver(resp)
		}
		return nil
	case frameAcks:
		defer wire.PutBuf(body)
		ids, err := decodeAcks(body)
		if err != nil {
			return err
		}
		for _, id := range ids {
			c.deliver(Response{ID: id})
		}
		return nil
	default:
		wire.PutBuf(body)
		return fmt.Errorf("%w: unknown frame kind %d", wire.ErrMalformed, body[0])
	}
}

// deliver hands resp to its waiting call, reporting whether a call was
// still registered to receive it.
func (c *Client) deliver(resp Response) bool {
	c.mu.Lock()
	ch, ok := c.pend[resp.ID]
	if ok {
		delete(c.pend, resp.ID)
	}
	c.mu.Unlock()
	if ok {
		ch <- resp
	}
	return ok
}

// Call issues one request and waits for its response. A context deadline
// is carried to the server as the request's time budget; cancellation
// deregisters the pending call and returns ctx.Err() without waiting for
// the (now unwanted) response.
func (c *Client) Call(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.TimeoutMS = ms
	}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return Response{}, err
	}
	ch := c.getChanLocked()
	c.nextID++
	req.ID = c.nextID
	c.pend[req.ID] = ch
	c.mu.Unlock()

	// Encode outside the write lock into a pooled scratch buffer, then
	// write the frame under wmu and release the buffer. Payload-heavy
	// frames (super-chunk stores) are sent vectored: the length prefix
	// and metadata go into one small scratch buffer and the chunk
	// payloads are handed to writev in place (wire.VecWriter).
	payload := payloadSize(req.Chunks)
	var body []byte
	vectored := payload >= vectoredMin
	if vectored {
		body = append(wire.GetBuf(4 + requestSize(&req) - payload)[:0], 0, 0, 0, 0)
		body = appendRequestMeta(body, &req)
	} else {
		body = appendRequest(wire.GetBuf(requestSize(&req))[:0], &req)
	}

	c.wmu.Lock()
	// The frame write goes straight to the socket and can block when the
	// peer stops reading (send buffer full). A watcher turns ctx
	// cancellation into a write deadline so the write unblocks; a
	// partially written frame corrupts the stream framing, so the failed
	// connection is simply surfaced as a send error (cancel-mid-write
	// cannot preserve the stream).
	var watchStop, watchDone chan struct{}
	if ctx.Done() != nil {
		watchStop, watchDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(watchDone)
			select {
			case <-ctx.Done():
				c.conn.SetWriteDeadline(time.Unix(1, 0))
			case <-watchStop:
			}
		}()
	}
	var err error
	if vectored {
		// c.bw is always flushed between frames, so the vectored frame
		// can go straight to the socket without reordering.
		err = writeVectored(&c.vec, c.conn, body, req.Chunks, nil)
	} else {
		err = wire.WriteFrame(c.bw, body)
		if err == nil {
			err = c.bw.Flush()
		}
	}
	if watchStop != nil {
		close(watchStop)
		<-watchDone // joined: no stale deadline can land after the reset
		c.conn.SetWriteDeadline(time.Time{})
	}
	c.wmu.Unlock()
	wire.PutBuf(body)
	if err != nil {
		c.abandon(req.ID, ch)
		if cerr := ctx.Err(); cerr != nil {
			return Response{}, fmt.Errorf("rpc: send canceled: %w", cerr)
		}
		return Response{}, fmt.Errorf("rpc: send: %w", err)
	}
	// Count only requests that actually reached the wire, so Calls()
	// reflects real message traffic even on failing connections.
	c.calls.Add(1)
	select {
	case resp, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			return Response{}, err
		}
		// The read loop sent exactly one value and the entry left pend
		// before the send, so ch is empty and unclosed: recyclable.
		c.mu.Lock()
		c.putChanLocked(ch)
		c.mu.Unlock()
		if resp.Err != "" {
			return resp, fmt.Errorf("rpc: remote: %w", sderr.Decode(resp.Err))
		}
		return resp, nil
	case <-ctx.Done():
		// Abandon the call: deregister so a late response is dropped by
		// the read loop instead of leaking the slot.
		c.abandon(req.ID, ch)
		return Response{}, ctx.Err()
	}
}

// abandon deregisters a call that will never be waited on. The channel
// is recycled only if the pending entry was still present — proof the
// read loop had not claimed it, so nothing was or will be sent on it.
// If the entry is gone, the read loop owns the channel (a response may
// be in flight into its buffer, or it was closed by connection failure)
// and it is simply dropped.
func (c *Client) abandon(id uint64, ch chan Response) {
	c.mu.Lock()
	if _, ok := c.pend[id]; ok {
		delete(c.pend, id)
		c.putChanLocked(ch)
	}
	c.mu.Unlock()
}

// Bid sends a handprint and returns the node's similarity match count and
// storage usage (Algorithm 1 step 2).
func (c *Client) Bid(ctx context.Context, hp core.Handprint) (count int, usage int64, err error) {
	resp, err := c.Call(ctx, Request{Op: OpBid, Handprint: hp})
	if err != nil {
		return 0, 0, err
	}
	return resp.Count, resp.Usage, nil
}

// Query performs the batched duplicate check for a super-chunk, taking
// no reference. Kept with Store for the benchmark's traced replay (see
// OpQuery); ingest stores through Dedup.
func (c *Client) Query(ctx context.Context, sc *core.SuperChunk) ([]bool, error) {
	resp, err := c.Call(ctx, Request{Op: OpQuery, Chunks: superChunkToWire(sc, false)})
	if err != nil {
		return nil, err
	}
	return resp.Dup, nil
}

// Dedup stores a routed super-chunk on the node, fingerprints first: an
// OpDedup round trip gives every chunk the node holds its reference and
// reports the rest, then one OpDedupMissing round trip carries the
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
	resp, err := c.Call(ctx, Request{Op: OpDedup, Stream: stream, Handprint: hp, Chunks: superChunkToWire(sc, eager)})
	fresh := make([]bool, len(sc.Chunks))
	for i := range fresh {
		fresh[i] = i >= len(resp.Dup) || !resp.Dup[i]
	}
	if err == nil && len(resp.Dup) != len(sc.Chunks) {
		for i := range fresh {
			fresh[i] = true
		}
		err = fmt.Errorf("rpc: dedup: got %d verdicts, want %d", len(resp.Dup), len(sc.Chunks))
	}
	if err != nil {
		return fresh, err
	}
	var missing []ChunkWire
	var at []int
	for i, ch := range sc.Chunks {
		if fresh[i] && (!eager || ch.Data == nil) {
			missing = append(missing, ChunkWire{FP: ch.FP, Size: int32(ch.Size), Data: ch.Data})
			at = append(at, i)
		}
	}
	if len(missing) == 0 {
		return fresh, nil
	}
	resp, err = c.Call(ctx, Request{Op: OpDedupMissing, Stream: stream, Handprint: hp, Chunks: missing})
	if err != nil {
		// Everything but the missing chunks holds its reference from the
		// first call; of those, the ones the failed reply names.
		unref := make([]bool, len(fresh))
		for j, i := range at {
			unref[i] = j >= len(resp.Dup) || !resp.Dup[j]
		}
		return unref, err
	}
	return fresh, nil
}

// Store sends a super-chunk (with payloads for chunks the server must
// persist) to the target node. Kept with Query for the benchmark's traced
// replay.
func (c *Client) Store(ctx context.Context, stream string, sc *core.SuperChunk, withData bool) error {
	op := OpStoreRefs
	if withData {
		op = OpStore
	}
	_, err := c.Call(ctx, Request{Op: op, Stream: stream, Chunks: superChunkToWire(sc, withData)})
	return err
}

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
// client side of the batched restore path. The server reads each
// involved container once, sequentially; the response's read-order
// payloads are scattered back into request order here via Response.Idx.
// The caller bounds total batch bytes well below the frame limit (the
// restore scheduler windows by recipe sizes).
func (c *Client) ReadBatch(ctx context.Context, fps []fingerprint.Fingerprint) (*ChunkBatch, error) {
	chunks := make([]ChunkWire, len(fps))
	for i, fp := range fps {
		chunks[i] = ChunkWire{FP: fp}
	}
	resp, err := c.Call(ctx, Request{Op: OpReadBatch, Chunks: chunks})
	if err != nil {
		resp.ReleaseFrame()
		return nil, err
	}
	if len(resp.Chunks) != len(fps) || len(resp.Idx) != len(resp.Chunks) {
		resp.ReleaseFrame()
		return nil, fmt.Errorf("rpc: read batch: got %d payloads, %d tags, want %d",
			len(resp.Chunks), len(resp.Idx), len(fps))
	}
	out := make([][]byte, len(fps))
	var total int64
	for i := range resp.Chunks {
		j := int(resp.Idx[i])
		if j >= len(out) || out[j] != nil {
			resp.ReleaseFrame()
			return nil, fmt.Errorf("rpc: read batch: bad request-index tag %d", j)
		}
		out[j] = resp.Chunks[i].Data
		total += int64(len(resp.Chunks[i].Data))
	}
	b := &ChunkBatch{Data: out, Bytes: total, frame: resp.frame}
	resp.frame = nil // ownership moved to the batch
	return b, nil
}

// Flush seals the server's open containers.
func (c *Client) Flush(ctx context.Context) error {
	_, err := c.Call(ctx, Request{Op: OpFlush})
	return err
}

// DecRef releases backup references on the server's chunks: fps[i] loses
// ns[i] references (one batch per node of a deleted backup's recipe).
func (c *Client) DecRef(ctx context.Context, fps []fingerprint.Fingerprint, ns []int64) error {
	chunks := make([]ChunkWire, len(fps))
	for i, fp := range fps {
		chunks[i] = ChunkWire{FP: fp}
	}
	_, err := c.Call(ctx, Request{Op: OpDecRef, Chunks: chunks, Counts: ns})
	return err
}

// MigrateRead fetches a batch of chunk payloads by fingerprint — the
// source side of a super-chunk migration. The response carries one
// payload per requested fingerprint, in order.
func (c *Client) MigrateRead(ctx context.Context, fps []fingerprint.Fingerprint) ([][]byte, error) {
	chunks := make([]ChunkWire, len(fps))
	for i, fp := range fps {
		chunks[i] = ChunkWire{FP: fp}
	}
	resp, err := c.Call(ctx, Request{Op: OpMigrateRead, Chunks: chunks})
	defer resp.ReleaseFrame()
	if err != nil {
		return nil, err
	}
	if len(resp.Chunks) != len(fps) {
		return nil, fmt.Errorf("rpc: migrate read: got %d payloads, want %d", len(resp.Chunks), len(fps))
	}
	out := make([][]byte, len(resp.Chunks))
	for i, ch := range resp.Chunks {
		out[i] = append([]byte(nil), ch.Data...)
	}
	return out, nil
}

// MigrateCommit makes the migration stream's writes durable on the
// node (its container sealed, manifest fsynced): the target-side
// commit that must land before the recipe repoints at the node.
// Concurrent backup streams' open containers are left undisturbed.
func (c *Client) MigrateCommit(ctx context.Context, stream string) error {
	_, err := c.Call(ctx, Request{Op: OpMigrateCommit, Stream: stream})
	return err
}

// RefCounts fetches the node's current reference count for each chunk
// fingerprint (migration recovery's reconciliation probe).
func (c *Client) RefCounts(ctx context.Context, fps []fingerprint.Fingerprint) ([]int64, error) {
	chunks := make([]ChunkWire, len(fps))
	for i, fp := range fps {
		chunks[i] = ChunkWire{FP: fp}
	}
	resp, err := c.Call(ctx, Request{Op: OpRefCounts, Chunks: chunks})
	if err != nil {
		return nil, err
	}
	if len(resp.Counts) != len(fps) {
		return nil, fmt.Errorf("rpc: ref counts: got %d counts, want %d", len(resp.Counts), len(fps))
	}
	return resp.Counts, nil
}

// Compact runs one compaction scan on the server (≤0 threshold selects
// the server's configured live-ratio floor).
func (c *Client) Compact(ctx context.Context, threshold float64) (store.CompactResult, error) {
	resp, err := c.Call(ctx, Request{Op: OpCompact, Threshold: threshold})
	if err != nil {
		return store.CompactResult{}, err
	}
	return resp.Compacted, nil
}

// GCStats fetches the server's deletion/compaction counters and storage
// usage.
func (c *Client) GCStats(ctx context.Context) (store.GCStats, int64, error) {
	resp, err := c.Call(ctx, Request{Op: OpGCStats})
	if err != nil {
		return store.GCStats{}, 0, err
	}
	return resp.GC, resp.Usage, nil
}

// Stats fetches node statistics and storage usage.
func (c *Client) Stats(ctx context.Context) (node.Stats, int64, error) {
	resp, err := c.Call(ctx, Request{Op: OpStats})
	if err != nil {
		return node.Stats{}, 0, err
	}
	return resp.Stats, resp.Usage, nil
}

func superChunkToWire(sc *core.SuperChunk, withData bool) []ChunkWire {
	out := make([]ChunkWire, len(sc.Chunks))
	for i, ch := range sc.Chunks {
		w := ChunkWire{FP: ch.FP, Size: int32(ch.Size)}
		if withData {
			w.Data = ch.Data
		}
		out[i] = w
	}
	return out
}
