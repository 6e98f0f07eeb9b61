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

// Client is a pipelined, self-healing connection to one server: a
// deduplication node (Dial) or the director (DialDirector). Multiple
// goroutines may issue calls concurrently; requests are matched to
// responses by ID, so many calls can be in flight at once — the paper's
// batched asynchronous RPC design.
//
// Every call takes a context.Context: a context deadline travels on the
// wire (the server bounds its handler with it), and cancellation
// abandons the wait immediately — the response, if it ever arrives, is
// discarded by the read loop.
//
// A connection whose read loop ended, or whose send failed part-way, is
// closed and redialed by the next call. One dial runs at a time; after a
// failed one, calls fail fast with sderr.ErrUnavailable for redialBackoff.
// A call that reached the wire is never retried: a Dedup, DecRef or
// SwapRecipe the server may have applied must not run twice. A seal
// (Flush, MigrateCommit) answers for the client's stores since the last
// seal, so after a connection that carried unsealed ones is lost, the
// next seal fails with sderr.ErrUnavailable instead: a restarted peer may
// have lost them.
type Client struct {
	addr   string
	proto  byte
	calls  atomic.Int64
	nextID atomic.Uint64  // client-wide: no ID is reused across connections
	loops  sync.WaitGroup // the connections' read loops

	mu      sync.Mutex // guards everything below and every conn's pend/err
	cn      *conn      // the live connection; nil until (re)dialed
	closed  bool
	chfree  []chan []byte // recycled reply channels (empty, never closed)
	dialing chan struct{} // closed when the running dial ends
	retryAt time.Time     // no redial before this, after a failed one
	dialErr error
	lost    bool // a dropped connection carried unsealed stores
}

// conn is one dialed connection of a Client.
type conn struct {
	nc   net.Conn
	wmu  sync.Mutex     // serializes frame writes
	vec  wire.VecWriter // vectored-send scratch, guarded by wmu
	pend map[uint64]chan []byte
	err  error // why the connection broke
	// stored counts the store-class calls registered; sealed, how many of
	// them a successful seal covers.
	stored, sealed uint64
}

// redialBackoff is how long a failed dial keeps a Client from dialing
// again: the bound on dial attempts at a peer that is down.
const redialBackoff = 100 * time.Millisecond

// getChanLocked pops a recycled reply channel (or makes one). Caller
// holds c.mu.
func (c *Client) getChanLocked() chan []byte {
	if last := len(c.chfree) - 1; last >= 0 {
		ch := c.chfree[last]
		c.chfree[last] = nil
		c.chfree = c.chfree[:last]
		return ch
	}
	return make(chan []byte, 1)
}

// putChanLocked recycles a reply channel. Only channels proven empty
// and unclosed may come back: either the call received its reply, or
// the pending entry was still registered (so no sender existed). Caller
// holds c.mu.
func (c *Client) putChanLocked(ch chan []byte) {
	if len(c.chfree) < 64 {
		c.chfree = append(c.chfree, ch)
	}
}

// Calls returns how many requests this client has issued — the RPC
// message count of the session (observability for the Fig. 7-style
// overhead accounting on the prototype path).
func (c *Client) Calls() int64 { return c.calls.Load() }

// DialContext connects to a deduplication server, honoring ctx for the
// dial itself (deadline and cancellation).
func DialContext(ctx context.Context, addr string) (*Client, error) {
	return dialClient(ctx, addr, wire.ProtoNode)
}

func dialClient(ctx context.Context, addr string, proto byte) (*Client, error) {
	c := &Client{addr: addr, proto: proto}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.redialLocked(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// dialConn dials addr and exchanges the version/protocol handshake,
// bounded by ctx. Every failure wraps sderr.ErrUnavailable.
func dialConn(ctx context.Context, addr string, proto byte) (*conn, error) {
	network, address := splitAddr(addr)
	var d net.Dialer
	nc, err := d.DialContext(ctx, network, address)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w: %w", addr, sderr.ErrUnavailable, err)
	}
	tuneConn(nc)
	if dl, ok := ctx.Deadline(); ok {
		nc.SetDeadline(dl)
	}
	if err = wire.WriteHandshake(nc, proto); err == nil {
		_, err = wire.ReadHandshake(nc, proto)
	}
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("rpc: handshake %s: %w: %w", addr, sderr.ErrUnavailable, err)
	}
	nc.SetDeadline(time.Time{})
	return &conn{nc: nc, pend: make(map[uint64]chan []byte)}, nil
}

// Close tears down the connection and waits for its read loop;
// outstanding calls fail, and so does every later one.
func (c *Client) Close() (err error) {
	c.mu.Lock()
	cn := c.cn
	c.cn, c.closed = nil, true
	c.mu.Unlock()
	if cn != nil {
		err = cn.nc.Close()
	}
	c.loops.Wait()
	return err
}

// register makes the call id pending on the live connection, dialing one
// first if there is none, and returns the connection's store count: the
// stores a seal covers.
func (c *Client) register(ctx context.Context, id uint64, op opcode) (*conn, chan []byte, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lost && op.seals() {
		c.lost = false
		return nil, nil, 0, fmt.Errorf("rpc: %s: %w: lost a connection with unsealed stores", c.addr, sderr.ErrUnavailable)
	}
	for c.cn == nil {
		if c.closed {
			return nil, nil, 0, fmt.Errorf("rpc: %s: %w", c.addr, net.ErrClosed)
		}
		if err := c.redialLocked(ctx); err != nil {
			return nil, nil, 0, err
		}
	}
	if op.stores() {
		c.cn.stored++
	}
	ch := c.getChanLocked()
	c.cn.pend[id] = ch
	return c.cn, ch, c.cn.stored, nil
}

// redialLocked waits for the running dial, or runs one unless a failed
// dial's backoff has not passed yet. Caller holds c.mu, which is released
// while dialing or waiting.
func (c *Client) redialLocked(ctx context.Context) error {
	if wait := c.dialing; wait != nil {
		c.mu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
		}
		c.mu.Lock()
		return ctx.Err()
	}
	if time.Now().Before(c.retryAt) {
		return c.dialErr
	}
	done := make(chan struct{})
	c.dialing = done
	c.mu.Unlock()
	cn, err := dialConn(ctx, c.addr, c.proto)
	c.mu.Lock()
	c.dialing = nil
	close(done)
	switch {
	case err != nil && ctx.Err() == nil:
		// The peer is down: fail fast until the backoff passes.
		c.retryAt, c.dialErr = time.Now().Add(redialBackoff), err
	case err == nil && c.closed:
		cn.nc.Close()
	case err == nil:
		c.cn = cn
		c.loops.Add(1)
		go c.readLoop(cn)
	}
	return err
}

// drop retires a broken connection: it is closed, its pending calls fail,
// and the next call redials.
func (c *Client) drop(cn *conn, err error) {
	c.mu.Lock()
	if cn.err == nil {
		cn.err = fmt.Errorf("rpc: connection lost: %w: %w", sderr.ErrUnavailable, err)
	}
	if c.cn == cn {
		c.cn = nil
	}
	c.lost = c.lost || cn.stored > cn.sealed
	for id, ch := range cn.pend {
		close(ch)
		delete(cn.pend, id)
	}
	c.mu.Unlock()
	cn.nc.Close()
}

func (c *Client) readLoop(cn *conn) {
	defer c.loops.Done()
	br := bufio.NewReaderSize(cn.nc, 256<<10)
	for {
		body, err := wire.ReadFrame(br, maxFrame)
		if err == nil {
			err = c.dispatchFrame(cn, body)
		}
		if err != nil {
			c.drop(cn, err)
			return
		}
	}
}

// dispatchFrame hands a response frame, undecoded, to the call its ID
// names (which then owns the pooled buffer), and each ID of a batched-ack
// frame a nil frame. A frame nobody waits for goes back to the pool.
func (c *Client) dispatchFrame(cn *conn, body []byte) error {
	r := wire.NewReader(body)
	switch kind := r.U8(); kind {
	case frameResponse:
		id := r.U64()
		if err := r.Err(); err != nil {
			wire.PutBuf(body)
			return err
		}
		if !c.deliver(cn, id, body) {
			wire.PutBuf(body) // abandoned call
		}
		return nil
	case frameAcks:
		ids, err := decodeAcks(body)
		wire.PutBuf(body)
		for _, id := range ids {
			c.deliver(cn, id, nil)
		}
		return err
	default:
		wire.PutBuf(body)
		return fmt.Errorf("%w: unknown frame kind %d", wire.ErrMalformed, kind)
	}
}

// deliver hands a reply frame to its waiting call, reporting whether a
// call was still registered to receive it.
func (c *Client) deliver(cn *conn, id uint64, frame []byte) bool {
	c.mu.Lock()
	ch, ok := cn.pend[id]
	if ok {
		delete(cn.pend, id)
	}
	c.mu.Unlock()
	if ok {
		ch <- frame
	}
	return ok
}

// wireTimeout is ctx's remaining deadline in milliseconds (0: none), the
// request header's time budget.
func wireTimeout(ctx context.Context) int64 {
	if dl, ok := ctx.Deadline(); ok {
		return max(time.Until(dl).Milliseconds(), 1)
	}
	return 0
}

// roundTrip is the one call path, node and director alike: it sends the
// request frame — body, which starts with the four spare bytes of the
// length prefix, then payloads in place — returns body to the pool, and
// waits for the reply frame the caller then owns (nil for a batched ack).
// Cancellation abandons the wait at once.
func (c *Client) roundTrip(ctx context.Context, id uint64, op opcode, body []byte, payloads []ChunkWire) ([]byte, error) {
	cn, ch, stored, err := c.register(ctx, id, op)
	if err == nil {
		err = c.send(ctx, cn, body, payloads)
		if err != nil {
			c.abandon(cn, id, ch)
		}
	}
	wire.PutBuf(body)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("rpc: send canceled: %w", cerr)
		}
		return nil, err
	}
	// Count only requests that actually reached the wire, so Calls()
	// reflects real message traffic even on failing connections.
	c.calls.Add(1)
	select {
	case frame, ok := <-ch:
		c.mu.Lock()
		defer c.mu.Unlock()
		if !ok {
			return nil, cn.err
		}
		// The read loop sent exactly one value and the entry left pend
		// before the send, so ch is empty and unclosed: recyclable.
		c.putChanLocked(ch)
		if op.seals() && replyOK(frame) {
			cn.sealed = max(cn.sealed, stored)
		}
		return frame, nil
	case <-ctx.Done():
		c.abandon(cn, id, ch) // a late response is dropped by the read loop
		return nil, ctx.Err()
	}
}

// send writes one request frame. The write goes straight to the socket
// and can block when the peer stops reading (send buffer full); a watcher
// turns ctx cancellation into a write deadline so the write unblocks.
// Any failed write may have left part of the frame on the stream, where
// the server would read the next frame as its remainder, so it drops the
// connection: the next call redials.
func (c *Client) send(ctx context.Context, cn *conn, body []byte, payloads []ChunkWire) error {
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	if err := ctx.Err(); err != nil {
		return err // nothing written: the stream is intact
	}
	var watchStop, watchDone chan struct{}
	if ctx.Done() != nil {
		watchStop, watchDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(watchDone)
			select {
			case <-ctx.Done():
				cn.nc.SetWriteDeadline(time.Unix(1, 0))
			case <-watchStop:
			}
		}()
	}
	err := writeVectored(&cn.vec, cn.nc, body, payloads, nil)
	if watchStop != nil {
		close(watchStop)
		<-watchDone // joined: no stale deadline can land after the reset
		cn.nc.SetWriteDeadline(time.Time{})
	}
	if err != nil {
		c.drop(cn, err)
		return fmt.Errorf("rpc: send: %w: %w", sderr.ErrUnavailable, err)
	}
	return nil
}

// abandon deregisters a call that will never be waited on. Its channel is
// recycled only if the entry was still pending (nothing was or will be
// sent on it); otherwise a reply may be in flight into it, or it was
// closed with the connection, and it is dropped.
func (c *Client) abandon(cn *conn, id uint64, ch chan []byte) {
	c.mu.Lock()
	if _, ok := cn.pend[id]; ok {
		delete(cn.pend, id)
		c.putChanLocked(ch)
	}
	c.mu.Unlock()
}

// Call issues one node request and waits for its response (roundTrip).
// Payload-heavy frames (super-chunk stores) are sent vectored: the length
// prefix and metadata go into one small scratch buffer and the chunk
// payloads are handed to writev in place (wire.VecWriter).
func (c *Client) Call(ctx context.Context, req Request) (response, error) {
	req.ID, req.TimeoutMS = c.nextID.Add(1), wireTimeout(ctx)
	var payloads []ChunkWire
	size := requestSize(&req)
	if payload := payloadSize(req.Chunks); payload >= vectoredMin {
		size, payloads = size-payload, req.Chunks
	}
	body := append(wire.GetBuf(4 + size)[:0], 0, 0, 0, 0)
	if payloads != nil {
		body = appendRequestMeta(body, &req)
	} else {
		body = appendRequest(body, &req)
	}
	frame, err := c.roundTrip(ctx, req.ID, req.Op, body, payloads)
	if err != nil || frame == nil {
		return response{ID: req.ID}, err
	}
	resp, err := decodeResponse(frame)
	if err != nil {
		wire.PutBuf(frame)
		return response{}, err
	}
	if payloadSize(resp.Chunks) > 0 {
		// Restore payloads are consumed as zero-copy aliases of the receive
		// buffer, which returns to the pool only once the caller is done
		// with them (ReleaseFrame).
		resp.frame = frame
	} else {
		wire.PutBuf(frame)
	}
	if resp.Err != "" {
		return resp, fmt.Errorf("rpc: remote: %w", sderr.Decode(resp.Err))
	}
	return resp, nil
}

// Bid sends a handprint and returns the node's similarity match count and
// storage usage (Algorithm 1 step 2).
func (c *Client) Bid(ctx context.Context, hp core.Handprint) (count int, usage int64, err error) {
	resp, err := c.Call(ctx, Request{Op: opBid, Handprint: hp})
	if err != nil {
		return 0, 0, err
	}
	return resp.Count, resp.Usage, nil
}

// Query performs the batched duplicate check for a super-chunk, taking
// no reference. Kept with Store for the benchmark's traced replay (see
// opQuery); ingest stores through Dedup.
func (c *Client) Query(ctx context.Context, sc *core.SuperChunk) ([]bool, error) {
	resp, err := c.Call(ctx, Request{Op: opQuery, Chunks: superChunkToWire(sc, false)})
	if err != nil {
		return nil, err
	}
	return resp.Dup, nil
}

// Dedup stores a routed super-chunk on the node, fingerprints first: an
// OpDedup round trip gives every chunk the node holds its reference and
// reports the rest, then one opDedupMissing round trip carries the
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
	resp, err = c.Call(ctx, Request{Op: opDedupMissing, Stream: stream, Handprint: hp, Chunks: missing})
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
	op := opStoreRefs
	if withData {
		op = opStore
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
	resp, err := c.Call(ctx, Request{Op: opReadBatch, Chunks: fpsToWire(fps)})
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
	_, err := c.Call(ctx, Request{Op: opFlush})
	return err
}

// DecRef releases backup references on the server's chunks: fps[i] loses
// ns[i] references (one batch per node of a deleted backup's recipe).
func (c *Client) DecRef(ctx context.Context, fps []fingerprint.Fingerprint, ns []int64) error {
	_, err := c.Call(ctx, Request{Op: opDecRef, Chunks: fpsToWire(fps), Counts: ns})
	return err
}

// MigrateRead fetches a batch of chunk payloads by fingerprint — the
// source side of a super-chunk migration. The response carries one
// payload per requested fingerprint, in order.
func (c *Client) MigrateRead(ctx context.Context, fps []fingerprint.Fingerprint) ([][]byte, error) {
	resp, err := c.Call(ctx, Request{Op: opMigrateRead, Chunks: fpsToWire(fps)})
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
	_, err := c.Call(ctx, Request{Op: opMigrateCommit, Stream: stream})
	return err
}

// RefCounts fetches the node's current reference count for each chunk
// fingerprint (migration recovery's reconciliation probe).
func (c *Client) RefCounts(ctx context.Context, fps []fingerprint.Fingerprint) ([]int64, error) {
	resp, err := c.Call(ctx, Request{Op: opRefCounts, Chunks: fpsToWire(fps)})
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
	resp, err := c.Call(ctx, Request{Op: opCompact, Threshold: threshold})
	if err != nil {
		return store.CompactResult{}, err
	}
	return resp.Compacted, nil
}

// GCStats fetches the server's deletion/compaction counters and storage
// usage.
func (c *Client) GCStats(ctx context.Context) (store.GCStats, int64, error) {
	resp, err := c.Call(ctx, Request{Op: opGCStats})
	if err != nil {
		return store.GCStats{}, 0, err
	}
	return resp.GC, resp.Usage, nil
}

// Stats fetches node statistics and storage usage.
func (c *Client) Stats(ctx context.Context) (node.Stats, int64, error) {
	resp, err := c.Call(ctx, Request{Op: opStats})
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

// fpsToWire is a fingerprint-only chunk list.
func fpsToWire(fps []fingerprint.Fingerprint) []ChunkWire {
	chunks := make([]ChunkWire, len(fps))
	for i, fp := range fps {
		chunks[i] = ChunkWire{FP: fp}
	}
	return chunks
}
