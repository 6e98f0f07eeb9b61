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
	"sigmadedupe/internal/sderr"
	"sigmadedupe/internal/wire"
)

// Client is a pipelined, self-healing connection to one server: a
// deduplication node (DialContext) or the director (DialDirector). Multiple
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
func (c *Client) register(ctx context.Context, id uint64, cl class) (*conn, chan []byte, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lost && cl&seals != 0 {
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
	if cl&stores != 0 {
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
func (c *Client) roundTrip(ctx context.Context, id uint64, cl class, body []byte, payloads []core.ChunkRef) ([]byte, error) {
	cn, ch, stored, err := c.register(ctx, id, cl)
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
		if cl&seals != 0 && replyOK(frame) {
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
func (c *Client) send(ctx context.Context, cn *conn, body []byte, payloads []core.ChunkRef) error {
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
	err := writeVectored(&cn.vec, cn.nc, body, payloads)
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
