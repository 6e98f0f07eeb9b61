package rpc

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/node"
	"sigmadedupe/internal/sderr"
	"sigmadedupe/internal/wire"
)

// tuneConn sizes the kernel socket buffers for bulk frames: a whole
// super-chunk store frame (default 1MB of payload) should fit in the
// send buffer, so one frame costs one write syscall instead of several
// partial writes interleaved with readiness waits.
func tuneConn(conn net.Conn) {
	type bufferedConn interface {
		SetReadBuffer(int) error
		SetWriteBuffer(int) error
	}
	if bc, ok := conn.(bufferedConn); ok {
		bc.SetReadBuffer(2 << 20)
		bc.SetWriteBuffer(2 << 20)
	}
}

// splitAddr maps an rpc address to a net network/address pair. Addresses
// are TCP ("host:port") unless prefixed with "unix:", which selects a
// Unix domain socket — the cheaper transport for co-located node
// deployments, where loopback TCP's protocol processing is pure
// overhead on the bulk store path.
func splitAddr(addr string) (network, address string) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		return "unix", path
	}
	return "tcp", addr
}

// Server exposes one deduplication node (NewServer) or the director
// (NewDirectorServer) over TCP or a Unix socket. Each accepted connection
// gets a reader goroutine; requests on a connection are served
// concurrently and responses are serialized by a per-connection writer
// lock, so a pipelined client sees maximal parallelism.
//
// Every connection owns a context that is canceled the moment the
// connection is severed (peer gone, or server closing), and every call
// runs under a child of it bounded by the client's wire deadline
// (Request.TimeoutMS). Handlers observe that context, so the server
// stops working for calls nobody is waiting on.
type Server struct {
	node       *node.Node
	dir        *director.Director
	ln         net.Listener
	delay      time.Duration
	severAfter int
	base       context.Context
	baseCancel context.CancelFunc

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithHandlerDelay makes every request handler sleep d before dispatch,
// emulating remote-node service latency (disk seeks, WAN round trips) on
// loopback deployments. Handlers run concurrently, so the delay models
// per-request latency, not reduced node throughput — exactly the regime
// where request pipelining pays. Intended for benchmarks; zero disables.
func WithHandlerDelay(d time.Duration) ServerOption {
	return func(s *Server) { s.delay = d }
}

// WithSeverAfter makes the server die right after a connection's n-th
// response: that connection, every other one and the listener close at
// once, emulating a server death mid-window. Every call still in flight
// loses its response and must surface a connection error at the client
// promptly rather than hang, no call is handled once that response is on
// its way, and a redial is refused. Fault-injection hook for tests; zero
// disables.
func WithSeverAfter(n int) ServerOption {
	return func(s *Server) { s.severAfter = n }
}

// NewServer wraps a deduplication node and listens on addr
// (e.g. "127.0.0.1:0"). The returned server is already accepting.
func NewServer(n *node.Node, addr string, opts ...ServerOption) (*Server, error) {
	return listen(&Server{node: n}, addr, opts)
}

// NewDirectorServer serves the director's metadata verbs on addr, on the
// same call layer as the nodes' (DialDirector is its client).
func NewDirectorServer(d *director.Director, addr string, opts ...ServerOption) (*Server, error) {
	return listen(&Server{dir: d}, addr, opts)
}

func listen(s *Server, addr string, opts []ServerOption) (*Server, error) {
	network, address := splitAddr(addr)
	ln, err := net.Listen(network, address)
	if err != nil {
		return nil, fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	s.ln, s.conns = ln, make(map[net.Conn]struct{})
	s.base, s.baseCancel = context.WithCancel(context.Background())
	for _, o := range opts {
		o(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's bound address, in the form Dial accepts
// ("host:port", or "unix:/path" for a Unix domain socket listener).
func (s *Server) Addr() string {
	a := s.ln.Addr()
	if a.Network() == "unix" {
		return "unix:" + a.String()
	}
	return a.String()
}

// Node returns the wrapped deduplication node (for stats inspection; nil
// on a director server).
func (s *Server) Node() *node.Node { return s.node }

// Close stops accepting, closes all connections (canceling every
// in-flight call's context), and waits for handler goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	closed := s.closed
	s.closed = true
	s.mu.Unlock()
	if !closed {
		s.die()
		s.baseCancel()
		s.wg.Wait()
	}
	return nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		tuneConn(conn)
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	// connCtx dies with the connection: once the read loop exits (peer
	// severed, decode error, server shutdown), every handler still
	// running for this connection is canceled — the server aborts work
	// whose caller can no longer receive the answer.
	connCtx, connCancel := context.WithCancel(s.base)
	defer connCancel()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	// 64KB read buffer: small frames (queries, acks) coalesce, while the
	// payload body of a big store frame exceeds the buffer and bufio
	// passes the read straight through into the frame buffer — one copy
	// of the bulk path instead of two.
	br := bufio.NewReaderSize(conn, 64<<10)
	proto := wire.ProtoNode
	if s.dir != nil {
		proto = wire.ProtoDirector
	}
	if _, err := wire.ReadHandshake(br, proto); err != nil {
		return
	}
	if err := wire.WriteHandshake(conn, proto); err != nil {
		return
	}
	// Batched acks coalesce empty-success responses for the in-flight
	// window into one frame, but the severAfter fault hook counts exact
	// responses — with it armed, every call is answered individually so
	// "die after the n-th response" stays precise.
	w := &respWriter{
		bw:         bufio.NewWriterSize(conn, 256<<10),
		conn:       conn,
		severAfter: s.severAfter,
		die:        s.die,
	}
	// A fixed worker pool handles requests instead of one goroutine per
	// request: the per-request spawn (goroutine + closure) was a top
	// allocator on the ingest path. Pool depth comfortably exceeds any
	// client's in-flight window, so request overlap is preserved; a full
	// queue simply backpressures the read loop, which the window already
	// bounds.
	work := make(chan []byte, 2*connWorkers)
	var handlers sync.WaitGroup
	handlers.Add(connWorkers)
	defer handlers.Wait()
	defer close(work)
	for i := 0; i < connWorkers; i++ {
		go func() {
			defer handlers.Done()
			for frame := range work {
				s.handleRequest(connCtx, w, frame)
			}
		}()
	}
	for {
		body, err := wire.ReadFrame(br, maxFrame)
		if err != nil {
			// Clean close, peer death, or a handler that closed the
			// connection on a frame it could not decode.
			return
		}
		work <- body
	}
}

// connWorkers is the per-connection handler concurrency.
const connWorkers = 8

// handleRequest decodes and answers one request frame; a peer that sends
// one that does not decode loses the connection.
func (s *Server) handleRequest(connCtx context.Context, w *respWriter, frame []byte) {
	// The request's chunk payloads alias the frame; it goes back
	// to the pool only after the handler is fully done with it.
	defer wire.PutBuf(frame)
	if w.severAfter > 0 && w.severing.Load() {
		return // the emulated death came first: nothing after it is handled
	}
	if s.dir != nil {
		s.handleDirector(connCtx, w, frame)
		return
	}
	req, err := decodeRequest(frame)
	if err != nil {
		w.conn.Close()
		return
	}
	ctx, cancel := s.callContext(connCtx, req.TimeoutMS)
	defer cancel()
	resp := s.handle(ctx, req)
	if connCtx.Err() != nil {
		// The connection is gone; nobody can read this response.
		return
	}
	if w.severAfter == 0 && resp.Err == "" && ackEligible(req.Op) {
		w.sendAck(resp.ID)
	} else {
		w.sendResponse(&resp)
	}
}

// callContext is a handler's context: the connection's, bounded by the
// request's wire deadline, after the WithHandlerDelay latency.
func (s *Server) callContext(connCtx context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	ctx, cancel := connCtx, context.CancelFunc(func() {})
	if timeoutMS > 0 {
		ctx, cancel = context.WithTimeout(connCtx, time.Duration(timeoutMS)*time.Millisecond)
	}
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
		}
	}
	return ctx, cancel
}

// respWriter serializes response frames on one connection and coalesces
// eligible acknowledgements: a handler appends its ID under a small lock,
// and whichever handler wins the write lock drains everything that
// accumulated into a single ack frame — one frame and one flush for a
// whole in-flight window under load.
type respWriter struct {
	mu      sync.Mutex // serializes frame writes and flushes
	bw      *bufio.Writer
	conn    net.Conn
	scratch []byte
	vec     wire.VecWriter

	amu  sync.Mutex // guards the pending ack batch
	acks []uint64

	severAfter int
	die        func()
	responses  int // answered calls, counted under mu
	// severing is set before the severAfter-th response goes out, so a
	// request the peer sends once it has that response is never handled —
	// not even in the moment between the write and the close.
	severing atomic.Bool
}

func (w *respWriter) sendAck(id uint64) {
	w.amu.Lock()
	w.acks = append(w.acks, id)
	w.amu.Unlock()
	w.mu.Lock()
	w.drainAcksLocked()
	w.mu.Unlock()
}

// drainAcksLocked writes and flushes whatever acks have accumulated; a
// concurrent sendAck whose ID was already drained finds the batch empty
// and writes nothing.
func (w *respWriter) drainAcksLocked() {
	w.amu.Lock()
	ids := w.acks
	w.acks = w.acks[len(w.acks):]
	w.amu.Unlock()
	if len(ids) == 0 {
		return
	}
	w.scratch = appendAcks(w.scratch[:0], ids)
	w.sentLocked(len(ids), w.writeBufferedLocked(w.scratch))
}

// sendResponse writes one reply frame. A payload-heavy reply (ReadBatch,
// MigrateRead) goes out vectored: its payloads are the slices
// container.Manager.ReadChunks handed out — manager-owned memory that is
// never modified once readable, and kept alive by these references even
// when a compaction retires its container — so writev reads them in place.
func (w *respWriter) sendResponse(resp *Response) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.beginLocked()
	if payloadSize(resp.Chunks) < vectoredMin {
		w.scratch = appendResponse(w.scratch[:0], resp)
		w.sentLocked(1, w.writeBufferedLocked(w.scratch))
		return
	}
	// w.bw is flushed after every frame: nothing can be reordered.
	w.scratch = appendResponseHead(append(w.scratch[:0], 0, 0, 0, 0), resp)
	head := len(w.scratch)
	w.scratch = appendResponseTail(w.scratch, resp)
	w.sentLocked(1, writeVectored(&w.vec, w.conn, w.scratch[:head], resp.Chunks, w.scratch[head:]))
}

// sendFrame writes one encoded reply frame (the director's).
func (w *respWriter) sendFrame(body []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.beginLocked()
	w.sentLocked(1, w.writeBufferedLocked(body))
}

// beginLocked precedes a reply: acks already due go first, and the
// severAfter-th reply marks the connection as dying.
func (w *respWriter) beginLocked() {
	w.drainAcksLocked()
	if w.severAfter > 0 && w.responses+1 >= w.severAfter {
		w.severing.Store(true)
	}
}

// writeBufferedLocked sends body as one frame through w.bw.
func (w *respWriter) writeBufferedLocked(body []byte) error {
	if err := wire.WriteFrame(w.bw, body); err != nil {
		return err
	}
	return w.bw.Flush()
}

// sentLocked accounts for n answered calls. A failed write severs the
// connection: the frame may be half on the wire, where the next handler's
// frame would be read as its remainder, and closing ends the read loop,
// which cancels the running handlers and fails the client's pending calls.
// Otherwise it fires the severAfter fault hook: die mid-conversation right
// after the n-th response, stranding every other in-flight call.
func (w *respWriter) sentLocked(n int, err error) {
	if err != nil {
		w.conn.Close()
		return
	}
	if w.severAfter <= 0 {
		return
	}
	before := w.responses
	w.responses += n
	if before < w.severAfter && w.responses >= w.severAfter {
		w.die()
	}
}

// die closes the listener and every connection: Close's first step, and
// the whole of the WithSeverAfter death.
func (s *Server) die() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
}

// handle dispatches one request against the node under ctx: a call whose
// context is already dead (severed connection, expired wire deadline) is
// answered with the context error instead of doing the work.
func (s *Server) handle(ctx context.Context, req Request) Response {
	resp := Response{ID: req.ID}
	if err := ctx.Err(); err != nil {
		resp.Err = sderr.Encode(err)
		return resp
	}
	switch req.Op {
	case OpBid:
		resp.Count = s.node.CountHandprintMatches(core.Handprint(req.Handprint))
		resp.Usage = s.node.StorageUsage()

	// OpQuery and OpStore serve the benchmark's traced replay
	// (Client.Query, Client.Store) until ROADMAP item 7(c) deletes it; a
	// store is the eager one-pass dedup with the node's own handprint.
	case OpQuery:
		sc := wireToSuperChunk(req.Chunks)
		resp.Dup = s.node.QuerySuperChunk(sc)

	case OpStore, OpStoreRefs:
		sc := wireToSuperChunk(req.Chunks)
		if _, err := s.node.Dedup(req.Stream, sc, nil, true); err != nil {
			resp.Err = sderr.Encode(err)
		}

	case OpDedup, OpDedupMissing:
		sc := wireToSuperChunk(req.Chunks)
		hp := core.Handprint(req.Handprint) // nil when empty: the node computes its own
		var fresh []bool
		var err error
		if req.Op == OpDedup {
			fresh, err = s.node.Dedup(req.Stream, sc, hp, false)
		} else {
			fresh, err = s.node.StoreMissing(req.Stream, sc, hp)
		}
		if err != nil {
			resp.Err = sderr.Encode(err)
		}
		if req.Op == OpDedup || err != nil {
			resp.Dup = make([]bool, len(fresh))
			for i, f := range fresh {
				resp.Dup[i] = !f
			}
		}

	case OpMigrateRead:
		for _, ch := range req.Chunks {
			data, err := s.node.ReadChunk(ch.FP)
			if err != nil {
				resp.Err = sderr.Encode(err)
				break
			}
			resp.Chunks = append(resp.Chunks, ChunkWire{FP: ch.FP, Size: int32(len(data)), Data: data})
		}

	case OpReadBatch:
		// Batched restore: one container-aware sweep instead of a read per
		// fingerprint. Payloads come back in the node's container read
		// order; Idx tags each with its request position. The payloads
		// alias node-owned memory and are sent uncopied (sendResponse).
		fps := wireFPs(req.Chunks)
		datas, idxs, err := s.node.ReadChunkBatch(fps)
		if err != nil {
			resp.Err = sderr.Encode(err)
			break
		}
		resp.Chunks = make([]ChunkWire, len(datas))
		resp.Idx = make([]uint32, len(datas))
		for i, data := range datas {
			resp.Chunks[i] = ChunkWire{FP: fps[idxs[i]], Size: int32(len(data)), Data: data}
			resp.Idx[i] = uint32(idxs[i])
		}

	case OpFlush:
		if err := s.node.Flush(); err != nil {
			resp.Err = sderr.Encode(err)
		}

	case OpMigrateCommit:
		if err := s.node.SealStream(req.Stream); err != nil {
			resp.Err = sderr.Encode(err)
		}

	case OpRefCounts:
		resp.Counts = s.node.RefCounts(wireFPs(req.Chunks))

	case OpStats:
		resp.Stats = s.node.Stats()
		resp.Usage = s.node.StorageUsage()

	case OpDecRef:
		if err := s.node.DecRef(wireFPs(req.Chunks), req.Counts); err != nil {
			resp.Err = sderr.Encode(err)
		}

	case OpCompact:
		res, err := s.node.Compact(ctx, req.Threshold)
		if err != nil {
			resp.Err = sderr.Encode(err)
		}
		resp.Compacted = res

	case OpGCStats:
		resp.GC = s.node.GCStats()
		resp.Usage = s.node.StorageUsage()

	default:
		resp.Err = fmt.Sprintf("unknown op %d", int(req.Op))
	}
	if resp.Err != "" {
		// An errored reply ships no payloads: the caller discards them.
		resp.Chunks, resp.Idx = nil, nil
	}
	return resp
}

func wireToSuperChunk(chunks []ChunkWire) *core.SuperChunk {
	sc := &core.SuperChunk{Chunks: make([]core.ChunkRef, len(chunks))}
	for i, ch := range chunks {
		sc.Chunks[i] = core.ChunkRef{FP: ch.FP, Size: int(ch.Size), Data: ch.Data}
	}
	return sc
}

// wireFPs is the fingerprints of a chunk list.
func wireFPs(chunks []ChunkWire) []fingerprint.Fingerprint {
	fps := make([]fingerprint.Fingerprint, len(chunks))
	for i, ch := range chunks {
		fps[i] = ch.FP
	}
	return fps
}
