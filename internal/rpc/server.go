package rpc

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sigmadedupe/internal/director"
	"sigmadedupe/internal/sderr"
	"sigmadedupe/internal/store"
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
// (the request header's timeoutMS). Handlers observe that context, so
// the server stops working for calls nobody is waiting on.
type Server struct {
	target     any  // *store.Engine or *director.Director: what the verbs run on
	proto      byte // the handshake's protocol
	ln         net.Listener
	delay      time.Duration
	severAfter int
	base       context.Context
	baseCancel context.CancelFunc
	// labels are the runtime/pprof labels each verb's handler runs
	// under, built once per server (opLabels).
	labels map[opcode]context.Context

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
func NewServer(n *store.Engine, addr string, opts ...ServerOption) (*Server, error) {
	return listen(&Server{target: n, proto: wire.ProtoNode}, addr, opts)
}

// NewDirectorServer serves the director's metadata verbs on addr, on the
// same call layer as the nodes' (DialDirector is its client).
func NewDirectorServer(d *director.Director, addr string, opts ...ServerOption) (*Server, error) {
	return listen(&Server{target: d, proto: wire.ProtoDirector}, addr, opts)
}

func listen(s *Server, addr string, opts []ServerOption) (*Server, error) {
	network, address := splitAddr(addr)
	ln, err := net.Listen(network, address)
	if err != nil {
		return nil, fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	return serve(s, ln, opts), nil
}

// serve starts s accepting on ln.
func serve(s *Server, ln net.Listener, opts []ServerOption) *Server {
	s.ln, s.conns = ln, make(map[net.Conn]struct{})
	s.base, s.baseCancel = context.WithCancel(context.Background())
	s.labels = make(map[opcode]context.Context, len(verbs))
	for op := range verbs {
		s.labels[op] = opLabels(s.base, op)
	}
	for _, o := range opts {
		o(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
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
func (s *Server) Node() *store.Engine {
	n, _ := s.target.(*store.Engine)
	return n
}

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
	if _, err := wire.ReadHandshake(br, s.proto); err != nil {
		return
	}
	if err := wire.WriteHandshake(conn, s.proto); err != nil {
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

// handleRequest answers one request frame, node or director: the verb
// its op names decodes the argument and runs under the call's context. A
// frame whose header does not decode loses the peer its connection; an
// unknown op or an argument that does not decode is answered malformed.
func (s *Server) handleRequest(connCtx context.Context, w *respWriter, frame []byte) {
	// The argument's chunk payloads alias the frame; it goes back to the
	// pool only after the handler is fully done with it.
	defer wire.PutBuf(frame)
	if w.severAfter > 0 && w.severing.Load() {
		return // the emulated death came first: nothing after it is handled
	}
	r := wire.NewReader(frame)
	id, op, timeoutMS, err := decodeRequestHeader(r)
	if err != nil {
		w.conn.Close()
		return
	}
	if labels, ok := s.labels[op]; ok {
		pprof.SetGoroutineLabels(labels)
	}
	e, known := verbs[op]
	ctx, cancel := s.callContext(connCtx, timeoutMS)
	defer cancel()
	var result func(*coder)
	switch {
	case ctx.Err() != nil:
		err = ctx.Err()
	case !known:
		err = unknownOp(op)
	default:
		result, err = e.serve(ctx, s.target, r)
	}
	if connCtx.Err() != nil {
		return // the connection is gone; nobody can read the reply
	}
	if err == nil && e.class&acked != 0 && w.severAfter == 0 {
		w.sendAck(id)
	} else {
		w.sendReply(id, err, result)
	}
}

// opStages are the phase and stage of the verbs the ingest and restore
// paths call, as the client's stages are labelled (internal/ingest,
// internal/migrate's Restore), and the phase of those the reclaim and
// migrate fan-outs call (internal/migrate, which labels them alike).
var opStages = map[opcode][2]string{
	1:  {"ingest", "route"},  // bid
	2:  {"ingest", "dedup"},  // query
	3:  {"ingest", "dedup"},  // storeChunks
	16: {"ingest", "dedup"},  // dedup
	17: {"ingest", "dedup"},  // dedupMissing
	6:  {"ingest", "commit"}, // flush
	34: {"ingest", "commit"}, // swapRecipe
	15: {"restore", "read"},  // readBatch
	35: {"restore", "read"},  // getRecipe
	8:  {"reclaim"},          // decRef
	9:  {"reclaim"},          // compact
	36: {"reclaim"},          // deleteRecipe
	13: {"migrate"},          // migrateCommit
	14: {"migrate"},          // refCounts
	39: {"migrate"},          // beginMigration
	40: {"migrate"},          // endMigration
	41: {"migrate"},          // pendingMigrations
	43: {"migrate"},          // replaceRecipe
}

// opLabels is the labelled context a handler of op runs under: op=<op>,
// and phase and stage where opStages has them. Built once per verb and
// server, so labelling a handler worker allocates nothing.
func opLabels(base context.Context, op opcode) context.Context {
	labels := []string{"op", strconv.Itoa(int(op))}
	if ps, ok := opStages[op]; ok {
		labels = append(labels, "phase", ps[0])
		if ps[1] != "" {
			labels = append(labels, "stage", ps[1])
		}
	}
	return pprof.WithLabels(base, pprof.Labels(labels...))
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

// sendReply writes one reply frame: the result walk, when the verb ran.
// A payload-heavy result (ReadBatch) goes out vectored: its payloads are
// the slices container.Manager.ReadChunks handed out — manager-owned
// memory that is never modified once readable, and kept alive by these
// references even when a compaction retires its container — so writev
// reads them in place.
func (w *respWriter) sendReply(id uint64, err error, result func(*coder)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.beginLocked()
	x := coder{b: appendResponseHeader(append(w.scratch[:0], 0, 0, 0, 0), id, sderr.Encode(err))}
	if result != nil {
		result(&x)
	}
	body, payloads := x.frame()
	w.scratch = body
	if payloads == nil {
		w.sentLocked(1, w.writeBufferedLocked(body[4:]))
		return
	}
	// w.bw is flushed after every frame: nothing can be reordered.
	w.sentLocked(1, writeVectored(&w.vec, w.conn, body, payloads))
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
