// Package client implements the Σ-Dedupe backup client (paper §3.1): data
// partitioning (chunking + super-chunk grouping), chunk fingerprinting,
// similarity-aware data routing, source-side duplicate elimination via
// batched fingerprint queries, and transfer of unique chunks only.
//
// The client speaks the internal/rpc protocol to a cluster of
// deduplication servers and records file recipes with the director.
//
// As in the paper, every backup stream owns a concurrent pipeline:
// chunks are fingerprinted by a worker pool while the stream is still
// being read, per-super-chunk routing bids fan out to all candidate
// nodes at once, and a bounded window of super-chunks is routed, queried
// and stored concurrently so fingerprinting of super-chunk n+1 overlaps
// the network transfer of n. Restore and delete are the shared verbs of
// package migrate, run over this session's connections.
//
// Every blocking operation takes a context.Context. Cancellation
// propagates through the chunking pipeline (the stage group), the
// in-flight super-chunk window (no new work is admitted) and every RPC
// in flight (abandoned at the transport, deadline carried on the wire),
// so a canceled backup stops within about one super-chunk of work.
package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"sigmadedupe/internal/chunker"
	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/migrate"
	"sigmadedupe/internal/pipeline"
	"sigmadedupe/internal/rpc"
	"sigmadedupe/internal/sderr"
	"sigmadedupe/internal/tenant"
)

// DefaultInflightSuperChunks is the default window of Store RPCs kept in
// flight per backup stream.
const DefaultInflightSuperChunks = 4

// Config parameterizes a backup client.
type Config struct {
	// Name identifies the client in backup sessions.
	Name string
	// ChunkMethod is the chunking algorithm (default chunker.Fixed, the
	// paper's choice for deduplication efficiency).
	ChunkMethod chunker.Method
	// ChunkSize is the (average) chunk size in bytes (default 4KB).
	ChunkSize int
	// SuperChunkSize is the routing granularity (default 1MB).
	SuperChunkSize int64
	// HandprintK is the handprint size (default 8).
	HandprintK int
	// Algorithm selects the fingerprint hash (default SHA-1).
	Algorithm fingerprint.Algorithm
	// Pipeline carries the ingest concurrency knobs: Pipeline.Workers
	// sizes the fingerprint worker pool (default GOMAXPROCS).
	Pipeline pipeline.Config
	// InflightSuperChunks bounds how many super-chunks may be in the
	// route/query/store stage concurrently (default
	// DefaultInflightSuperChunks).
	InflightSuperChunks int
	// Epoch is the membership epoch this client's node set belongs to
	// (default 1). A Client pins its epoch for its whole life — the
	// in-flight-session guarantee of elastic membership: node adds and
	// removals become visible to new clients, never to this one.
	Epoch uint64
	// Replicas >= 2 enables R=2 replica placement: after a session's
	// containers seal, every recipe written this session is mirrored onto
	// the rendezvous replica owners of its super-chunk runs (piggybacked
	// on the migration RPC verbs), and restores fail over to the replica
	// when the primary is unreachable. Requires a director that exposes
	// membership metadata (director.ClusterMeta). The default (0) keeps
	// the single-copy behavior.
	Replicas int
	// Tenant scopes the session: recipe keys are composed as
	// tenant.Key(Tenant, name), quota admission and accounting run
	// against this tenant, and an isolated-domain tenant gets its
	// fingerprints salted (default tenant.Default).
	Tenant string
	// Scheduler, when set, is the backend-wide weighted-fair scheduler:
	// every super-chunk acquires its size in bytes before entering the
	// route/query/store stage and releases on completion, so concurrent
	// sessions split node bandwidth by tenant weight.
	Scheduler *tenant.Scheduler
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "client"
	}
	if c.ChunkMethod == 0 {
		c.ChunkMethod = chunker.Fixed
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 4096
	}
	if c.SuperChunkSize <= 0 {
		c.SuperChunkSize = core.DefaultSuperChunkSize
	}
	if c.HandprintK <= 0 {
		c.HandprintK = core.DefaultHandprintSize
	}
	if c.Algorithm == 0 {
		c.Algorithm = fingerprint.SHA1
	}
	c.Pipeline = c.Pipeline.WithDefaults()
	if c.InflightSuperChunks <= 0 {
		c.InflightSuperChunks = DefaultInflightSuperChunks
	}
	if c.Epoch == 0 {
		c.Epoch = 1
	}
	if c.Tenant == "" {
		c.Tenant = tenant.Default
	}
	return c
}

// NodeAddr is one deduplication server of the client's epoch: its
// stable cluster ID and dial address.
type NodeAddr struct {
	ID   int
	Addr string
}

// DenseNodes maps a plain address list onto node IDs 0..n-1 — the
// fixed-cluster shorthand for deployments that never change membership.
func DenseNodes(addrs []string) []NodeAddr {
	out := make([]NodeAddr, len(addrs))
	for i, a := range addrs {
		out[i] = NodeAddr{ID: i, Addr: a}
	}
	return out
}

// Stats summarizes a backup session from the client's perspective.
type Stats struct {
	LogicalBytes     int64 // bytes presented for backup
	TransferredBytes int64 // unique chunk payload bytes sent over the wire
	DupChunks        int64
	UniqueChunks     int64
	SuperChunks      int64
	Files            int64
	// PeakBufferedBytes is the maximum payload bytes the in-flight
	// super-chunk window pinned at once — the session's peak buffered
	// memory, bounded by the window configuration, never by stream size.
	PeakBufferedBytes int64
	// ChunkBufAllocs counts chunk payload buffers newly allocated from
	// the heap; it plateaus at roughly the in-flight window's chunk count
	// — the allocation-cliff proof — while ChunkBufReuses grows with the
	// stream.
	ChunkBufAllocs int64
	ChunkBufReuses int64
}

// BandwidthSaving returns the fraction of payload bytes the source dedup
// avoided sending.
func (s Stats) BandwidthSaving() float64 {
	if s.LogicalBytes == 0 {
		return 0
	}
	return 1 - float64(s.TransferredBytes)/float64(s.LogicalBytes)
}

// pendingFile tracks a file whose chunks are not yet all routed.
type pendingFile struct {
	path    string
	entries []director.ChunkEntry
	want    int
	done    bool // stream position past EOF
}

// Client is a connected backup client. Not safe for concurrent use; run
// one Client per backup stream (the paper's design gives every stream its
// own pipeline — a Client *is* that pipeline).
type Client struct {
	cfg Config
	// conns holds one connection per node of the client's pinned epoch,
	// ordered like members.Nodes; byID resolves a node's stable cluster
	// ID (the value recipes carry) to its connection.
	conns []*rpc.Client
	byID  map[int]*rpc.Client
	// joined holds connections to nodes that joined the cluster after the
	// session pinned its epoch, dialed only to release superseded
	// references there (dialJoined). Touched only on the goroutine
	// driving the backup; the route stage never sees them.
	joined  map[int]*rpc.Client
	members core.Membership
	dir     director.Metadata
	session uint64
	part    *core.Partitioner
	pending []*pendingFile
	stats   Stats
	// err marks the session permanently failed. A dropped super-chunk
	// leaves recipe attribution unrecoverable (a later file's chunks
	// would silently fill the failed file's recipe), so after any backup
	// error the session refuses further writes instead of corrupting
	// recipes. Open a new Client to retry.
	err error
	// routes is the session-long bounded window of super-chunks in the
	// route/query/store stage. It is shared across BackupFile calls so
	// transfer of one file's tail overlaps fingerprinting of the next
	// file's head.
	routes *pipeline.Window
	// order holds, in super-chunk stream order, the 1-slot result channel
	// of every routed-but-not-yet-applied super-chunk. Results are applied
	// (stats + recipe attribution) strictly in this order, only on the
	// goroutine driving the backup, so no client state needs locking.
	order []chan routeResult

	// buffered counts payload bytes currently pinned by super-chunks in
	// the route window or the unapplied-result queue; peakBuffered is its
	// high-water mark — the counter-instrumented proof that streaming
	// backups run in O(window), not O(stream).
	buffered     atomic.Int64
	peakBuffered atomic.Int64

	// bufs recycles chunk payload buffers from apply back to the
	// chunker, keeping live allocation bounded by the window.
	bufs *bufPool

	// wrotePaths tracks recipes finalized this session and not yet
	// replicated — the work list of the Flush-time replication pass
	// (Config.Replicas >= 2).
	wrotePaths map[string]struct{}

	// Tenant state, resolved once at session admission. salt is XORed
	// into every fingerprint when the tenant's dedup domain is isolated
	// (salted), making its chunk index, similarity index and handprints
	// disjoint from every other tenant's. headroom is the live bytes the
	// tenant may still add before quota (-1 = unlimited) — the soft
	// mid-stream check fails the stream once session logical bytes
	// exceed it, long before the director's hard check at PutRecipe.
	salt     [32]byte
	salted   bool
	headroom int64
	// reportedStored tracks transferred bytes already accounted to the
	// director, so repeated Flushes report deltas.
	reportedStored int64
}

// routeResult is the outcome of the concurrent route/query/store stage
// for one super-chunk. sc is set on errors too, so buffered-byte
// accounting always settles.
type routeResult struct {
	sc     *core.SuperChunk
	target int
	dup    []bool
	err    error
}

// New connects to the given deduplication servers and opens a backup
// session with the director (in-process or remote). The node set — IDs
// and addresses — is the membership epoch the client pins for its whole
// life. ctx bounds the dials.
func New(ctx context.Context, cfg Config, dir director.Metadata, nodes []NodeAddr) (*Client, error) {
	cfg = cfg.withDefaults()
	if len(nodes) == 0 {
		return nil, fmt.Errorf("client: need at least one node address")
	}
	ids := make([]int, len(nodes))
	byID := make(map[int]*rpc.Client, len(nodes))
	conns := make([]*rpc.Client, len(nodes))
	for i, nd := range nodes {
		c, err := rpc.DialContext(ctx, nd.Addr)
		if err != nil {
			for _, prev := range conns[:i] {
				if prev != nil {
					prev.Close()
				}
			}
			return nil, fmt.Errorf("client: node %d: %w", nd.ID, err)
		}
		conns[i] = c
		ids[i] = nd.ID
		byID[nd.ID] = c
	}
	part, err := core.NewPartitioner(cfg.SuperChunkSize, cfg.Algorithm, true)
	if err != nil {
		return nil, err
	}
	closeAll := func() {
		for _, conn := range conns {
			conn.Close()
		}
	}
	// Session admission: the director's hard quota check runs here, and
	// the tenant's domain and headroom come back for the client's salt
	// and soft mid-stream check.
	session, err := dir.BeginSession(ctx, cfg.Name, cfg.Tenant)
	if err != nil {
		closeAll()
		return nil, fmt.Errorf("client: begin session: %w", err)
	}
	st, err := dir.TenantStatus(ctx, cfg.Tenant)
	if err != nil {
		closeAll()
		return nil, fmt.Errorf("client: tenant %s: %w", cfg.Tenant, err)
	}
	headroom := int64(-1)
	if st.Info.QuotaBytes > 0 {
		headroom = st.Info.QuotaBytes - st.Usage.LiveBytes
		if headroom < 0 {
			headroom = 0
		}
	}
	c := &Client{
		cfg:        cfg,
		conns:      conns,
		byID:       byID,
		members:    core.NewMembership(cfg.Epoch, ids),
		dir:        dir,
		session:    session,
		part:       part,
		routes:     pipeline.NewWindow(cfg.InflightSuperChunks),
		bufs:       &bufPool{bufCap: chunker.MaxChunkSize(cfg.ChunkMethod, cfg.ChunkSize)},
		wrotePaths: make(map[string]struct{}),
		headroom:   headroom,
	}
	if st.Info.Domain == tenant.DomainIsolated {
		c.salt = tenant.Salt(cfg.Tenant)
		c.salted = true
	}
	return c, nil
}

// saltFP folds the tenant's domain salt into a fingerprint (no-op for
// shared-domain tenants). Applied once, right after hashing, so every
// downstream consumer — similarity index, chunk index, handprints,
// recipes, restores — sees only the salted value.
func (c *Client) saltFP(fp fingerprint.Fingerprint) fingerprint.Fingerprint {
	if c.salted {
		for i := 0; i < len(fp); i++ {
			fp[i] ^= c.salt[i%len(c.salt)]
		}
	}
	return fp
}

// key composes the tenant-scoped recipe key of a backup name.
func (c *Client) key(path string) string { return tenant.Key(c.cfg.Tenant, path) }

// node resolves a node's stable cluster ID to its transport within the
// session's pinned epoch (the migrate.Engine.Nodes shape).
func (c *Client) node(id int) (migrate.Node, bool) {
	conn, ok := c.byID[id]
	return conn, ok
}

// connByID resolves a node's stable cluster ID to its connection.
func (c *Client) connByID(id int) (*rpc.Client, error) {
	conn := c.byID[id]
	if conn == nil {
		return nil, fmt.Errorf("client: node %d is not in this session's epoch %d", id, c.members.Epoch)
	}
	return conn, nil
}

// Session returns the director session ID of this backup run.
func (c *Client) Session() uint64 { return c.session }

// Config returns the client's effective configuration (defaults filled).
func (c *Client) Config() Config { return c.cfg }

// addBuffered accounts payload bytes entering the in-flight window.
func (c *Client) addBuffered(n int64) {
	cur := c.buffered.Add(n)
	for {
		p := c.peakBuffered.Load()
		if cur <= p || c.peakBuffered.CompareAndSwap(p, cur) {
			return
		}
	}
}

// BackupFile chunks, fingerprints, routes and dedup-transfers one file
// through the concurrent ingest pipeline: a producer goroutine reads and
// chunks the stream, a worker pool fingerprints chunks in parallel, the
// calling goroutine partitions the ordered fingerprint stream into
// super-chunks, and up to InflightSuperChunks super-chunks at a time go
// through the route/query/store stage concurrently.
//
// BackupFile may return while the file's tail super-chunks are still in
// flight; Flush (or any later call) surfaces their errors.
//
// Canceling ctx cancels the chunking pipeline, stops admitting new
// super-chunks to the window and aborts the window's in-flight RPCs; the
// call returns within about one super-chunk of work, and the session is
// failed (a partially transferred stream cannot be resumed).
//
// Errors are sticky: after any backup error the session is failed and
// every further BackupFile/Flush returns the first error. (Recipe
// attribution is positional, so continuing past a dropped super-chunk
// would corrupt later recipes.)
func (c *Client) BackupFile(ctx context.Context, path string, r io.Reader) error {
	if c.err != nil {
		return c.err
	}
	if err := tenant.ValidateBackupName(path); err != nil {
		return &sderr.BackupError{Name: path, Stage: "chunk", Err: err}
	}
	ck, err := chunker.New(c.cfg.ChunkMethod, r, c.cfg.ChunkSize,
		chunker.WithAllocator(c.bufs.alloc))
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	pf := &pendingFile{path: c.key(path)}
	c.pending = append(c.pending, pf)
	c.stats.Files++

	chunkErr := func(err error) error {
		return &sderr.BackupError{Name: path, Stage: "chunk", Err: err}
	}

	// consume feeds one fingerprinted chunk to the partitioner, on the
	// calling goroutine: super-chunk boundaries and recipe attribution
	// depend on stream order. Routing itself is handed to the bounded
	// in-flight window. The soft quota check lives here: once the
	// session's logical bytes exceed the headroom captured at admission,
	// the stream fails with the typed quota error instead of shipping
	// bytes the director would refuse to commit.
	consume := func(ref core.ChunkRef) error {
		pf.want++
		c.stats.LogicalBytes += int64(ref.Size)
		if c.headroom >= 0 && c.stats.LogicalBytes > c.headroom {
			return &sderr.BackupError{Name: path, Stage: "quota", Err: fmt.Errorf(
				"tenant %s: session bytes %d exceed quota headroom %d: %w",
				c.cfg.Tenant, c.stats.LogicalBytes, c.headroom, sderr.ErrQuotaExceeded)}
		}
		if sc := c.part.AddRef(ref); sc != nil {
			return c.enqueueSuperChunk(ctx, sc)
		}
		return nil
	}
	fpRef := func(ch chunker.Chunk) core.ChunkRef {
		return core.ChunkRef{FP: c.saltFP(c.cfg.Algorithm.Sum(ch.Data)), Size: ch.Len(), Data: ch.Data}
	}

	// On a single-P runtime the fingerprint stage cannot overlap with
	// chunking, so the pipeline's per-chunk channel hops are pure
	// overhead: chunk and fingerprint inline. Routing concurrency is
	// unaffected — consume hands completed super-chunks to the same
	// in-flight window. Selected from what the runtime reports, not from
	// an option, and kept on evidence: ten alternating pairs of
	// GOMAXPROCS=1 bench/run.sh -workload incremental-ram, with vs
	// without this loop, ingest_cpu_s_per_gb median 2.47 vs 3.09 (IQRs
	// 0.25 / 0.28), ingest_mb_s 401 vs 319, 10/10 pairs (CHANGES.md,
	// PR 20).
	if runtime.GOMAXPROCS(0) == 1 {
		for {
			if err := ctx.Err(); err != nil {
				return c.fail(chunkErr(err))
			}
			chunk, err := ck.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return c.fail(chunkErr(err))
			}
			if err := consume(fpRef(chunk)); err != nil {
				return c.fail(err)
			}
		}
		pf.done = true
		return c.fail(c.finalizeRecipes(ctx))
	}

	// Peek ahead so empty and single-chunk files — the bulk of a typical
	// backup tree — skip pipeline setup entirely.
	first, errFirst := ck.Next()
	switch {
	case errFirst == io.EOF:
		// Empty file: nothing to route; an empty recipe is registered.
	case errFirst != nil:
		return c.fail(chunkErr(errFirst))
	default:
		second, errSecond := ck.Next()
		if errSecond == io.EOF {
			if err := consume(fpRef(first)); err != nil {
				return c.fail(err)
			}
			break
		}
		if errSecond != nil {
			return c.fail(chunkErr(errSecond))
		}
		g := pipeline.NewGroupCtx(ctx)
		raw := pipeline.Produce(g, c.cfg.Pipeline.Depth, func(yield func(chunker.Chunk) bool) error {
			if !yield(first) || !yield(second) {
				return nil
			}
			for {
				chunk, err := ck.Next()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return chunkErr(err)
				}
				if !yield(chunk) {
					return nil
				}
			}
		})
		refs := pipeline.Map(g, raw, c.cfg.Pipeline.Workers, c.cfg.Pipeline.Depth,
			func(ch chunker.Chunk) (core.ChunkRef, error) { return fpRef(ch), nil })
		for ref := range refs {
			if err := consume(ref); err != nil {
				g.Fail(err)
				break
			}
		}
		if err := g.Wait(); err != nil {
			return c.fail(err)
		}
	}
	pf.done = true
	// Apply whatever routing has already completed, but do not wait for
	// the file's tail: its transfer overlaps the next file's pipeline, and
	// Flush settles everything.
	if err := c.applyCompleted(len(c.order)); err != nil {
		return c.fail(err)
	}
	return c.fail(c.finalizeRecipes(ctx))
}

// fail records err as the session's sticky failure (first error wins)
// and returns it.
func (c *Client) fail(err error) error {
	if err != nil && c.err == nil {
		c.err = err
	}
	return err
}

// enqueueSuperChunk hands one super-chunk to the route/query/store stage:
// up to InflightSuperChunks super-chunks are in flight at once and
// results are applied in stream order as they complete.
func (c *Client) enqueueSuperChunk(ctx context.Context, sc *core.SuperChunk) error {
	c.addBuffered(sc.Size())
	// Bound the queue of completed-but-unapplied results (each pins its
	// super-chunk payloads in memory) to twice the in-flight window.
	if err := c.applyCompleted(2*c.cfg.InflightSuperChunks - 1); err != nil {
		return err
	}
	slot := make(chan routeResult, 1)
	err := c.routes.Submit(ctx, func() error {
		res := c.routeScheduled(ctx, sc)
		slot <- res
		return res.err
	})
	if err != nil {
		// Submit refused (sticky prior error or canceled ctx): the
		// callback never runs, so the slot must not be queued — a
		// queued-but-never-filled slot would deadlock a later
		// applyCompleted. The super-chunk never entered the window.
		c.buffered.Add(-sc.Size())
		return err
	}
	c.order = append(c.order, slot)
	return nil
}

// applyCompleted applies queued route results in stream order: it blocks
// until at most max remain queued, then keeps applying whatever has
// already completed without blocking.
func (c *Client) applyCompleted(max int) error {
	for len(c.order) > max {
		res := <-c.order[0]
		c.order = c.order[1:]
		if err := c.apply(res); err != nil {
			return err
		}
	}
	for len(c.order) > 0 {
		select {
		case res := <-c.order[0]:
			c.order = c.order[1:]
			if err := c.apply(res); err != nil {
				return err
			}
		default:
			return nil
		}
	}
	return nil
}

// Flush routes the final partial super-chunk, drains in-flight
// transfers, completes recipes, seals remote containers and ends the
// session.
func (c *Client) Flush(ctx context.Context) error {
	if c.err != nil {
		return c.err
	}
	if sc := c.part.Flush(); sc != nil {
		if err := c.enqueueSuperChunk(ctx, sc); err != nil {
			return c.fail(err)
		}
	}
	if err := c.applyCompleted(0); err != nil {
		return c.fail(err)
	}
	if err := c.routes.Wait(); err != nil {
		return c.fail(err)
	}
	if err := c.finalizeRecipes(ctx); err != nil {
		return c.fail(err)
	}
	for _, conn := range c.conns {
		if err := conn.Flush(ctx); err != nil {
			return c.fail(err)
		}
	}
	// R=2: mirror this session's recipes onto their replica owners now
	// that the primaries' containers are sealed — the replica of a chunk
	// never becomes durable before the chunk itself.
	if c.cfg.Replicas >= 2 && len(c.wrotePaths) > 0 {
		if err := c.replicateSession(ctx); err != nil {
			return c.fail(err)
		}
	}
	if err := c.accountTransfer(ctx); err != nil {
		return c.fail(err)
	}
	return c.fail(c.dir.EndSession(ctx, c.session))
}

// accountTransfer reports the session's not-yet-reported post-dedup
// stored bytes to the director's tenant accounting.
func (c *Client) accountTransfer(ctx context.Context) error {
	stored := c.stats.TransferredBytes - c.reportedStored
	if stored == 0 {
		return nil
	}
	if err := c.dir.AccountTransfer(ctx, c.cfg.Tenant, stored, 0); err != nil {
		return fmt.Errorf("client: account transfer: %w", err)
	}
	c.reportedStored += stored
	return nil
}

// replicateSession runs the Flush-time replication pass: every recipe
// finalized this session is mirrored onto the rendezvous replica owners
// of its super-chunk runs, one journaled transaction per run (see
// migrate.Engine.ReplicateRecipe).
func (c *Client) replicateSession(ctx context.Context) error {
	cm, ok := c.dir.(director.ClusterMeta)
	if !ok {
		return fmt.Errorf("client: Config.Replicas >= 2 requires a director exposing membership metadata")
	}
	eng := &migrate.Engine{
		Catalog:    cm,
		Nodes:      c.node,
		HandprintK: c.cfg.HandprintK,
	}
	paths := make([]string, 0, len(c.wrotePaths))
	for p := range c.wrotePaths {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		r, err := c.dir.GetRecipe(ctx, p)
		if err != nil {
			if errors.Is(err, director.ErrNoRecipe) {
				delete(c.wrotePaths, p) // deleted since; nothing to replicate
				continue
			}
			return fmt.Errorf("client: replicate %s: %w", p, err)
		}
		if _, err := eng.ReplicateRecipe(ctx, r, c.members); err != nil {
			return fmt.Errorf("client: replicate %s: %w", p, err)
		}
		delete(c.wrotePaths, p)
	}
	return nil
}

// Close releases connections, returning the first close failure. Call
// Flush first to complete the backup. Connections close before in-flight
// routes are drained, so a wedged server cannot hang Close: closing the
// transport fails the pending calls, and the route goroutines exit
// promptly.
func (c *Client) Close() error {
	var first error
	for _, conn := range c.conns {
		if err := conn.Close(); first == nil {
			first = err
		}
	}
	for _, conn := range c.joined {
		if err := conn.Close(); first == nil {
			first = err
		}
	}
	c.routes.Wait()
	return first
}

// Stats returns the client-side counters. Counters are attributed when a
// super-chunk is routed, so after Flush they cover the whole session.
func (c *Client) Stats() Stats {
	st := c.stats
	st.PeakBufferedBytes = c.peakBuffered.Load()
	st.ChunkBufAllocs = c.bufs.allocs.Load()
	st.ChunkBufReuses = c.bufs.reuses.Load()
	return st
}

// RPCMessages returns the total RPC requests this client has issued
// across all node connections — bids, queries, stores and reads, plus
// the per-node flush/stats control calls.
func (c *Client) RPCMessages() int64 {
	var n int64
	for _, conn := range c.conns {
		n += conn.Calls()
	}
	return n
}

// routeScheduled runs one super-chunk through the weighted-fair
// scheduler (when configured) and then the route/query/store stage: the
// super-chunk's bytes are acquired against the tenant's fair share
// before any node traffic and released when the round trip completes.
func (c *Client) routeScheduled(ctx context.Context, sc *core.SuperChunk) routeResult {
	if c.cfg.Scheduler != nil {
		release, err := c.cfg.Scheduler.Acquire(ctx, c.cfg.Tenant, sc.Size())
		if err != nil {
			return routeResult{sc: sc, err: &sderr.BackupError{
				Name: c.cfg.Name, Stage: "route", Err: err}}
		}
		defer release()
	}
	return c.routeSuperChunk(ctx, sc)
}

// routeSuperChunk implements Algorithm 1 plus the source-dedup transfer
// for one super-chunk: bids fan out to every candidate node concurrently
// (the rpc transport multiplexes requests by ID), the batched duplicate
// query runs against the winner, and the unique payloads are stored
// there. Safe to run concurrently for several super-chunks: it touches
// only the connections, never client state. A query that races the
// in-flight store of a neighboring super-chunk can miss a brand-new
// duplicate — that costs bandwidth (the server re-checks on arrival),
// never correctness.
func (c *Client) routeSuperChunk(ctx context.Context, sc *core.SuperChunk) routeResult {
	hp := sc.Handprint(c.cfg.HandprintK)
	// Candidates are the rendezvous owners of the handprint within the
	// session's pinned membership epoch: only nodes live in that epoch
	// are ever bid. A degenerate (empty-handprint) super-chunk routes by
	// its stable seed so such super-chunks spread across the epoch.
	cands := c.members.Candidates(hp, sc.Seed())
	counts := make([]int, len(cands))
	usage := make([]int64, len(cands))
	errs := make([]error, len(cands))
	bid := func(i, cand int) {
		conn, err := c.connByID(cand)
		if err != nil {
			errs[i] = err
			return
		}
		counts[i], usage[i], errs[i] = conn.Bid(ctx, hp)
	}
	var wg sync.WaitGroup
	for i, cand := range cands {
		wg.Add(1)
		go func(i, cand int) {
			defer wg.Done()
			bid(i, cand)
		}(i, cand)
	}
	wg.Wait()
	routeErr := func(stage string, node int, err error) routeResult {
		return routeResult{sc: sc, err: &sderr.BackupError{
			Name:  c.cfg.Name,
			Stage: stage,
			Err:   fmt.Errorf("node %d: %w", node, err),
		}}
	}
	for i, err := range errs {
		if err != nil {
			return routeErr("route", cands[i], err)
		}
	}
	target := core.SelectTarget(cands, counts, usage).Node
	tconn, err := c.connByID(target)
	if err != nil {
		return routeErr("query", target, err)
	}

	// Batched fingerprint query: learn which chunks are duplicates so
	// their payloads never cross the network.
	dup, err := tconn.Query(ctx, sc)
	if err != nil {
		return routeErr("query", target, err)
	}
	send := &core.SuperChunk{
		FileID:    sc.FileID,
		FileMinFP: sc.FileMinFP,
		Chunks:    make([]core.ChunkRef, 0, len(sc.Chunks)),
	}
	for i, ch := range sc.Chunks {
		ref := core.ChunkRef{FP: ch.FP, Size: ch.Size}
		if i >= len(dup) || !dup[i] {
			ref.Data = ch.Data
		}
		send.Chunks = append(send.Chunks, ref)
	}
	if err := tconn.Store(ctx, c.cfg.Name, send, true); err != nil {
		return routeErr("store", target, err)
	}
	return routeResult{sc: sc, target: target, dup: dup}
}

// apply folds one route result into client state — session counters and
// recipe attribution — in super-chunk stream order, on the goroutine
// driving the backup.
func (c *Client) apply(res routeResult) error {
	if res.sc != nil {
		// The super-chunk left the window (success or failure): its
		// payloads are no longer pinned by the pipeline. The RPC layer
		// finished with them too (Store completed before the result was
		// delivered), so the buffers go back to the chunker's pool here
		// — this is the release point of the pooling ownership chain.
		c.buffered.Add(-res.sc.Size())
		for i := range res.sc.Chunks {
			if d := res.sc.Chunks[i].Data; d != nil {
				res.sc.Chunks[i].Data = nil
				c.bufs.release(d)
			}
		}
	}
	if res.err != nil {
		return res.err
	}
	for i, ch := range res.sc.Chunks {
		if i < len(res.dup) && res.dup[i] {
			c.stats.DupChunks++
		} else {
			c.stats.UniqueChunks++
			c.stats.TransferredBytes += int64(ch.Size)
		}
	}
	c.stats.SuperChunks++

	// Attribute the routed chunks to pending file recipes in order.
	for _, ch := range res.sc.Chunks {
		pf := c.nextPending()
		if pf == nil {
			break
		}
		pf.entries = append(pf.entries, director.ChunkEntry{
			FP:      ch.FP,
			Size:    int32(ch.Size),
			Node:    int32(res.target),
			Replica: -1,
		})
	}
	return nil
}

// nextPending returns the earliest pending file still awaiting chunks.
func (c *Client) nextPending() *pendingFile {
	for _, pf := range c.pending {
		if len(pf.entries) < pf.want {
			return pf
		}
	}
	return nil
}

// finalizeRecipes registers recipes for files whose chunks are all
// routed. A new recipe supersedes any previous backup of the same path:
// the director swaps it in and hands the superseded generation back in
// one step, and that generation's chunk references are then released on
// the nodes — it can no longer be restored (the director keeps only the
// latest recipe per path), so keeping its references would leak every
// superseded generation's unique chunks forever. Ordering is leak-safe:
// put-new first, decref-old second, so a failure in between strands
// references but never frees a chunk the new recipe needs (the new
// backup's stores took their own references).
func (c *Client) finalizeRecipes(ctx context.Context) error {
	remaining := c.pending[:0]
	for _, pf := range c.pending {
		if pf.done && len(pf.entries) == pf.want {
			prev, err := c.dir.SwapRecipe(ctx, c.session, pf.path, pf.entries)
			if err != nil {
				return &sderr.BackupError{Name: pf.path, Stage: "finalize", Err: err}
			}
			c.wrotePaths[pf.path] = struct{}{}
			if err := c.dialJoined(ctx, prev.Chunks); err != nil {
				return fmt.Errorf("client: supersede %s: %w", pf.path, err)
			}
			if err := migrate.Release(ctx, c.releaseNode, prev.Chunks); err != nil {
				return fmt.Errorf("client: supersede %s: %w", pf.path, err)
			}
			continue
		}
		remaining = append(remaining, pf)
	}
	c.pending = remaining
	return nil
}

// dialJoined makes sure the session holds a connection to every current
// member a superseded generation's entries name. The session dialed its
// pinned epoch; a node that joined since (AddNode, then Rebalance or
// another session placed chunks there) is looked up in the director's
// current membership and dialed for the rest of the session — release
// only, the session still routes within its epoch. What is in neither
// left the cluster, and migrate.Release skips it.
func (c *Client) dialJoined(ctx context.Context, entries []director.ChunkEntry) error {
	var current map[int]string // current members' addresses, fetched on first need
	for _, e := range entries {
		for _, id := range [2]int{int(e.Node), int(e.Replica)} {
			if id < 0 || c.byID[id] != nil || c.joined[id] != nil {
				continue
			}
			if current == nil {
				cm, ok := c.dir.(director.ClusterMeta)
				if !ok {
					return fmt.Errorf("node %d is outside this session's epoch %d and the director exposes no membership", id, c.members.Epoch)
				}
				members, err := cm.Members(ctx)
				if err != nil {
					return err
				}
				if members.Epoch == 0 {
					return fmt.Errorf("node %d is outside this session's epoch %d and the director tracks no membership", id, c.members.Epoch)
				}
				current = make(map[int]string, len(members.Nodes))
				for _, n := range members.Nodes {
					current[n.ID] = n.Addr
				}
			}
			addr, ok := current[id]
			if !ok {
				continue // left the cluster
			}
			conn, err := rpc.DialContext(ctx, addr)
			if err != nil {
				return fmt.Errorf("node %d: %w", id, err)
			}
			if c.joined == nil {
				c.joined = make(map[int]*rpc.Client)
			}
			c.joined[id] = conn
		}
	}
	return nil
}

// releaseNode resolves a release target: a node of the pinned epoch, or
// one dialJoined connected.
func (c *Client) releaseNode(id int) (migrate.Node, bool) {
	if conn, ok := c.byID[id]; ok {
		return conn, true
	}
	conn, ok := c.joined[id]
	return conn, ok
}
