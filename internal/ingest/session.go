// Package ingest is the one backup path of the Σ-Dedupe system (paper
// §3.1), written once for the simulator and the TCP prototype: tenant
// admission, chunking into pooled buffers, fingerprinting, super-chunk
// partitioning, similarity routing (Algorithm 1, through router.Router
// over a router.View), one dedup pass at the winner — fingerprints first,
// then the payloads of the chunks it lacks only — and at R=2 a second one
// at the replica, concurrently, then recipe attribution of both copies and
// the recipe swap. A deployment supplies the node transport
// (migrate.Node: *rpc.Client over the wire, migrate.Local in process),
// the director, its router and one seam — how a membership epoch is
// pinned (Config.Pin) — plus its replica count and whether the nodes
// keep payloads. A stream that arrives fingerprinted — the paper's trace
// replays — enters through BackupRefs, past chunking and hashing.
//
// A session is one stream of chunks, and a backup item is a run of it
// that ends at the item's mark. The session's reader worker chunks the
// running Backup's input into the open hash batch. A batch closes once it
// holds hashBatchBytes and hashBatchChunks, whichever items its chunks
// belong to, when an item ends in it before its first chunk, or in Flush
// and Close, and a hash worker fingerprints it in one SumBatch call; a
// BackupRefs file enters as a batch hashed already. The calling goroutine
// consumes the batches in stream order: the partitioner cuts
// super-chunks, and an item's partial one at its mark, and Inflight route
// workers — the window — route and store them concurrently. Chunking of
// batch n+1 overlaps hashing of batch n and the transfer of earlier
// super-chunks, and peak buffered payload is bounded by the window plus
// the hash stage, never by stream size. Results are applied in stream
// order on the calling goroutine, so only the counters need a lock. A
// worker starts when work arrives and exits once idle for idleWorker: a
// session nobody calls leaves no goroutine behind.
//
// One context rule: every wait of a method, window admission included,
// runs under the ctx it was called with, and a route runs under its
// item's, which follows the Backup call's ctx while the call runs and is
// cut loose when it returns, so an item's tail outlives a caller that
// cancels on return.
//
// A backup item is a transaction. Its recipe entries attach to the item,
// and it commits — recipe swapped in, the superseded generation released
// — once the super-chunk holding its last chunk is applied. That may trail
// Backup's return: the item's last chunks wait in the open batch until it
// closes, its last super-chunks in the window. Flush settles everything.
// An item that fails is aborted on its own: its chunks not yet hashed
// leave the tail of the stream, those hashed are released as they are
// consumed, its in-flight super-chunks are drained, what they stored is
// released, the catalog is untouched, and the session stays usable.
package ingest

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sigmadedupe/internal/chunker"
	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/migrate"
	"sigmadedupe/internal/pipeline"
	"sigmadedupe/internal/router"
	"sigmadedupe/internal/sderr"
	"sigmadedupe/internal/tenant"
)

// DefaultInflight is the default window of super-chunks a session keeps
// in the route/store stage.
const DefaultInflight = 4

// The runtime/pprof labels the stages run under, phase=ingest and stage:
// chunk (the reader worker), hash (the hash workers), commit (the calling
// goroutine's stream-order work: partitioning, window admission, applying
// results, recipe swaps), route (scheduler, router and bids of one
// super-chunk) and dedup (its dedup passes). One context per label set,
// built once: labelling a goroutine allocates nothing. A CPU profile of
// the whole process then splits by stage (go tool pprof -tagfocus
// stage=hash).
var (
	chunkLabels  = pprof.WithLabels(context.Background(), pprof.Labels("phase", "ingest", "stage", "chunk"))
	hashLabels   = pprof.WithLabels(context.Background(), pprof.Labels("phase", "ingest", "stage", "hash"))
	commitLabels = pprof.WithLabels(context.Background(), pprof.Labels("phase", "ingest", "stage", "commit"))
	routeLabels  = pprof.WithLabels(context.Background(), pprof.Labels("phase", "ingest", "stage", "route"))
	dedupLabels  = pprof.WithLabels(context.Background(), pprof.Labels("phase", "ingest", "stage", "dedup"))
)

// Epoch is one pinned membership epoch: what a backup item routes
// against and stores through.
type Epoch struct {
	// View returns the router's window onto the epoch — member list,
	// bids, usage — for one routing decision. A view whose bids can fail
	// also has an Err() error method reporting the first failure; a
	// decision made on a failed view fails the item.
	View func() router.View
	// Node resolves a node's stable cluster ID to its transport — for the
	// stores of this item and the release of what it stored should it
	// abort. False means the node left the cluster.
	Node func(id int) (migrate.Node, bool)
	// Release drops the pin; called once the item committed or aborted.
	Release func()
}

// Config parameterizes a session.
type Config struct {
	// Name is the backup stream's name: container attribution on the
	// nodes and the client name of the director session.
	Name string
	// Tenant scopes the session (default tenant.Default): recipe keys,
	// quota admission and accounting, the fair-share weight and — for an
	// isolated-domain tenant — the fingerprint salt.
	Tenant string
	// ChunkMethod and ChunkSize select the chunker (default Fixed, 4KB).
	ChunkMethod chunker.Method
	ChunkSize   int
	// SuperChunkSize is the routing granularity (default 1MB).
	SuperChunkSize int64
	// Algorithm selects the fingerprint hash (default SHA-1).
	Algorithm fingerprint.Algorithm
	// Workers sizes the fingerprint worker pool (default GOMAXPROCS).
	Workers int
	// Inflight bounds the super-chunks concurrently in the
	// route/store stage (default DefaultInflight).
	Inflight int
	// Router places super-chunks (required).
	Router router.Router
	// Scheduler, when set, is the backend-wide weighted-fair scheduler:
	// every super-chunk acquires its size before any node traffic and
	// releases when its round trip completes.
	Scheduler *tenant.Scheduler
	// KeepPayloads says the nodes store chunk payloads. Without it
	// (metadata-only simulation) a payload is dead once fingerprinted.
	KeepPayloads bool
	// Pin pins the membership epoch of one backup item (required).
	Pin func(ctx context.Context) (Epoch, error)
	// Replicas ≥ 2 writes a second copy of every super-chunk routed whole,
	// in a dedup pass beside the primary's committed in the same recipe (see
	// route). 0 or 1 keeps single copies.
	Replicas int
}

// Stats are a session's counters. At R=2 they describe the primary copy:
// the replica's pass adds to none of them.
type Stats struct {
	LogicalBytes     int64 // bytes presented for backup
	TransferredBytes int64 // payload bytes of chunks the target did not already hold
	SuperChunks      int64 // super-chunks routed and stored
	Files            int64 // Backup calls
	// PeakBufferedBytes is the maximum payload bytes pinned by
	// super-chunks in the window or awaiting in-order apply.
	PeakBufferedBytes int64
	// ChunkBufAllocs plateaus at the chunk count of the window plus the
	// hash stage while ChunkBufReuses grows with the stream.
	ChunkBufAllocs int64
	ChunkBufReuses int64
	// The Fig. 7 message accounting, summed over router.Decisions;
	// AfterRoutingMsgs is one lookup per chunk per assignment.
	PreRoutingMsgs   int64
	AfterRoutingMsgs int64
	BidsSent         int64
	SummaryChecks    int64
	SummaryHits      int64
	SummaryFalsePos  int64
}

// item is one backup in flight: begun by Backup, finished — committed or
// aborted — once its last super-chunk has been applied.
type item struct {
	name, key string
	// ctx bounds the item's routes and its commit. It follows the Backup
	// call's context while the call runs and is cut loose when the call
	// returns, so the tail outlives a caller that cancels on return.
	ctx    context.Context
	detach func()
	epoch  Epoch
	// entries accumulate in stream order as routes are applied; an entry
	// whose Node is -1 was never stored.
	entries []director.ChunkEntry
	pending int  // super-chunks submitted and not yet applied
	done    bool // its mark is consumed: every super-chunk submitted
	err     error
	// refs marks an item fed by BackupRefs: its payloads are the caller's,
	// never the buffer pool's.
	refs bool
}

// routed is the outcome of the route/store stage for one super-chunk.
// entries is set on errors too, so an abort releases what a half-done
// route did store.
type routed struct {
	it      *item
	sc      *core.SuperChunk
	entries []director.ChunkEntry
	dec     router.Decision
	unique  int64 // payload bytes the targets did not already hold
	err     error
	// rep and stored are the super-chunk's entry in Session.storing.
	rep    fingerprint.Fingerprint
	stored chan struct{}
}

// Session is one backup stream. Not safe for concurrent use — one
// Session per stream, as in the paper — except Stats, which may be read
// from anywhere.
type Session struct {
	cfg  Config
	dir  director.Metadata
	id   uint64
	part *core.Partitioner
	bufs bufPool
	// spare is release's scratch run of buffers (calling goroutine only).
	spare [][]byte
	// batches recycles the hash batches.
	batches freeList[*batch]
	// mu guards st: the calling goroutine writes it, anyone may read it.
	mu sync.Mutex
	st Stats
	// buffered is the payload bytes pinned by super-chunks in the window
	// or awaiting apply; its high-water mark is st.PeakBufferedBytes.
	buffered int64

	// filling is the open hash batch: the reader worker's while a fill
	// runs, the calling goroutine's otherwise. stream holds the closed
	// batches the calling goroutine has taken and not yet consumed, oldest
	// first; stream[0] may be part-way consumed.
	filling *batch
	stream  []*batch
	// The session's workers: one reader, Workers hashers, Inflight
	// routers. filled carries the fills' outcomes from the reader, as many
	// as the hash stage holds: the reader runs that far ahead.
	reader, hashers, routers *workers
	filled                   chan filled
	// halt stops the reader at its next fill once the caller has failed.
	halt atomic.Bool
	// order holds, in stream order, the 1-slot result channel of every
	// submitted-but-not-yet-applied super-chunk.
	order []chan routed
	// storing maps the representative (smallest) fingerprint of every
	// such super-chunk to the channel closed once its route has returned
	// — what a later look-alike waits on before it bids (see submit).
	storing map[fingerprint.Fingerprint]chan struct{}
	// open lists the unfinished items, oldest first; cur is the one the
	// running call is feeding, which only that call finishes.
	open []*item
	cur  *item
	// failed holds the errors of items that finished while a later call
	// ran, which the next call, or Flush, returns.
	failed error

	// Tenant state resolved at admission: the fingerprint salt of an
	// isolated dedup domain, and the live bytes the tenant may still add
	// before quota (-1 = unlimited) for the soft mid-stream check.
	salt     [32]byte
	salted   bool
	headroom int64
	// reported is the transferred bytes already accounted to the director.
	reported int64
}

// New opens a backup session with the director: the hard quota check
// runs here, and the tenant's domain and headroom come back for the
// salt and the soft mid-stream check.
func New(ctx context.Context, cfg Config, dir director.Metadata) (*Session, error) {
	cfg.Tenant = cmp.Or(cfg.Tenant, tenant.Default)
	cfg.ChunkMethod = cmp.Or(cfg.ChunkMethod, chunker.Fixed)
	cfg.ChunkSize = cmp.Or(max(cfg.ChunkSize, 0), 4096)
	cfg.SuperChunkSize = cmp.Or(max(cfg.SuperChunkSize, 0), core.DefaultSuperChunkSize)
	cfg.Algorithm = cmp.Or(cfg.Algorithm, fingerprint.SHA1)
	cfg.Inflight = cmp.Or(max(cfg.Inflight, 0), DefaultInflight)
	part, err := core.NewPartitioner(cfg.SuperChunkSize, cfg.Algorithm, cfg.KeepPayloads)
	if err != nil {
		return nil, err
	}
	id, err := dir.BeginSession(ctx, cfg.Name, cfg.Tenant)
	if err != nil {
		return nil, fmt.Errorf("ingest: begin session: %w", err)
	}
	st, err := dir.TenantStatus(ctx, cfg.Tenant)
	if err != nil {
		return nil, fmt.Errorf("ingest: tenant %s: %w", cfg.Tenant, err)
	}
	pc := pipeline.Config{Workers: cfg.Workers}.WithDefaults()
	depth := 3*pc.Depth + 2 // batches the reader may run ahead (see hashBatchBytes)
	s := &Session{
		cfg:  cfg,
		dir:  dir,
		id:   id,
		part: part,
		bufs: bufPool{
			bufCap: chunker.MaxChunkSize(cfg.ChunkMethod, cfg.ChunkSize),
			refill: max(hashBatchBytes/cfg.ChunkSize, 1),
		},
		// Each queue holds what may wait for a worker: the hash stage's
		// batches, the window's super-chunks; a full one only blocks.
		reader:   newWorkers(1, 1, chunkLabels),
		hashers:  newWorkers(pc.Workers, depth+3, hashLabels),
		routers:  newWorkers(cfg.Inflight, 2*cfg.Inflight, routeLabels),
		filled:   make(chan filled, depth),
		storing:  make(map[fingerprint.Fingerprint]chan struct{}),
		headroom: -1,
	}
	s.filling = s.newBatch()
	if st.Info.QuotaBytes > 0 {
		s.headroom = max(st.Info.QuotaBytes-st.Usage.LiveBytes, 0)
	}
	if st.Info.Domain == tenant.DomainIsolated {
		s.salt, s.salted = tenant.Salt(cfg.Tenant), true
	}
	return s, nil
}

// ID returns the director session of this stream.
func (s *Session) ID() uint64 { return s.id }

// Stats snapshots the counters. Super-chunk counters are attributed when
// a route is applied, so after Flush they cover the whole session.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	st := s.st
	s.mu.Unlock()
	st.ChunkBufAllocs, st.ChunkBufReuses = s.bufs.allocs.Load(), s.bufs.reuses.Load()
	return st
}

// Backup chunks, fingerprints, routes and dedup-stores one named stream.
// It returns once r has ended and every hash batch the item closed is
// consumed, which may be before the item is committed: its last chunks
// may wait in the open batch until later items or Flush close it, and
// its last super-chunks in the window. A later call or Flush commits the
// item, or aborts it; the next call to start, or Flush, returns its
// error, and an item's failure never aborts another. Whenever Backup
// itself returns an error, name has not been backed up: the item was
// aborted, what it had stored released, and the catalog still holds
// name's previous generation, if any.
//
// While r has more to give, what it has delivered is on the nodes except
// for what the session holds until it fills or r ends: the partial chunk,
// the open batch (short of hashBatchBytes or hashBatchChunks) and one
// pending super-chunk (at most twice SuperChunkSize). An io.Reader cannot
// say that it would block, so a stalled r holds those back for as long
// as it stalls; nothing of an item is visible before its commit in any
// case.
//
// Canceling ctx stops the reading and the window's admission — of the
// earlier items' super-chunks too, which stay in the stream for the next
// call — and aborts the item's in-flight calls: Backup returns within
// about one super-chunk of work, once a Read in progress returns.
// Cancellation after Backup returned does not reach the item's tail.
func (s *Session) Backup(ctx context.Context, name string, r io.Reader) error {
	ck, err := chunker.New(s.cfg.ChunkMethod, r, s.cfg.ChunkSize, chunker.WithAllocator(s.bufs.alloc, s.bufs.unused))
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	return s.run(ctx, name, false, func(it *item) error { return s.feed(ctx, it, ck) })
}

// BackupRefs is Backup for a stream that arrives chunked and
// fingerprinted — a trace replay. feed calls yield once per file of the
// item, in stream order; the refs join the stream past the hash stage,
// after the items before them, and take the same partitioner, window,
// router, dedup pass, recipe commit and counters. Super-chunks may span
// the files of one item and are cut at its end; each is stamped with the
// minimum fingerprint of the file that completed it
// (core.SuperChunk.FileMinFP), which Extreme Binning routes by. yield
// does not retain refs, and payloads they carry stay the caller's. An
// error of feed's own aborts the item and is returned as is.
func (s *Session) BackupRefs(ctx context.Context, name string, feed func(yield func(refs []core.ChunkRef) error) error) error {
	return s.run(ctx, name, true, func(it *item) error {
		// Each file is a batch closed into the stream, hashed already, and
		// consumed before yield returns.
		var min fingerprint.Fingerprint
		pass := func(refs []core.ChunkRef, eof bool) error {
			b := s.newBatch()
			b.refs, b.fileMin, b.hashed = append(b.refs[:0], refs...), min, make(chan struct{})
			b.marks = append(b.marks, mark{it: it, end: len(refs), eof: eof})
			close(b.hashed)
			if err := s.drain(ctx, b); err != nil {
				return &sderr.BackupError{Name: name, Stage: "route", Err: err}
			}
			return it.err
		}
		err := feed(func(refs []core.ChunkRef) error {
			if err := it.ctx.Err(); err != nil {
				return &sderr.BackupError{Name: name, Stage: "chunk", Err: err}
			}
			size := 0
			for _, ref := range refs {
				size += ref.Size
			}
			if err := s.account(it, size); err != nil {
				return err
			}
			min = (&core.SuperChunk{Chunks: refs}).MinFingerprint()
			return pass(refs, false)
		})
		if err != nil {
			return err
		}
		return pass(nil, true)
	})
}

// run is one item of either door: it opens the item — name checked, an
// epoch pinned — and feed hands its chunks to the stream; the item then
// commits or aborts as Backup describes.
func (s *Session) run(ctx context.Context, name string, refs bool, feed func(*item) error) error {
	if err := tenant.ValidateBackupName(name); err != nil {
		return &sderr.BackupError{Name: name, Stage: "chunk", Err: err}
	}
	pprof.SetGoroutineLabels(commitLabels)
	defer pprof.SetGoroutineLabels(ctx) // the caller's, if ctx carries any
	// A trailing item that failed surfaces before this one starts.
	if err := s.settle(ctx, math.MaxInt); err != nil {
		return err
	}
	if err := s.takeFailed(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil { // the item's context would learn it only asynchronously
		return &sderr.BackupError{Name: name, Stage: "route", Err: err}
	}
	it := &item{name: name, key: tenant.Key(s.cfg.Tenant, name), ctx: ctx, detach: func() {}, refs: refs}
	if ctx.Done() != nil {
		ictx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		stop := context.AfterFunc(ctx, cancel)
		it.ctx, it.detach = ictx, func() { stop() }
	}
	var err error
	if it.epoch, err = s.cfg.Pin(it.ctx); err != nil {
		it.detach()
		return &sderr.BackupError{Name: name, Stage: "route", Err: err}
	}
	s.open, s.cur = append(s.open, it), it
	s.mu.Lock()
	s.st.Files++
	s.mu.Unlock()
	if err = feed(it); err == nil {
		// Apply what has completed, but do not wait for the tail.
		err = cmp.Or(s.settle(ctx, math.MaxInt), it.err)
	}
	s.cur = nil
	if err != nil {
		return s.abandon(it, err)
	}
	if it.done && it.pending == 0 && s.open[0] == it {
		s.open = s.open[:0]
		return s.finish(it)
	}
	it.detach()
	return nil
}

// hashBatchBytes is the least a hash batch closes with, what crosses a
// stage boundary at once. A 4KB chunk hashes in 3µs, less than the
// channel hand-offs that would move it alone. BenchmarkHashStage
// (fixed4k-sha1, -cpu 2) at 16 / 64 / 128 / 512 / 1024 KB: 1060 / 1590 /
// 1780 / 1730 / 1630 MB/s against 777 chunk by chunk — a plateau from 64
// to 512KB, hence a constant. The batches the reader has handed over (at
// most depth), the one being consumed and the one it fills hold at most
// depth + 2 = 3·Depth + 4 batches (Depth = 2·Workers): 2MB of payload at 2 workers, 24.5MB at 32, on top
// of the window (TestMemoryPlateau). With the 16-lane SHA-1 kernel a
// batch of 4KB chunks is two full passes and the curve still rises — 64 /
// 128 / 256KB: 3290 / 3650 / 3950 MB/s — but the hash stage's memory
// doubles with the batch.
const hashBatchBytes = 128 << 10

// hashBatchChunks is the fewest chunks a batch closes with: two lane
// sets of the 16-lane kernels. A pass costs the same with one lane busy
// as with sixteen, and 128KB of FastCDC 8KB chunks is ≈ 14 of them,
// which leaves lanes idle at the batch's tail: SHA-256 over 5.7-12.5KB
// lengths hashes ×1.5 the one-lane rate in batches of 14 and ×1.8 in
// batches of 32 (BenchmarkHashStage fastcdc8k-sha256 -cpu 1 read ≈ 560 /
// 540 / 590 / 600 MB/s at 1 / 16 / 32 / 48, inside the host's noise past
// 16). Such batches grow to ≈ 300KB. Fixed 4KB chunks reach both bounds
// at once. Small items share batches, so their passes run as full as a
// large item's.
const hashBatchChunks = 32

// batch is a run of consecutive chunks of the stream: their payloads,
// their fingerprints (the one Algorithm.SumBatch call's output), then
// their references.
type batch struct {
	data [][]byte
	size int // payload bytes
	fps  []fingerprint.Fingerprint
	refs []core.ChunkRef
	// marks split the chunks among items, in stream order: chunks
	// [previous mark's end, end) are it's, and eof says its last is the
	// item's last.
	marks []mark
	// hashed is closed once refs are made. fileMin is the minimum
	// fingerprint of a BackupRefs file, which its super-chunks are stamped
	// with (core.SuperChunk.FileMinFP); zero on the reader path.
	hashed  chan struct{}
	fileMin fingerprint.Fingerprint
	// next and mark are the consumer's cursor: chunks and marks consumed.
	next, mark int
}

type mark struct {
	it  *item
	end int
	eof bool
}

// newBatch returns an empty recycled batch.
func (s *Session) newBatch() *batch {
	b := s.batches.get()
	if b == nil {
		return new(batch)
	}
	clear(b.marks)
	clear(b.refs)
	*b = batch{data: b.data[:0], fps: b.fps, refs: b.refs, marks: b.marks[:0]}
	return b
}

// filled is the outcome of one fill: the batch it closed, if any, whether
// the item's input ended, or the error that failed the item.
type filled struct {
	closed *batch
	eof    bool
	err    error
}

// fill appends the item's next chunks to the open batch, on the reader
// worker or, for the item's first fill, the calling goroutine, until the
// batch closes or the input ends, and accounts them.
func (s *Session) fill(it *item, ck chunker.Chunker) (f filled) {
	if s.halt.Load() {
		return filled{eof: true} // the caller failed: the reader ends as at the input's end
	}
	if err := it.ctx.Err(); err != nil {
		f.err = &sderr.BackupError{Name: it.name, Stage: "chunk", Err: err}
		return f
	}
	b, size := s.filling, 0
	for full := false; !full && !f.eof; {
		chunk, err := ck.Next()
		if err != nil && err != io.EOF {
			f.err = &sderr.BackupError{Name: it.name, Stage: "chunk", Err: err}
			return f
		}
		if f.eof = err == io.EOF; !f.eof {
			b.data = append(b.data, chunk.Data)
			b.size += chunk.Len()
			size += chunk.Len()
		}
		// A batch the item ended in before its first chunk holds only
		// marks: nothing to wait for.
		if full = b.size >= hashBatchBytes && len(b.data) >= hashBatchChunks; full || f.eof {
			b.marks = append(b.marks, mark{it: it, end: len(b.data), eof: f.eof})
		}
		if full || f.eof && len(b.data) == 0 {
			f.closed, s.filling = b, s.newBatch()
		}
	}
	f.err = s.account(it, size)
	return f
}

// account adds an item's freshly chunked bytes to the logical bytes and
// runs the soft quota check: once the session's logical bytes exceed the
// headroom captured at admission the item fails with the typed quota
// error, long before the director's hard check at the recipe swap would
// refuse the whole backup. It runs at chunk time, so an item that ends in
// the open batch fails its own Backup.
func (s *Session) account(it *item, size int) error {
	s.mu.Lock()
	s.st.LogicalBytes += int64(size)
	logical := s.st.LogicalBytes
	s.mu.Unlock()
	if s.headroom >= 0 && logical > s.headroom {
		return &sderr.BackupError{Name: it.name, Stage: "quota", Err: fmt.Errorf(
			"tenant %s: session bytes %d exceed quota headroom %d: %w",
			s.cfg.Tenant, logical, s.headroom, sderr.ErrQuotaExceeded)}
	}
	return nil
}

// feed runs the item's input through the reader worker into the stream
// and consumes the batches it closes, oldest first, as they are hashed:
// the reader starts each one's hash and runs up to depth batches ahead,
// so chunking, hashing and partitioning overlap. It returns once the
// input has ended and the stream before the open batch is consumed, or on
// the first error, once the reader has stopped.
func (s *Session) feed(ctx context.Context, it *item, ck chunker.Chunker) error {
	s.halt.Store(false)
	read := func() (more bool) {
		f := s.fill(it, ck)
		if f.closed != nil {
			s.hash(f.closed)
		}
		s.filled <- f
		return !f.eof && f.err == nil
	}
	// The first fill runs on the calling goroutine, which has no batch of
	// this item to consume yet, so an item that ends in it — most small
	// files — costs no hand-off to the reader.
	pprof.SetGoroutineLabels(chunkLabels)
	more := read()
	pprof.SetGoroutineLabels(commitLabels)
	if more {
		s.reader.do(func() {
			for read() {
			}
		})
	}
	var err error
	for reading := true; ; {
		switch {
		case err == nil && len(s.stream) > 0:
			<-s.stream[0].hashed
			if e := s.consume(ctx); e != nil {
				err = &sderr.BackupError{Name: it.name, Stage: "route", Err: e}
			} else {
				err = it.err
			}
			s.halt.Store(err != nil)
		case reading:
			f := <-s.filled
			if f.closed != nil {
				s.stream = append(s.stream, f.closed)
			}
			reading, err = !f.eof && f.err == nil, cmp.Or(err, f.err)
		default:
			return err
		}
	}
}

// hash starts a closed batch's fingerprinting on a hash worker.
func (s *Session) hash(b *batch) {
	b.hashed = make(chan struct{})
	s.hashers.do(func() { s.fingerprint(b) })
}

// drain closes the open batch into the stream, then next, and consumes
// the whole stream, under ctx. A drain ctx stops leaves the rest for the
// next one.
func (s *Session) drain(ctx context.Context, next ...*batch) error {
	if len(s.filling.marks) > 0 {
		s.hash(s.filling)
		s.stream = append(s.stream, s.filling)
		s.filling = s.newBatch()
	}
	s.stream = append(s.stream, next...)
	for len(s.stream) > 0 {
		select {
		case <-s.stream[0].hashed:
		case <-ctx.Done():
			return ctx.Err()
		}
		if err := s.consume(ctx); err != nil {
			return err
		}
	}
	return nil
}

// consume feeds the stream's first batch, hashed, to the partitioner from
// its cursor, on the calling goroutine: super-chunk boundaries depend on
// stream order. Each super-chunk cut goes to the window, and an item's
// partial one is cut at its mark. A chunk of a failed item is released
// instead. A consume that ctx stops keeps its cursor.
func (s *Session) consume(ctx context.Context) error {
	b := s.stream[0]
	for b.mark < len(b.marks) {
		// Window admission: at most 2·Inflight super-chunks submitted and
		// not yet applied, each pinning its payloads, of which Inflight
		// route at once. Applying results may fail an item, whose chunks
		// are then released.
		if err := s.settle(ctx, 2*s.cfg.Inflight-1); err != nil {
			return err
		}
		m := b.marks[b.mark]
		if b.next == m.end {
			if b.mark++; m.eof {
				m.it.done = true
				s.submit(m.it, s.part.Flush(), b.fileMin)
			}
			continue
		}
		ref := b.refs[b.next : b.next+1]
		if b.next++; m.it.err != nil {
			s.release(m.it, ref)
		} else {
			s.submit(m.it, s.part.AddRef(ref[0]), b.fileMin)
		}
	}
	s.stream = slices.Delete(s.stream, 0, 1)
	s.batches.put(b)
	return nil
}

// fingerprint hashes a batch in one call, makes its chunk references and
// closes hashed, folding in the tenant's domain salt right after hashing
// so every downstream consumer — similarity index, chunk index,
// handprints, recipes, restores — sees only the salted value. Safe for
// concurrent use.
func (s *Session) fingerprint(b *batch) {
	b.fps = slices.Grow(b.fps[:0], len(b.data))[:len(b.data)]
	s.cfg.Algorithm.SumBatch(b.data, b.fps)
	b.refs = b.refs[:0]
	for i, data := range b.data {
		fp := b.fps[i]
		if s.salted {
			for i := range fp {
				fp[i] ^= s.salt[i%len(s.salt)]
			}
		}
		ref := core.ChunkRef{FP: fp, Size: len(data)}
		if s.cfg.KeepPayloads {
			ref.Data = data
		}
		b.refs = append(b.refs, ref)
	}
	if !s.cfg.KeepPayloads {
		s.bufs.releaseAll(b.data)
	}
	close(b.hashed)
}

// submit hands a super-chunk the partitioner cut, if any, to the route
// workers; results are applied in stream order as they complete. One of
// a failed item is dropped instead, never counted as buffered.
//
// One ordering rule holds inside the window: a super-chunk whose
// representative fingerprint equals that of an earlier one still in
// flight — a copy backed up on the heels of its original — is routed only
// after the earlier one has been stored. Bidding any sooner it would find
// the nodes as empty as the original did, may well land elsewhere, and
// the stream would be stored twice: a dedup loss, not just bandwidth. The
// earlier one was queued first, so a worker holds it and it waits only on
// ones older still: the wait cannot deadlock. A nightly incremental's
// counterpart left the window a generation ago, so there it never waits.
func (s *Session) submit(it *item, sc *core.SuperChunk, fileMin fingerprint.Fingerprint) {
	if sc == nil {
		return
	} else if it.err != nil {
		s.release(it, sc.Chunks)
		return
	}
	sc.FileMinFP = fileMin
	s.buffered += sc.Size()
	s.mu.Lock()
	s.st.PeakBufferedBytes = max(s.st.PeakBufferedBytes, s.buffered)
	s.mu.Unlock()
	slot := make(chan routed, 1)
	it.pending++
	s.order = append(s.order, slot)
	rep, stored := sc.MinFingerprint(), make(chan struct{})
	earlier := s.storing[rep]
	s.storing[rep] = stored
	s.routers.do(func() {
		if earlier != nil {
			select {
			case <-earlier:
			case <-it.ctx.Done(): // the route below fails on it
			}
		}
		res := s.route(it, sc)
		res.rep, res.stored = rep, stored
		close(stored)
		slot <- res
	})
}

// route runs one super-chunk through the scheduler, the router and, per
// assignment, the target's one dedup pass (at R=2 the replica's too): the
// duplicates' references taken and only what the target lacks
// transferred. It runs concurrently for several super-chunks and touches
// only the transports, never session state. Bids racing the store of a
// look-alike super-chunk would cost dedup; submit's ordering rule keeps
// those apart.
func (s *Session) route(it *item, sc *core.SuperChunk) routed {
	res := routed{it: it, sc: sc, entries: make([]director.ChunkEntry, len(sc.Chunks))}
	for i, ch := range sc.Chunks {
		res.entries[i] = director.ChunkEntry{FP: ch.FP, Size: int32(ch.Size), Node: -1, Replica: -1}
	}
	fail := func(stage string, err error) routed {
		res.err = &sderr.BackupError{Name: it.name, Stage: stage, Err: err}
		return res
	}
	if s.cfg.Scheduler != nil {
		release, err := s.cfg.Scheduler.Acquire(it.ctx, s.cfg.Tenant, sc.Size())
		if err != nil {
			return fail("route", err)
		}
		defer release()
	}
	view := it.epoch.View()
	res.dec = s.cfg.Router.Route(sc, view)
	if v, ok := view.(interface{ Err() error }); ok && v.Err() != nil {
		return fail("route", v.Err())
	}
	// The handprint the router bid with, cached on sc: the target of the
	// whole super-chunk indexes it instead of computing its own.
	var hp core.Handprint
	if r, ok := s.cfg.Router.(*router.SigmaRouter); ok && r.K > 0 {
		hp = sc.Handprint(r.K)
	}
	// When the bids all scored zero nothing resembles the super-chunk: its
	// chunks are almost surely new, so their payloads go with the
	// fingerprints — one round trip instead of two.
	unlike := (res.dec.BidsSent > 0 || res.dec.SummaryChecks > 0) && res.dec.Resemblance == 0
	pprof.SetGoroutineLabels(dedupLabels)
	for _, a := range res.dec.Assignments {
		// target is what this assignment sends; at[i] is the super-chunk
		// position of its i-th chunk.
		target, at, thp := sc, a.Chunks, hp
		if at != nil {
			target = &core.SuperChunk{Chunks: make([]core.ChunkRef, len(at))}
			for i, pos := range at {
				target.Chunks[i] = sc.Chunks[pos]
			}
			thp = nil
		}
		// At R=2 a whole super-chunk also goes to a second node: the
		// router's runner-up — in an unchanged re-backup whose bids tie, the
		// node holding the copy the winner does not — or else the rendezvous
		// replica owner of its first chunk. A one-node epoch has neither.
		replica := -1
		if s.cfg.Replicas >= 2 && at == nil && len(sc.Chunks) > 0 {
			if replica = res.dec.Second; replica < 0 {
				replica = view.Membership().ReplicaTarget(sc.Chunks[0].FP, a.Node)
			}
		}
		nd, err := it.node(a.Node)
		var rn migrate.Node
		if err == nil && replica >= 0 {
			rn, err = it.node(replica)
		}
		if err != nil {
			return fail("store", err)
		}
		// Without payloads there is nothing to spare by asking first.
		eager := !s.cfg.KeepPayloads || (at == nil && unlike)
		// The replica's pass runs beside the primary's, on the stream that
		// receives migrated segments; its node indexes its own handprint.
		var rep struct {
			fresh []bool
			err   error
			sync.WaitGroup
		}
		if rn != nil {
			rep.Add(1)
			go func() {
				defer rep.Done()
				rep.fresh, rep.err = rn.Dedup(it.ctx, migrate.Stream, sc, nil, eager)
			}()
		}
		fresh, err := nd.Dedup(it.ctx, s.cfg.Name, target, thp, eager)
		rep.Wait()
		// On error only the chunks holding a reference are attributed, so
		// the abort releases exactly those.
		holds := func(fresh []bool, err error, i int) bool { return err == nil || (i < len(fresh) && !fresh[i]) }
		for i, ch := range target.Chunks {
			pos := i
			if at != nil {
				pos = at[i]
			}
			if holds(fresh, err, i) {
				res.entries[pos].Node = int32(a.Node)
			}
			if rn != nil && holds(rep.fresh, rep.err, i) {
				res.entries[pos].Replica = int32(replica)
			}
			if i >= len(fresh) || fresh[i] {
				res.unique += int64(ch.Size) // read only when the route succeeds
			}
		}
		if err != nil {
			return fail("store", fmt.Errorf("node %d: %w", a.Node, err))
		}
		if rep.err != nil {
			return fail("store", fmt.Errorf("replica node %d: %w", replica, rep.err))
		}
	}
	return res
}

// node resolves a node of the item's epoch; one that left fails typed.
func (it *item) node(id int) (migrate.Node, error) {
	if nd, ok := it.epoch.Node(id); ok {
		return nd, nil
	}
	return nil, fmt.Errorf("node %d is not in the cluster: %w", id, sderr.ErrNotFound)
}

// release hands chunks' payload buffers back to the pool in one run,
// unless they are a BackupRefs caller's.
func (s *Session) release(it *item, chunks []core.ChunkRef) {
	if it.refs {
		return
	}
	bufs := s.spare[:0]
	for i := range chunks {
		if d := chunks[i].Data; d != nil {
			chunks[i].Data = nil
			bufs = append(bufs, d)
		}
	}
	s.bufs.releaseAll(bufs)
	clear(bufs)
	s.spare = bufs[:0]
}

// apply folds one route result into its item and the counters.
func (s *Session) apply(res routed) {
	// The super-chunk leaves the buffered count, and its payload buffers go
	// back to the pool unless they are a BackupRefs caller's. By now nothing
	// references them: the node copied what it stored, and the RPC layer
	// finished with them before the store returned.
	it := res.it
	s.buffered -= res.sc.Size()
	s.release(it, res.sc.Chunks)
	if s.storing[res.rep] == res.stored { // not superseded by a later look-alike
		delete(s.storing, res.rep)
	}
	it.pending--
	it.entries = append(it.entries, res.entries...)
	if it.err = cmp.Or(it.err, res.err); res.err != nil {
		return
	}
	s.mu.Lock()
	s.st.SuperChunks++
	s.st.TransferredBytes += res.unique
	s.st.PreRoutingMsgs += res.dec.PreRoutingMsgs
	s.st.BidsSent += res.dec.BidsSent
	s.st.SummaryChecks += res.dec.SummaryChecks
	s.st.SummaryHits += res.dec.SummaryHits
	s.st.SummaryFalsePos += res.dec.SummaryFalsePos
	// After-routing: the dedup call carries one lookup per chunk to its
	// target.
	s.st.AfterRoutingMsgs += int64(len(res.sc.Chunks))
	s.mu.Unlock()
}

// settle applies queued route results in stream order — blocking (under
// ctx) while more than max remain queued, then taking whatever else has
// completed — and finishes, oldest first, every item this completes
// except the one a running Backup is feeding. It returns only ctx's
// error: an item it finished that failed is held for takeFailed, so the
// call that happens to settle it — a later item, or a Flush — never takes
// on another item's error.
func (s *Session) settle(ctx context.Context, max int) error {
	// A slot holding its result is ready: only this goroutine receives.
	for len(s.order) > max || len(s.order) > 0 && len(s.order[0]) > 0 {
		select {
		case res := <-s.order[0]:
			s.order = s.order[1:]
			s.apply(res)
		case <-ctx.Done():
			if len(s.order[0]) == 0 {
				return ctx.Err()
			}
		}
	}
	for len(s.open) > 0 && s.open[0] != s.cur && s.open[0].done && s.open[0].pending == 0 {
		it := s.open[0]
		s.open = s.open[1:]
		if err := s.finish(it); err != nil && s.failed == nil {
			s.failed = err
		} else if err != nil {
			s.failed = errors.Join(s.failed, err)
		}
	}
	return nil
}

// takeFailed returns, once, the errors of the items settle aborted, each
// item's own, in stream order.
func (s *Session) takeFailed() (err error) {
	err, s.failed = s.failed, nil
	return err
}

// finish commits an item whose super-chunks are all applied, or aborts
// it if one of them (or the commit) failed, and drops its epoch pin —
// only now: a membership change waiting out the pin finds everything the
// item stored in the catalog it drains, or released.
func (s *Session) finish(it *item) error {
	defer it.epoch.Release()
	defer it.detach()
	if it.err == nil {
		// Only a completed backup takes the name. The director swaps the
		// recipe in and hands the superseded generation back in one
		// critical section (hard quota check included), so a concurrent
		// Delete or re-backup of the name serializes before or after, never
		// between. Put-new first, release-old second: a failure in between
		// strands references, never frees a chunk the new recipe needs.
		prev, err := s.dir.SwapRecipe(it.ctx, s.id, it.key, it.entries)
		if err == nil {
			if err := s.supersede(it.ctx, prev.Chunks); err != nil {
				return fmt.Errorf("ingest: supersede %s: %w", it.name, err)
			}
			return nil
		}
		it.err = &sderr.BackupError{Name: it.name, Stage: "finalize", Err: err}
	}
	// Abort: release what the item stored — even when a canceled ctx is
	// why it failed — leaving the cluster as before the attempt. A failed
	// release strands references, which the caller must hear about.
	if err := migrate.Release(context.WithoutCancel(it.ctx), it.epoch.Node, it.entries); err != nil {
		return fmt.Errorf("%w (cleanup failed: %v)", it.err, err)
	}
	return it.err
}

// supersede releases the generation an item's commit replaced, through
// an epoch pinned now rather than the item's: a rebalance may have moved
// that generation onto a node that joined after the item began.
func (s *Session) supersede(ctx context.Context, prev []director.ChunkEntry) error {
	if len(prev) == 0 {
		return nil // a fresh name superseded nothing
	}
	epoch, err := s.cfg.Pin(ctx)
	if err != nil {
		return err
	}
	defer epoch.Release()
	return migrate.Release(ctx, epoch.Node, prev)
}

// abandon fails the item the running call was feeding: its chunks not yet
// hashed leave the tail of the stream, which marks its end there so the
// consumer releases its hashed ones; its own in-flight super-chunks — the
// tail of the queue — are drained without waiting on earlier items'; and
// it aborts.
func (s *Session) abandon(it *item, cause error) error {
	it.err = cmp.Or(it.err, cause)
	b := s.filling
	for n := len(b.marks); n > 0 && b.marks[n-1].it == it; n-- {
		b.marks = b.marks[:n-1]
	}
	from := 0
	if n := len(b.marks); n > 0 {
		from = b.marks[n-1].end
	}
	for _, d := range b.data[from:] {
		b.size -= len(d)
	}
	s.bufs.releaseAll(b.data[from:])
	clear(b.data[from:])
	b.data = b.data[:from]
	b.marks = append(b.marks, mark{it: it, end: from, eof: true})
	tail := len(s.order) - it.pending
	for _, slot := range s.order[tail:] {
		s.apply(<-slot)
	}
	s.order = s.order[:tail]
	s.open = s.open[:len(s.open)-1]
	return s.finish(it)
}

// Flush settles every item, seals the nodes' open containers — both
// copies of what it committed are durable once it returns — reports the
// transferred bytes to the tenant's accounting and ends the director
// session. It returns the errors of the items that aborted since the last
// call. Canceling ctx stops it waiting — for the hash stage, the window
// or routes in flight — and leaves the rest for later. The session stays
// usable; a later Flush ends it again.
func (s *Session) Flush(ctx context.Context) error {
	pprof.SetGoroutineLabels(commitLabels)
	defer pprof.SetGoroutineLabels(ctx)
	if err := s.drain(ctx); err != nil {
		return err
	}
	if err := s.settle(ctx, 0); err != nil {
		return err
	}
	if err := s.takeFailed(); err != nil {
		return err
	}
	epoch, err := s.cfg.Pin(ctx)
	if err != nil {
		return err
	}
	defer epoch.Release()
	for _, id := range epoch.View().Membership().Nodes {
		nd, ok := epoch.Node(id)
		if !ok {
			return fmt.Errorf("ingest: flush: node %d is not in the cluster: %w", id, sderr.ErrNotFound)
		}
		if err := nd.Flush(ctx); err != nil {
			return fmt.Errorf("ingest: flush node %d: %w", id, err)
		}
	}
	if d := s.Stats().TransferredBytes - s.reported; d != 0 {
		if err := s.dir.AccountTransfer(ctx, s.cfg.Tenant, d, 0); err != nil {
			return fmt.Errorf("ingest: account transfer: %w", err)
		}
		s.reported += d
	}
	return s.dir.EndSession(ctx, s.id)
}

// Close settles what is still in the stream and in flight — items whose
// super-chunks all arrive commit, the rest abort — and drops every pin.
// Call Flush first to complete a backup. A deployment whose transports
// can wedge closes them before calling Close: that fails the pending
// calls, so the wait here is prompt.
func (s *Session) Close() {
	pprof.SetGoroutineLabels(commitLabels)
	defer pprof.SetGoroutineLabels(context.Background())
	_ = s.drain(context.Background())
	_ = s.settle(context.Background(), 0)
	s.failed = nil
}

// idleWorker is how long a worker waits for its next task before it
// exits.
const idleWorker = 500 * time.Millisecond

// workers runs tasks on up to n goroutines, oldest first, under labels. A
// worker starts when a task finds fewer than n and exits once idle for
// idleWorker, so its stack grows once per burst of work rather than once
// per task, and a session nobody calls leaves no goroutine behind.
type workers struct {
	tasks  chan func()
	live   chan struct{} // a token per running worker
	labels context.Context
}

// newWorkers returns workers for up to n goroutines and queued tasks.
func newWorkers(n, queued int, labels context.Context) *workers {
	return &workers{tasks: make(chan func(), queued), live: make(chan struct{}, n), labels: labels}
}

// do queues task, blocking while the queue is full.
func (w *workers) do(task func()) {
	w.tasks <- task
	select {
	case w.live <- struct{}{}:
		go w.work()
	default:
	}
}

func (w *workers) work() {
	for idle := time.NewTimer(idleWorker); ; idle.Reset(idleWorker) {
		select {
		case task := <-w.tasks:
			pprof.SetGoroutineLabels(w.labels)
			task()
		case <-idle.C:
			// A task queued before the token is back may have found every
			// worker live: it is this worker's if no other takes it.
			if <-w.live; len(w.tasks) == 0 {
				return
			}
			select {
			case w.live <- struct{}{}:
			default:
				return
			}
		}
	}
}
