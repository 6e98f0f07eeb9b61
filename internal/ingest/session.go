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
// Every backup stream owns a concurrent pipeline: a worker pool
// fingerprints chunks — a batch of hashBatchBytes at a time — while the
// stream is still being read, and a bounded window of super-chunks is
// routed and stored concurrently, so fingerprinting of super-chunk n+1
// overlaps the transfer of n and peak buffered payload is bounded by the
// window plus the hash stage, never by stream size.
// Results are applied in stream order on the goroutine driving the
// session, so only the counters need a lock.
//
// A backup item is a transaction. Its partial super-chunk is cut at the
// item boundary and its recipe entries attach to the item. It commits —
// recipe swapped in, the superseded generation released — once all of
// its super-chunks are stored, which may trail Backup's return by at
// most the window (one item's tail overlaps the next item's head); Flush
// settles everything. An item that fails is aborted: its in-flight
// super-chunks are drained, what they stored is released, the catalog is
// untouched, and the session stays usable.
package ingest

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

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
	pending int  // routes submitted and not yet applied
	done    bool // every chunk has been submitted
	err     error
	// refs marks an item fed by BackupRefs: its payloads are the caller's,
	// never the buffer pool's.
	refs bool
}

func (it *item) fail(err error) {
	if it.err == nil {
		it.err = err
	}
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
	// spare is release's scratch run of buffers (driving goroutine only).
	spare [][]byte
	// batches recycles what feed hands between its stages.
	batches freeList[*batch]
	// mu guards st: the driving goroutine writes it, anyone may read it.
	mu sync.Mutex
	st Stats
	// buffered is the payload bytes pinned by super-chunks in the window
	// or awaiting apply; its high-water mark is st.PeakBufferedBytes.
	buffered int64

	// window is the counting semaphore of the route/store stage.
	window chan struct{}
	// order holds, in stream order, the 1-slot result channel of every
	// routed-but-not-yet-applied super-chunk.
	order []chan routed
	// storing maps the representative (smallest) fingerprint of every
	// such super-chunk to the channel closed once its route has returned
	// — what a later look-alike waits on before it bids (see enqueue).
	storing map[fingerprint.Fingerprint]chan struct{}
	// open lists the unfinished items, oldest first; cur is the one the
	// running Backup call is feeding, which only that call finishes.
	open []*item
	cur  *item
	// fileMin is what enqueue stamps on a super-chunk as its FileMinFP:
	// the minimum fingerprint of the BackupRefs file being consumed, zero
	// on the reader path.
	fileMin fingerprint.Fingerprint

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
	if cfg.Tenant == "" {
		cfg.Tenant = tenant.Default
	}
	if cfg.ChunkMethod == 0 {
		cfg.ChunkMethod = chunker.Fixed
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 4096
	}
	if cfg.SuperChunkSize <= 0 {
		cfg.SuperChunkSize = core.DefaultSuperChunkSize
	}
	if cfg.Algorithm == 0 {
		cfg.Algorithm = fingerprint.SHA1
	}
	if cfg.Inflight <= 0 {
		cfg.Inflight = DefaultInflight
	}
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
	s := &Session{
		cfg:  cfg,
		dir:  dir,
		id:   id,
		part: part,
		bufs: bufPool{
			bufCap: chunker.MaxChunkSize(cfg.ChunkMethod, cfg.ChunkSize),
			refill: max(hashBatchBytes/cfg.ChunkSize, 1),
		},
		window:   make(chan struct{}, cfg.Inflight),
		storing:  make(map[fingerprint.Fingerprint]chan struct{}),
		headroom: -1,
	}
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
// It may return while the item's tail super-chunks are still in flight;
// a later call or Flush commits the item, or aborts it and returns its
// error. Whenever Backup itself returns an error, name has not been
// backed up: the item was aborted, what it had stored released, and the
// catalog still holds name's previous generation, if any.
//
// While r has more to give, what it has delivered is on the nodes except
// for what the session holds until it fills or r ends: the partial chunk,
// one batch of hashBatchBytes and one pending super-chunk (at most twice
// SuperChunkSize). An io.Reader cannot say that it would block, so a
// stalled r holds those back for as long as it stalls; nothing of an item
// is visible before its commit in any case.
//
// Canceling ctx stops the chunking pipeline and the window's admission
// and aborts the item's in-flight calls: Backup returns within about one
// super-chunk of work — once a Read in progress returns. Cancellation
// after Backup returned does not reach the item's tail.
func (s *Session) Backup(ctx context.Context, name string, r io.Reader) error {
	if err := tenant.ValidateBackupName(name); err != nil {
		return &sderr.BackupError{Name: name, Stage: "chunk", Err: err}
	}
	ck, err := chunker.New(s.cfg.ChunkMethod, r, s.cfg.ChunkSize, chunker.WithAllocator(s.bufs.alloc, s.bufs.unused))
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	return s.run(ctx, name, false, func(it *item) error { return s.feed(it, ck) })
}

// BackupRefs is Backup for a stream that arrives chunked and
// fingerprinted — a trace replay. feed calls yield once per file of the
// item, in stream order; the refs enter where Backup's fingerprinted
// chunks do and take the same partitioner, window, router, dedup pass,
// recipe commit and counters. Super-chunks may span the files of one item
// and are cut at its end; each is stamped with the minimum fingerprint of
// the file that completed it (core.SuperChunk.FileMinFP), which Extreme
// Binning routes by. yield does not retain refs, and payloads they carry
// stay the caller's. An error of feed's own aborts the item and is
// returned as is.
func (s *Session) BackupRefs(ctx context.Context, name string, feed func(yield func(refs []core.ChunkRef) error) error) error {
	if err := tenant.ValidateBackupName(name); err != nil {
		return &sderr.BackupError{Name: name, Stage: "chunk", Err: err}
	}
	return s.run(ctx, name, true, func(it *item) error {
		defer func() { s.fileMin = fingerprint.Fingerprint{} }()
		err := feed(func(refs []core.ChunkRef) error {
			if err := it.ctx.Err(); err != nil {
				return &sderr.BackupError{Name: name, Stage: "chunk", Err: err}
			}
			s.fileMin = (&core.SuperChunk{Chunks: refs}).MinFingerprint()
			for _, ref := range refs {
				if _, err := s.consume(it, ref); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		return s.cut(it)
	})
}

// run is one item of either door: feed hands its super-chunks to the
// window; the item then commits or aborts as Backup describes.
func (s *Session) run(ctx context.Context, name string, refs bool, feed func(*item) error) error {
	// A trailing item that failed surfaces before this one starts.
	if err := s.settle(ctx, math.MaxInt); err != nil {
		return err
	}
	it, err := s.begin(ctx, name)
	if err != nil {
		return &sderr.BackupError{Name: name, Stage: "route", Err: err}
	}
	it.refs = refs
	err = feed(it)
	if err == nil {
		it.done = true
		// Apply what has completed, but do not wait for the tail.
		if err = s.settle(ctx, math.MaxInt); err == nil {
			err = it.err
		}
	}
	s.cur = nil
	if err != nil {
		return s.abandon(it, err)
	}
	if it.pending == 0 && s.open[0] == it {
		s.open = s.open[:0]
		return s.finish(it)
	}
	it.detach()
	return nil
}

// begin pins an epoch and opens the item.
func (s *Session) begin(ctx context.Context, name string) (*item, error) {
	it := &item{name: name, key: tenant.Key(s.cfg.Tenant, name), ctx: ctx, detach: func() {}}
	if ctx.Done() != nil {
		ictx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		stop := context.AfterFunc(ctx, cancel)
		it.ctx, it.detach = ictx, func() { stop() }
	}
	epoch, err := s.cfg.Pin(it.ctx)
	if err != nil {
		it.detach()
		return nil, err
	}
	it.epoch = epoch
	s.open = append(s.open, it)
	s.cur = it
	s.mu.Lock()
	s.st.Files++
	s.mu.Unlock()
	return it, nil
}

// hashBatchBytes is what crosses a stage boundary of the piped path at
// once: a run of consecutive chunks of at least this many bytes (EOF
// hands over the partial run). A 4KB chunk hashes in 3µs, less than the
// channel hand-offs that would move it alone. BenchmarkHashStage
// (fixed4k-sha1, -cpu 2) at 16 / 64 / 128 / 512 / 1024 KB: 1060 / 1590 /
// 1780 / 1730 / 1630 MB/s against 777 chunk by chunk — a plateau from 64
// to 512KB, hence a constant. Produce and Map as written hold at most
// 3·Depth + 4 batches (three queues of Depth = 2·Workers, one in each of
// four hands): 2MB of payload at 2 workers, 24.5MB at 32, on top of the
// window (TestMemoryPlateau). With the 16-lane SHA-1 kernel a batch of
// 4KB chunks is two full passes and the curve still rises — 64 / 128 /
// 256KB: 3290 / 3650 / 3950 MB/s — but the hash stage's memory doubles
// with the batch.
const hashBatchBytes = 128 << 10

// batch is what feed hands from stage to stage: a run of consecutive
// chunk payloads, their fingerprints (the one Algorithm.SumBatch call's
// output), then the chunk references consumed in stream order.
type batch struct {
	data [][]byte
	fps  []fingerprint.Fingerprint
	refs []core.ChunkRef
}

// fill reads the next run of chunks into a recycled batch: at least
// hashBatchBytes, or up to the end of the stream, which eof reports.
func (s *Session) fill(ck chunker.Chunker) (b *batch, eof bool, err error) {
	if b = s.batches.get(); b == nil {
		b = new(batch)
	}
	b.data = b.data[:0]
	for size := 0; size < hashBatchBytes; {
		chunk, err := ck.Next()
		if err == io.EOF {
			return b, true, nil
		}
		if err != nil {
			return nil, false, err
		}
		b.data = append(b.data, chunk.Data)
		size += chunk.Len()
	}
	return b, false, nil
}

// feed runs the item's stream through chunker → fingerprint →
// partitioner, handing completed super-chunks to the window, and cuts the
// partial super-chunk at the item boundary.
func (s *Session) feed(it *item, ck chunker.Chunker) error {
	chunkErr := func(err error) error {
		return &sderr.BackupError{Name: it.name, Stage: "chunk", Err: err}
	}
	// An item that ends inside its first super-chunk — the bulk of a
	// typical backup tree — is chunked and fingerprinted right here: the
	// pipeline's goroutines and channels would cost more than they
	// overlap. Selected from the input, not from an option. A single-P
	// runtime, where fingerprinting cannot overlap chunking, takes the
	// pipeline too now that buffers move in runs: ten alternating pairs
	// of GOMAXPROCS=1 bench/run.sh -workload incremental-ram read
	// ingest_cpu_s_per_gb 0.824 inline (quartile distance 0.084) vs 0.846
	// piped, and rss_peak_mb 6 % lower piped (CHANGES.md).
	for cut := false; !cut; {
		if err := it.ctx.Err(); err != nil {
			return chunkErr(err)
		}
		b, eof, err := s.fill(ck)
		if err != nil {
			return chunkErr(err)
		}
		s.fingerprint(b)
		if cut, err = s.consumeBatch(it, b); err != nil {
			return err
		}
		if eof {
			return s.cut(it)
		}
	}
	// Past that chunker, fingerprint workers and this goroutine's
	// partitioner overlap, and nothing between them is per chunk: a batch
	// is filled with payloads, fingerprinted by one worker (payloads still
	// in its cache), consumed in stream order, recycled.
	pc := pipeline.Config{Workers: s.cfg.Workers}.WithDefaults()
	g := pipeline.NewGroupCtx(it.ctx)
	raw := pipeline.Produce(g, pc.Depth, func(yield func(*batch) bool) error {
		for {
			b, eof, err := s.fill(ck)
			if err != nil {
				return chunkErr(err)
			}
			if !yield(b) || eof {
				return nil
			}
		}
	})
	hashed := pipeline.Map(g, raw, pc.Workers, pc.Depth, func(b *batch) (*batch, error) {
		s.fingerprint(b)
		return b, nil
	})
	for b := range hashed {
		if _, err := s.consumeBatch(it, b); err != nil {
			g.Fail(err)
			break
		}
	}
	if err := g.Wait(); err != nil {
		if err == it.ctx.Err() {
			err = chunkErr(err)
		}
		return err
	}
	return s.cut(it)
}

// fingerprint hashes a batch in one call and makes its chunk references,
// folding in the tenant's domain salt right after hashing so every
// downstream consumer — similarity index, chunk index, handprints,
// recipes, restores — sees only the salted value. Safe for concurrent use.
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
}

// consume feeds one fingerprinted chunk to the partitioner, on the
// driving goroutine: super-chunk boundaries depend on stream order. It
// reports whether the chunk completed a super-chunk. The soft quota
// check lives here: once the session's logical bytes exceed the headroom
// captured at admission the stream fails with the typed quota error,
// long before the director's hard check at the recipe swap would refuse
// the whole backup.
func (s *Session) consume(it *item, ref core.ChunkRef) (bool, error) {
	s.mu.Lock()
	s.st.LogicalBytes += int64(ref.Size)
	logical := s.st.LogicalBytes
	s.mu.Unlock()
	if s.headroom >= 0 && logical > s.headroom {
		return false, &sderr.BackupError{Name: it.name, Stage: "quota", Err: fmt.Errorf(
			"tenant %s: session bytes %d exceed quota headroom %d: %w",
			s.cfg.Tenant, logical, s.headroom, sderr.ErrQuotaExceeded)}
	}
	if sc := s.part.AddRef(ref); sc != nil {
		return true, s.enqueue(it, sc)
	}
	return false, nil
}

// consumeBatch consumes a fingerprinted batch chunk by chunk and recycles
// it; cut reports that one of its chunks completed a super-chunk.
func (s *Session) consumeBatch(it *item, b *batch) (cut bool, err error) {
	for _, ref := range b.refs {
		c, err := s.consume(it, ref)
		if err != nil {
			return false, err
		}
		cut = cut || c
	}
	s.batches.put(b)
	return cut, nil
}

// cut routes the partial super-chunk at the item boundary.
func (s *Session) cut(it *item) error {
	if sc := s.part.Flush(); sc != nil {
		return s.enqueue(it, sc)
	}
	return nil
}

// enqueue hands one super-chunk to the route/store stage: up to
// Inflight run at once, and results are applied in stream order as they
// complete.
//
// One ordering rule holds inside the window: a super-chunk whose
// representative fingerprint equals that of an earlier one still in
// flight — a copy backed up on the heels of its original — is routed only
// after the earlier one has been stored. Bidding any sooner it would find
// the nodes as empty as the original did, may well land elsewhere, and
// the stream would be stored twice: a dedup loss, not just bandwidth. The
// earlier one already holds its window slot and waits only on ones older
// still, so the wait cannot deadlock; a nightly incremental's counterpart
// left the window a generation ago, so there it never waits.
func (s *Session) enqueue(it *item, sc *core.SuperChunk) error {
	sc.FileMinFP = s.fileMin
	s.buffered += sc.Size()
	s.mu.Lock()
	s.st.PeakBufferedBytes = max(s.st.PeakBufferedBytes, s.buffered)
	s.mu.Unlock()
	// Bound the queue of completed-but-unapplied results (each pins its
	// super-chunk's payloads) to twice the window. Applying them may
	// reveal that one of this item's earlier super-chunks failed.
	err := s.settle(it.ctx, 2*s.cfg.Inflight-1)
	if err == nil {
		err = it.err
	}
	if err == nil {
		select {
		case s.window <- struct{}{}:
		case <-it.ctx.Done():
			err = it.ctx.Err()
		}
	}
	if err != nil {
		s.recycle(it, sc) // never entered the window
		if err == it.ctx.Err() {
			err = &sderr.BackupError{Name: it.name, Stage: "route", Err: err}
		}
		return err
	}
	slot := make(chan routed, 1)
	it.pending++
	s.order = append(s.order, slot)
	rep, stored := sc.MinFingerprint(), make(chan struct{})
	earlier := s.storing[rep]
	s.storing[rep] = stored
	go func() {
		defer func() { <-s.window }()
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
	}()
	return nil
}

// route runs one super-chunk through the scheduler, the router and, per
// assignment, the target's one dedup pass (at R=2 the replica's too): the
// duplicates' references taken and only what the target lacks
// transferred. It runs concurrently for several super-chunks and touches
// only the transports, never session state. Bids racing the store of a
// look-alike super-chunk would cost dedup; enqueue's ordering rule keeps
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
		var replicated chan dedupResult
		if rn != nil {
			replicated = make(chan dedupResult, 1)
			go func() {
				fresh, err := rn.Dedup(it.ctx, migrate.Stream, sc, nil, eager)
				replicated <- dedupResult{fresh, err}
			}()
		}
		fresh, err := nd.Dedup(it.ctx, s.cfg.Name, target, thp, eager)
		var rep dedupResult
		if replicated != nil {
			rep = <-replicated
		}
		// On error only the chunks holding a reference are attributed, so
		// the abort releases exactly those.
		holds := func(fresh []bool, err error, i int) bool { return err == nil || (i < len(fresh) && !fresh[i]) }
		for i := range target.Chunks {
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
		}
		if err != nil {
			return fail("store", fmt.Errorf("node %d: %w", a.Node, err))
		}
		if rep.err != nil {
			return fail("store", fmt.Errorf("replica node %d: %w", replica, rep.err))
		}
		for i, ch := range target.Chunks {
			if i >= len(fresh) || fresh[i] {
				res.unique += int64(ch.Size)
			}
		}
	}
	return res
}

// dedupResult is what one migrate.Node.Dedup call returned.
type dedupResult struct {
	fresh []bool
	err   error
}

// node resolves a node of the item's epoch; one that left fails typed.
func (it *item) node(id int) (migrate.Node, error) {
	if nd, ok := it.epoch.Node(id); ok {
		return nd, nil
	}
	return nil, fmt.Errorf("node %d is not in the cluster: %w", id, sderr.ErrNotFound)
}

// recycle takes a super-chunk out of the buffered count and returns its
// payload buffers to the pool, unless they are a BackupRefs caller's. By
// now nothing references them: the node copied what it stored, and the
// RPC layer finished with them before the store returned.
func (s *Session) recycle(it *item, sc *core.SuperChunk) {
	s.buffered -= sc.Size()
	if !it.refs {
		s.release(sc)
	}
}

// release hands a super-chunk's payload buffers back to the pool in one
// run.
func (s *Session) release(sc *core.SuperChunk) {
	bufs := s.spare[:0]
	for i := range sc.Chunks {
		if d := sc.Chunks[i].Data; d != nil {
			sc.Chunks[i].Data = nil
			bufs = append(bufs, d)
		}
	}
	s.bufs.releaseAll(bufs)
	clear(bufs)
	s.spare = bufs[:0]
}

// apply folds one route result into its item and the counters.
func (s *Session) apply(res routed) {
	s.recycle(res.it, res.sc)
	if s.storing[res.rep] == res.stored { // not superseded by a later look-alike
		delete(s.storing, res.rep)
	}
	it := res.it
	it.pending--
	it.entries = append(it.entries, res.entries...)
	if res.err != nil {
		it.fail(res.err)
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
// except the one a running Backup is feeding. It returns the first error
// of an item it finished.
func (s *Session) settle(ctx context.Context, max int) error {
	for len(s.order) > 0 {
		var res routed
		select {
		case res = <-s.order[0]:
		default:
			if len(s.order) <= max {
				return s.finishReady()
			}
			select {
			case res = <-s.order[0]:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		s.order = s.order[1:]
		s.apply(res)
	}
	return s.finishReady()
}

func (s *Session) finishReady() (err error) {
	for len(s.open) > 0 {
		it := s.open[0]
		if it == s.cur || !it.done || it.pending > 0 {
			break
		}
		s.open = s.open[1:]
		if ferr := s.finish(it); err == nil {
			err = ferr
		}
	}
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

// abandon fails the item the running Backup was feeding: its buffered
// chunks are dropped, its own in-flight super-chunks — the tail of the
// queue — are drained without waiting on earlier items', and it aborts.
func (s *Session) abandon(it *item, cause error) error {
	it.fail(cause)
	if sc := s.part.Flush(); sc != nil && !it.refs {
		s.release(sc) // never counted as buffered
	}
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
// session. The session stays usable; a later Flush ends it again.
func (s *Session) Flush(ctx context.Context) error {
	if err := s.settle(ctx, 0); err != nil {
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

// Close settles what is still in flight — items whose super-chunks all
// arrived commit, the rest abort — and drops every pin. Call Flush first
// to complete a backup. A deployment whose transports can wedge closes
// them before calling Close: that fails the pending calls, so the wait
// here is prompt.
func (s *Session) Close() {
	_ = s.settle(context.Background(), 0)
}
