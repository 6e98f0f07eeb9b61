// Package cluster implements the trace-driven cluster deduplication
// simulator used for the paper's inter-node experiments (§4.4): N emulated
// deduplication nodes, a routing scheme, and fingerprint-lookup message
// accounting.
//
// As in the paper, each node is a full independent set of fingerprint
// lookup structures (similarity index, fingerprint cache, chunk index,
// container store), and the client-side pipeline partitions the backup
// stream into super-chunks, routes each one, and "transfers" only unique
// chunks. Message accounting follows Fig. 7: one message per chunk
// fingerprint sent per contacted node, split into pre-routing messages
// (the routing decision) and after-routing messages (the batched
// fingerprint query at the target).
//
// The simulator is concurrent along the same axes as the prototype: each
// backup stream owns a Stream with its own super-chunk partitioner and
// its own stats shard, node stores are serialized by per-node locks (not
// one global mutex), and BackupItems replays many trace streams in
// parallel. The single-stream BackupItem path is unchanged and
// deterministic.
//
// Named backups are fed by the public Backend through package ingest —
// the same session the prototype runs — over the in-process node
// transport, routing against a View of the members; their recipes, like
// the tenant table, the membership epochs and the journal of open
// migration transactions, live in the cluster's in-RAM director — the
// same director.Director the prototype talks to — and everything that
// reads them (restore, delete, compaction, migration, repair, membership
// changes) is the backend's and package migrate's code over that
// transport. What is left here is the simulated hardware — the node
// objects and that director — trace driving and message counting.
package cluster

import (
	"fmt"
	"maps"
	"path/filepath"
	"sync"
	"sync/atomic"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/metrics"
	"sigmadedupe/internal/migrate"
	"sigmadedupe/internal/node"
	"sigmadedupe/internal/pipeline"
	"sigmadedupe/internal/router"
	"sigmadedupe/internal/sderr"
)

// Config parameterizes a simulated cluster.
type Config struct {
	// N is the number of deduplication nodes.
	N int
	// Scheme selects the routing scheme.
	Scheme router.Scheme
	// HandprintK is the handprint size for routing and node similarity
	// indexes (default core.DefaultHandprintSize).
	HandprintK int
	// SuperChunkSize is the routing granularity in bytes (default 1MB).
	SuperChunkSize int64
	// SampleRate is Stateful routing's fingerprint sampling denominator
	// (default 32).
	SampleRate int
	// FixedBoundaries cuts super-chunks at exact byte counts instead of
	// content-defined boundaries (ablation; see core.Partitioner).
	FixedBoundaries bool
	// IgnoreUsage disables Sigma routing's load discount (ablation).
	IgnoreUsage bool
	// BidSummaries routes bids through each node's compact Bloom summary
	// of its similarity index (Sigma and Stateful schemes). Summaries
	// are cheap enough to probe for every live node, so Sigma upgrades
	// from bidding at its rendezvous candidates to global discovery: it
	// bids at every summary-positive node in the cluster (equivalent to
	// full one-to-all bidding, since summaries have no false negatives)
	// while sending only O(1) expected bid messages per super-chunk at
	// 64–128 nodes, and keeps the rendezvous candidates as the
	// least-loaded fallback pool. This both collapses fan-out cost and
	// recovers dedup lost to candidate-set churn as N grows. Stats
	// gains the summary counters.
	BidSummaries bool
	// Node is the per-node configuration template; ID is overridden.
	Node node.Config
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 1
	}
	if c.Scheme == 0 {
		c.Scheme = router.Sigma
	}
	if c.HandprintK <= 0 {
		c.HandprintK = core.DefaultHandprintSize
	}
	if c.SuperChunkSize <= 0 {
		c.SuperChunkSize = core.DefaultSuperChunkSize
	}
	if c.SampleRate <= 0 {
		c.SampleRate = 32
	}
	return c
}

// Stats aggregates cluster-level counters.
type Stats struct {
	LogicalBytes     int64
	SuperChunks      int64
	Files            int64
	PreRoutingMsgs   int64
	AfterRoutingMsgs int64
	// BidsSent counts nodes actually queried for a routing bid; with
	// bid summaries on it is the summary-positive subset — divide by
	// SuperChunks for the per-super-chunk fan-out the scale-out
	// campaign tracks.
	BidsSent int64
	// SummaryChecks/SummaryHits/SummaryFalsePos are the bid-summary
	// probe counters (zero unless Config.BidSummaries): probes made,
	// probes that answered "may contain" (each became a bid), and hits
	// whose bid then scored zero.
	SummaryChecks   int64
	SummaryHits     int64
	SummaryFalsePos int64
}

// TotalMsgs returns the Fig. 7 metric: all fingerprint-lookup messages.
func (s Stats) TotalMsgs() int64 { return s.PreRoutingMsgs + s.AfterRoutingMsgs }

// shard is one stream's private stats slice. Each field is written only
// by the owning stream's goroutine and read by Stats aggregation, so
// plain atomics suffice — no lock is shared between streams.
type shard struct {
	logicalBytes     atomic.Int64
	superChunks      atomic.Int64
	files            atomic.Int64
	preRoutingMsgs   atomic.Int64
	afterRoutingMsgs atomic.Int64
	bidsSent         atomic.Int64
	summaryChecks    atomic.Int64
	summaryHits      atomic.Int64
	summaryFalsePos  atomic.Int64
}

// Cluster is a simulated deduplication cluster: the node objects, the
// router, the in-RAM director and the trace feed. Its own member list is
// fixed at cfg.N; the public simulator backend, which owns membership,
// hands it every node set it commits (SetView).
type Cluster struct {
	cfg Config
	rt  router.Router

	// view is the node set the feed routes over and the stats read. It is
	// immutable and swapped whole, so bids, usage reads and stats take no
	// lock: at 128 nodes × 64 streams that keeps the per-super-chunk bid
	// fan-out off a shared mutex.
	view atomic.Pointer[View]

	// dir is the cluster's metadata plane: an in-RAM director holding the
	// recipes of named backups, the tenant table, the membership epochs and
	// the journal of open migration/replication transactions. It never
	// fsyncs and lives exactly as long as the Cluster, so node restarts
	// (RestartNode, Restart) keep it.
	dir *director.Director

	shardMu sync.Mutex
	shards  []*shard
	// base accumulates the counters of retired streams, so a long-lived
	// cluster replaying many stream batches does not grow shards without
	// bound.
	base Stats

	// def is the default stream backing the single-stream BackupItem API.
	def *Stream
}

// New builds a cluster of cfg.N nodes.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	rt, err := router.New(cfg.Scheme, cfg.HandprintK, cfg.SampleRate)
	if err != nil {
		return nil, err
	}
	switch r := rt.(type) {
	case *router.SigmaRouter:
		r.IgnoreUsage = cfg.IgnoreUsage
		r.UseSummaries = cfg.BidSummaries
	case *router.StatefulRouter:
		r.UseSummaries = cfg.BidSummaries
	}
	c := &Cluster{cfg: cfg, rt: rt, dir: director.New()}
	nodes := make(map[int]*node.Node, cfg.N)
	for i := 0; i < cfg.N; i++ {
		if nodes[i], err = c.NewNode(i); err != nil {
			return nil, err
		}
	}
	c.view.Store(&View{Members: core.DenseMembership(cfg.N), Nodes: nodes})
	// The default stream keeps the seed's container naming ("client0") so
	// single-stream results are bit-identical to the serial simulator.
	def, err := c.Stream("client0")
	if err != nil {
		return nil, err
	}
	c.def = def
	return c, nil
}

// Stream opens a named backup stream: its own super-chunk partitioner,
// its own open containers on every node, and its own stats shard. A
// Stream is single-goroutine (one backup stream = one pipeline), but
// distinct Streams may run concurrently.
func (c *Cluster) Stream(name string) (*Stream, error) {
	var popts []core.PartitionerOption
	if c.cfg.FixedBoundaries {
		popts = append(popts, core.WithFixedBoundaries())
	}
	part, err := core.NewPartitioner(c.cfg.SuperChunkSize, fingerprint.SHA1, c.cfg.Node.KeepPayloads, popts...)
	if err != nil {
		return nil, err
	}
	s := &Stream{c: c, name: name, part: part, ctr: &shard{}}
	c.shardMu.Lock()
	c.shards = append(c.shards, s.ctr)
	c.shardMu.Unlock()
	return s, nil
}

// View is the in-process router view of one node set: bids and usage
// reads are live node state, but the member list — and with it the
// candidate set — is fixed, so a backup item routing against one View
// never observes a torn member list. Nodes holds every member (the
// router asks about no one else) and possibly more — a node being
// drained — and is never mutated after the View is built, so a routing
// decision takes no lock at all.
type View struct {
	Members core.Membership
	Nodes   map[int]*node.Node
}

var (
	_ router.View        = (*View)(nil)
	_ router.SummaryView = (*View)(nil)
)

func (v *View) N() int { return v.Members.Len() }

func (v *View) Membership() core.Membership { return v.Members }

// BidHandprint implements router.View. A node that has since been killed
// still answers from its frozen in-RAM index (engine state stays readable
// after Close); the store path is where a dead node fails.
func (v *View) BidHandprint(nodeID int, hp core.Handprint) int {
	return v.Nodes[nodeID].CountHandprintMatches(hp)
}

// BidChunks implements router.View.
func (v *View) BidChunks(nodeID int, fps []fingerprint.Fingerprint) int {
	return v.Nodes[nodeID].CountStoredChunks(fps)
}

// Usage implements router.View.
func (v *View) Usage(nodeID int) int64 { return v.Nodes[nodeID].StorageUsage() }

// SummaryMayContain implements router.SummaryView: the node's bid summary
// answers whether any RFP of hp may be in its similarity index.
func (v *View) SummaryMayContain(nodeID int, hp core.Handprint) bool {
	return v.Nodes[nodeID].SummaryMayContain(hp)
}

// NewNode builds one node from the cluster template. Each durable node
// owns a subdirectory so container files and manifests never collide and
// a node restarts independently.
func (c *Cluster) NewNode(id int) (*node.Node, error) {
	ncfg := c.cfg.Node
	ncfg.ID = id
	ncfg.HandprintSize = c.cfg.HandprintK
	if ncfg.Dir != "" {
		ncfg.Dir = filepath.Join(ncfg.Dir, fmt.Sprintf("node%02d", id))
	}
	n, err := node.New(ncfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return n, nil
}

// View returns the node set the feed currently routes over.
func (c *Cluster) View() *View { return c.view.Load() }

// SetView replaces the node set: the backend that owns membership calls
// it with every set it commits, so the feed, the stats and Close follow.
func (c *Cluster) SetView(v *View) { c.view.Store(v) }

// Director returns the cluster's metadata plane (see Cluster.dir).
func (c *Cluster) Director() *director.Director { return c.dir }

// Router returns the cluster's routing scheme instance.
func (c *Cluster) Router() router.Router { return c.rt }

// Node resolves a node of the current view to its in-process transport
// (the migrate.Engine.Nodes shape); false for a node outside it.
func (c *Cluster) Node(id int) (migrate.Node, bool) {
	n := c.view.Load().Nodes[id]
	if n == nil {
		return nil, false
	}
	return migrate.Local(n), true
}

// Scheme returns the active routing scheme name.
func (c *Cluster) Scheme() string { return c.rt.Name() }

// BackupItem feeds one backup item (a file, or an anonymous trace segment
// with fileID 0) into the cluster's default stream. Chunk references must
// already be fingerprinted (trace-driven mode) — use
// workload.Corpus.ChunkRefs. Not safe for concurrent use; concurrent
// replay goes through per-stream handles (Stream) or BackupItems.
func (c *Cluster) BackupItem(fileID uint64, refs []core.ChunkRef) error {
	return c.def.BackupItem(fileID, refs)
}

// Item is one backup item of a trace stream: an optional file identity
// plus its fingerprinted chunk references.
type Item struct {
	FileID uint64
	Refs   []core.ChunkRef
}

// BackupItems replays multiple named backup streams concurrently, one
// goroutine per stream, each with its own partitioner, stats shard and
// open containers. Partial super-chunks are routed when a stream ends;
// call Flush afterwards to seal node containers. The first stream error
// cancels the replay.
func (c *Cluster) BackupItems(streams map[string][]Item) error {
	g := pipeline.NewGroup()
	for name, items := range streams {
		s, err := c.Stream(name)
		if err != nil {
			return err
		}
		items := items
		g.Go(func() error {
			// The goroutine is the shard's only writer, so folding it into
			// the base totals on the way out is safe.
			defer s.Close()
			for _, it := range items {
				select {
				case <-g.Done():
					return nil
				default:
				}
				if err := s.BackupItem(it.FileID, it.Refs); err != nil {
					return err
				}
			}
			return s.Flush()
		})
	}
	return g.Wait()
}

// liveNodes lists the members' nodes, ascending by ID — lock-free through
// the view, so stats readers (UsageVector, Skew) never contend with
// membership or ingest locks.
func (c *Cluster) liveNodes() []*node.Node {
	v := c.view.Load()
	out := make([]*node.Node, 0, v.Members.Len())
	for _, id := range v.Members.Nodes {
		out = append(out, v.Nodes[id])
	}
	return out
}

// Flush routes the default stream's partial super-chunk and seals all
// node containers. Call at the end of a backup session, after every
// explicitly opened Stream has been flushed.
func (c *Cluster) Flush() error {
	if err := c.def.Flush(); err != nil {
		return err
	}
	for _, n := range c.liveNodes() {
		if err := n.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Stream is one backup stream of the simulator. Methods must not be
// called concurrently on the same Stream; run one goroutine per Stream.
// Call Close when the stream is finished so its stats shard folds into
// the cluster totals.
type Stream struct {
	c    *Cluster
	name string
	part *core.Partitioner
	ctr  *shard
	// v is the view this stream routes against, re-read at every item
	// boundary: a backup item never observes a torn member list.
	v *View
	// retired guards against double-folding; protected by c.shardMu.
	retired bool
}

// Close retires the stream: its counters fold into the cluster's base
// totals and its shard is released. The stream must not be used again.
// Safe to call more than once.
func (s *Stream) Close() { s.c.retire(s) }

// BackupItem feeds one backup item into this stream's pipeline.
func (s *Stream) BackupItem(fileID uint64, refs []core.ChunkRef) error {
	s.ctr.files.Add(1)
	s.v = s.c.view.Load()

	fileScoped := s.c.cfg.Scheme == router.ExtremeBinning && fileID != 0
	var fileMin fingerprint.Fingerprint
	if fileScoped {
		// Extreme Binning routes whole files by the file's minimum chunk
		// fingerprint; super-chunks must not span files.
		for i, r := range refs {
			if i == 0 || r.FP.Less(fileMin) {
				fileMin = r.FP
			}
		}
	}
	s.part.SetFileID(fileID)
	for _, r := range refs {
		s.ctr.logicalBytes.Add(int64(r.Size))
		if sc := s.part.AddRef(r); sc != nil {
			sc.FileMinFP = fileMin
			if err := s.routeAndStore(sc); err != nil {
				return err
			}
		}
	}
	if fileScoped {
		if sc := s.part.Flush(); sc != nil {
			sc.FileMinFP = fileMin
			if err := s.routeAndStore(sc); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush routes the stream's final partial super-chunk. It does not seal
// node containers; Cluster.Flush does that once per session.
func (s *Stream) Flush() error {
	s.v = s.c.view.Load()
	if sc := s.part.Flush(); sc != nil {
		return s.routeAndStore(sc)
	}
	return nil
}

func (s *Stream) routeAndStore(sc *core.SuperChunk) error {
	c := s.c
	d := c.rt.Route(sc, s.v)
	s.ctr.superChunks.Add(1)
	s.ctr.preRoutingMsgs.Add(d.PreRoutingMsgs)
	s.ctr.bidsSent.Add(d.BidsSent)
	if d.SummaryChecks != 0 {
		s.ctr.summaryChecks.Add(d.SummaryChecks)
		s.ctr.summaryHits.Add(d.SummaryHits)
		s.ctr.summaryFalsePos.Add(d.SummaryFalsePos)
	}
	for _, a := range d.Assignments {
		target := sc
		if a.Chunks != nil {
			target = &core.SuperChunk{FileID: sc.FileID, FileMinFP: sc.FileMinFP}
			for _, i := range a.Chunks {
				target.Chunks = append(target.Chunks, sc.Chunks[i])
			}
		}
		// After-routing: the batched fingerprint query carries one lookup
		// per chunk to the target node. Stores serialize per node (inside
		// node.Node); different nodes store in parallel, and routing bids
		// read node state lock-free.
		s.ctr.afterRoutingMsgs.Add(int64(len(target.Chunks)))
		nd := s.v.Nodes[a.Node]
		if nd == nil {
			return fmt.Errorf("cluster: no node %d: %w", a.Node, sderr.ErrNotFound)
		}
		var err error
		if c.cfg.Scheme == router.ExtremeBinning && !sc.FileMinFP.IsZero() {
			// Extreme Binning dedups the file only against its bin.
			_, err = nd.StoreFileInBin(s.name, sc.FileMinFP, target)
		} else {
			_, err = nd.StoreSuperChunk(s.name, target)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// retire folds a finished stream's shard into the base totals and drops
// it from the live-shard list. Must only be called when no goroutine
// will write the shard again.
func (c *Cluster) retire(s *Stream) {
	c.shardMu.Lock()
	defer c.shardMu.Unlock()
	if s.retired {
		return
	}
	s.retired = true
	c.base.LogicalBytes += s.ctr.logicalBytes.Load()
	c.base.SuperChunks += s.ctr.superChunks.Load()
	c.base.Files += s.ctr.files.Load()
	c.base.PreRoutingMsgs += s.ctr.preRoutingMsgs.Load()
	c.base.AfterRoutingMsgs += s.ctr.afterRoutingMsgs.Load()
	c.base.BidsSent += s.ctr.bidsSent.Load()
	c.base.SummaryChecks += s.ctr.summaryChecks.Load()
	c.base.SummaryHits += s.ctr.summaryHits.Load()
	c.base.SummaryFalsePos += s.ctr.summaryFalsePos.Load()
	for i, sh := range c.shards {
		if sh == s.ctr {
			c.shards = append(c.shards[:i], c.shards[i+1:]...)
			break
		}
	}
}

// Stats returns a snapshot of cluster counters: the retired-stream base
// plus all live stream shards. The whole sum runs under shardMu so a
// concurrent retire cannot double-count a shard mid-snapshot.
func (c *Cluster) Stats() Stats {
	c.shardMu.Lock()
	defer c.shardMu.Unlock()
	st := c.base
	for _, sh := range c.shards {
		st.LogicalBytes += sh.logicalBytes.Load()
		st.SuperChunks += sh.superChunks.Load()
		st.Files += sh.files.Load()
		st.PreRoutingMsgs += sh.preRoutingMsgs.Load()
		st.AfterRoutingMsgs += sh.afterRoutingMsgs.Load()
		st.BidsSent += sh.bidsSent.Load()
		st.SummaryChecks += sh.summaryChecks.Load()
		st.SummaryHits += sh.summaryHits.Load()
		st.SummaryFalsePos += sh.summaryFalsePos.Load()
	}
	return st
}

// UsageVector returns per-node physical storage usage over the members,
// ascending by node ID.
func (c *Cluster) UsageVector() []int64 {
	nodes := c.liveNodes()
	out := make([]int64, len(nodes))
	for i, n := range nodes {
		out[i] = n.StorageUsage()
	}
	return out
}

// PhysicalBytes returns total stored bytes across nodes.
func (c *Cluster) PhysicalBytes() int64 {
	var total int64
	for _, u := range c.UsageVector() {
		total += u
	}
	return total
}

// DedupRatio returns the cluster-wide deduplication ratio (CDR).
func (c *Cluster) DedupRatio() float64 {
	return metrics.DedupRatio(c.Stats().LogicalBytes, c.PhysicalBytes())
}

// Skew returns σ/α over node storage usage.
func (c *Cluster) Skew() float64 { return metrics.Skew(c.UsageVector()) }

// EDR returns the normalized effective deduplication ratio (Eq. 7) given
// the exact single-node physical size of the same dataset.
func (c *Cluster) EDR(exactPhysical int64) float64 {
	return metrics.EDRFromBytes(c.Stats().LogicalBytes, c.UsageVector(), exactPhysical)
}

// NormalizedDR returns CDR normalized to the exact single-node DR.
func (c *Cluster) NormalizedDR(exactPhysical int64) float64 {
	sdr := metrics.DedupRatio(c.Stats().LogicalBytes, exactPhysical)
	return metrics.NormalizedDR(c.DedupRatio(), sdr)
}

// RestartNode stops node i — sealing its open containers and closing its
// manifest — and re-opens it from its durable directory, replaying the
// manifest to restore the chunk index, similarity index and container
// directory. The node must have been configured with a durable Dir. The
// view is swapped for one referencing the restarted node object, not the
// closed one; the member list is unchanged, so routing behavior is
// identical. Not safe to call while backups are in flight; quiesce
// streams first.
func (c *Cluster) RestartNode(i int) error {
	v := c.view.Load()
	nd := v.Nodes[i]
	if nd == nil {
		return fmt.Errorf("cluster: no node %d: %w", i, sderr.ErrNotFound)
	}
	ncfg := nd.Config()
	if ncfg.Dir == "" {
		return fmt.Errorf("cluster: node %d has no durable dir to restart from", i)
	}
	if err := nd.Close(); err != nil {
		return fmt.Errorf("cluster: stop node %d: %w", i, err)
	}
	ncfg.Recover = true
	n, err := node.New(ncfg)
	if err != nil {
		return fmt.Errorf("cluster: restart node %d: %w", i, err)
	}
	nodes := maps.Clone(v.Nodes)
	nodes[i] = n
	c.view.Store(&View{Members: v.Members, Nodes: nodes})
	return nil
}

// Restart bounces every live node in turn: a full cluster
// stop/restart/restore cycle against durable storage. Same quiescence
// requirement as RestartNode.
func (c *Cluster) Restart() error {
	for _, id := range c.view.Load().Members.Nodes {
		if err := c.RestartNode(id); err != nil {
			return err
		}
	}
	return nil
}

// Close shuts every node of the view down, sealing open containers and
// releasing durable manifests. Durable nodes can be re-opened by a future
// cluster with Node.Recover set. The cluster must not be used afterwards.
func (c *Cluster) Close() error {
	var err error
	for _, n := range c.view.Load().Nodes {
		if cerr := n.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Nodes exposes the members' nodes, ascending by ID (read-only use: stats
// inspection).
func (c *Cluster) Nodes() []*node.Node { return c.liveNodes() }

// exactShards is the stripe count of ExactTracker's seen-set: enough
// that 64 concurrent trace streams rarely collide on a stripe lock.
const exactShards = 64

// ExactTracker computes the exact single-node deduplication physical size
// of a stream (the SDR denominator of the paper's normalized metrics).
// The seen-set is lock-striped by fingerprint and the byte counters are
// atomics, so concurrent streams account without sharing one mutex —
// the tracker sits on every chunk of every stream in the multi-stream
// sweeps.
type ExactTracker struct {
	shards  [exactShards]exactShard
	logical atomic.Int64
	unique  atomic.Int64
}

type exactShard struct {
	mu   sync.Mutex
	seen map[fingerprint.Fingerprint]struct{}
	// pad to a cache line so adjacent stripe locks don't false-share.
	_ [24]byte
}

// NewExactTracker returns an empty tracker.
func NewExactTracker() *ExactTracker {
	e := &ExactTracker{}
	for i := range e.shards {
		e.shards[i].seen = make(map[fingerprint.Fingerprint]struct{})
	}
	return e
}

// Add accounts a stream of chunk references.
func (e *ExactTracker) Add(refs []core.ChunkRef) {
	for _, r := range refs {
		e.AddRef(r)
	}
}

// AddRef accounts a single chunk reference (streaming feed).
func (e *ExactTracker) AddRef(r core.ChunkRef) {
	e.logical.Add(int64(r.Size))
	sh := &e.shards[r.FP.Uint64()%exactShards]
	sh.mu.Lock()
	_, ok := sh.seen[r.FP]
	if !ok {
		sh.seen[r.FP] = struct{}{}
	}
	sh.mu.Unlock()
	if !ok {
		e.unique.Add(int64(r.Size))
	}
}

// Physical returns the exact-dedup physical size.
func (e *ExactTracker) Physical() int64 { return e.unique.Load() }

// Logical returns the logical size accounted.
func (e *ExactTracker) Logical() int64 { return e.logical.Load() }

// SDR returns the exact single-node deduplication ratio.
func (e *ExactTracker) SDR() float64 {
	return metrics.DedupRatio(e.Logical(), e.Physical())
}
