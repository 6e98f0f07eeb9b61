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
// transport (Node), routing against an epoch pinned per item (Pin);
// their recipes, like the tenant table and the journal of open migration
// transactions, live in the cluster's in-RAM director — the same
// director.Director the prototype talks to — and everything that reads
// them (restore, delete, compaction, migration, repair) is package
// migrate's code over that transport. What is left here is trace
// driving, message counting and the simulation of membership epochs.
package cluster

import (
	"fmt"
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
	// Replicas >= 2 enables R=2 replica placement: every routed
	// super-chunk of a named backup is also stored on the rendezvous
	// replica owner of its first fingerprint (ReplicateRun), restores fail
	// over to the replica when the primary is gone, and Repair re-converges
	// placement after a node crash. Requires the Sigma scheme and
	// payload-carrying nodes (New rejects anything else). The default (0)
	// keeps the single-copy behavior.
	Replicas int
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

// Cluster is a simulated deduplication cluster. The node set is
// elastic: AddNode/RemoveNode commit membership epochs, node IDs are
// stable for a node's lifetime, and every backup item pins the epoch it
// started on so routing never observes a torn member list.
type Cluster struct {
	cfg Config
	rt  router.Router

	// memberMu guards the canonical node registry and serializes
	// membership mutations. The routing/stats hot paths do NOT take it:
	// they read the current epochState snapshot through cur. Store-path
	// node resolution (nodeByID) still reads the registry under the read
	// lock so a killed node fails loudly instead of accepting writes
	// through a stale snapshot.
	memberMu sync.RWMutex
	nodes    map[int]*node.Node
	maxID    int
	// cur is the current epoch snapshot. Mutations build a fresh
	// epochState and swap the pointer; readers (bids, usage, stats,
	// stream pins) load it without any lock. At 128 nodes × 64 streams
	// this is what keeps the per-super-chunk bid fan-out and the
	// per-item epoch pinning off a shared mutex.
	cur atomic.Pointer[epochState]
	// epochs is the commit history still potentially pinned by in-flight
	// items (guarded by memberMu; pruned by waitEpochQuiesce).
	epochs []*epochState

	// dir is the cluster's metadata plane: an in-RAM director holding the
	// recipes of named backups, the tenant table and the journal of open
	// migration/replication transactions — the migration engine's catalog.
	// It never fsyncs and lives exactly as long as the Cluster, so node
	// restarts (RestartNode, Restart) keep it.
	dir          *director.Director
	migrateFault migrate.Fault

	shardMu sync.Mutex
	shards  []*shard
	// base accumulates the counters of retired streams, so a long-lived
	// cluster replaying many stream batches does not grow shards without
	// bound.
	base Stats

	// def is the default stream backing the single-stream BackupItem API.
	def *Stream
}

// epochState is one committed membership epoch: the member list plus an
// immutable snapshot of the node objects live in it. Streams pin the
// state for the duration of one backup item by bumping uses; membership
// changes swap in a new state and wait out the old one's uses — the
// same grace period the epochUses map used to provide, without a write
// lock per backup item.
type epochState struct {
	members core.Membership
	// nodes maps the epoch's member IDs to their node objects. The map
	// is never mutated after commit, so pinned views read it lock-free.
	nodes map[int]*node.Node
	// uses counts backup items currently pinned to this epoch.
	uses atomic.Int64
}

// commitEpochLocked snapshots the registry for membership m, makes it
// the current epoch and appends it to the pin history. Caller holds
// memberMu (write).
func (c *Cluster) commitEpochLocked(m core.Membership) {
	snap := make(map[int]*node.Node, m.Len())
	for _, id := range m.Nodes {
		snap[id] = c.nodes[id]
	}
	st := &epochState{members: m, nodes: snap}
	c.epochs = append(c.epochs, st)
	c.cur.Store(st)
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
	if cfg.Replicas >= 2 {
		// Replication runs on the migration engine and needs what it needs.
		if err := (&Cluster{cfg: cfg, rt: rt}).elasticGuard(true); err != nil {
			return nil, fmt.Errorf("cluster: Replicas=%d: %w", cfg.Replicas, err)
		}
	}
	nodes := make(map[int]*node.Node, cfg.N)
	for i := 0; i < cfg.N; i++ {
		n, err := newClusterNode(cfg, i)
		if err != nil {
			return nil, err
		}
		nodes[i] = n
	}
	c := &Cluster{cfg: cfg, nodes: nodes, maxID: cfg.N - 1, rt: rt, dir: director.New()}
	c.commitEpochLocked(core.DenseMembership(cfg.N))
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

// pinnedView is the cluster's router view pinned to one membership
// epoch: bids and usage reads are live node state, but the member list
// — and with it the candidate set — is the one the backup item started
// on. All reads go through the epoch's immutable node snapshot, so a
// routing decision takes no cluster-wide lock at all; only the store
// path resolves nodes through the registry (nodeByID), where a killed
// node must fail loudly.
type pinnedView struct {
	st *epochState
}

var (
	_ router.View        = pinnedView{}
	_ router.SummaryView = pinnedView{}
)

func (v pinnedView) N() int { return v.st.members.Len() }

func (v pinnedView) Membership() core.Membership { return v.st.members }

// BidHandprint implements router.View against the pinned epoch. A node
// that has since been killed still answers from its frozen in-RAM index
// (engine state stays readable after Close); the store path is where a
// dead node fails.
func (v pinnedView) BidHandprint(nodeID int, hp core.Handprint) int {
	n := v.st.nodes[nodeID]
	if n == nil {
		return 0
	}
	return n.CountHandprintMatches(hp)
}

// BidChunks implements router.View against the pinned epoch.
func (v pinnedView) BidChunks(nodeID int, fps []fingerprint.Fingerprint) int {
	n := v.st.nodes[nodeID]
	if n == nil {
		return 0
	}
	return n.CountStoredChunks(fps)
}

// Usage implements router.View against the pinned epoch.
func (v pinnedView) Usage(nodeID int) int64 {
	n := v.st.nodes[nodeID]
	if n == nil {
		return 0
	}
	return n.StorageUsage()
}

// SummaryMayContain implements router.SummaryView against the pinned
// epoch: the node's bid summary answers whether any RFP of hp may be in
// its similarity index.
func (v pinnedView) SummaryMayContain(nodeID int, hp core.Handprint) bool {
	n := v.st.nodes[nodeID]
	if n == nil {
		return false
	}
	return n.SummaryMayContain(hp)
}

// newClusterNode builds one node from the cluster template. Each
// durable node owns a subdirectory so container files and manifests
// never collide and a node restarts independently.
func newClusterNode(cfg Config, id int) (*node.Node, error) {
	ncfg := cfg.Node
	ncfg.ID = id
	ncfg.HandprintSize = cfg.HandprintK
	if ncfg.Dir != "" {
		ncfg.Dir = filepath.Join(cfg.Node.Dir, fmt.Sprintf("node%02d", id))
	}
	n, err := node.New(ncfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return n, nil
}

// nodeByID returns a live node by its cluster ID.
func (c *Cluster) nodeByID(id int) (*node.Node, error) {
	c.memberMu.RLock()
	n := c.nodes[id]
	c.memberMu.RUnlock()
	if n == nil {
		return nil, fmt.Errorf("cluster: no node %d in the current epoch: %w", id, sderr.ErrNotFound)
	}
	return n, nil
}

// N is the live node count of the current epoch.
func (c *Cluster) N() int {
	return c.cur.Load().members.Len()
}

// Membership is the current epoch's live node set.
func (c *Cluster) Membership() core.Membership {
	return c.cur.Load().members
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

// liveNodes snapshots the live nodes of the current epoch, ascending by
// ID — lock-free through the epoch snapshot, so stats readers
// (UsageVector, Skew) never contend with membership or ingest locks.
func (c *Cluster) liveNodes() []*node.Node {
	st := c.cur.Load()
	out := make([]*node.Node, 0, st.members.Len())
	for _, id := range st.members.Nodes {
		out = append(out, st.nodes[id])
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
	// st is the epoch snapshot this stream routes against, re-pinned at
	// every item boundary: a backup item never observes a torn member
	// list, and a membership change becomes visible to the stream at
	// its next item. While an item is in flight the snapshot's use
	// count is held, so RemoveNode can wait out every item that could
	// still store to the departing node.
	st *epochState
	// retired guards against double-folding; protected by c.shardMu.
	retired bool
}

// pin registers one in-flight backup item against the current epoch and
// returns it. Lock-free: one atomic increment plus a validation reload.
func (c *Cluster) pin() *epochState {
	for {
		st := c.cur.Load()
		st.uses.Add(1)
		// Validate after the increment: a membership change that swapped
		// the current epoch between our load and increment may already
		// have scanned this state's uses and moved on, so the pin isn't
		// protected — drop it and pin the new epoch instead. Once the
		// reload still shows st, the increment happened-before any later
		// swap, and the change's grace period will observe it.
		if c.cur.Load() == st {
			return st
		}
		st.uses.Add(-1)
	}
}

// Pin pins the current epoch for one backup item of an ingest session:
// the router view of that epoch, and the release to call once the item's
// recipe is in the director (or the item was aborted and released).
// Until then a RemoveNode waits, so its drain finds everything the item
// stored.
func (c *Cluster) Pin() (router.View, func()) {
	st := c.pin()
	return pinnedView{st: st}, func() { st.uses.Add(-1) }
}

// Router returns the cluster's routing scheme instance.
func (c *Cluster) Router() router.Router { return c.rt }

// acquirePin re-pins the stream to the current epoch and registers the
// in-flight item against it.
func (s *Stream) acquirePin() {
	s.releasePin()
	s.st = s.c.pin()
}

// releasePin deregisters the stream's in-flight item (item boundary or
// abort).
func (s *Stream) releasePin() {
	if s.st == nil {
		return
	}
	s.st.uses.Add(-1)
	s.st = nil
}

// Close retires the stream: its counters fold into the cluster's base
// totals, its shard is released, and any still-held epoch pin is
// dropped (an abandoned item must not stall RemoveNode's grace period
// forever). The stream must not be used again. Safe to call more than
// once.
func (s *Stream) Close() {
	s.releasePin()
	s.c.retire(s)
}

// BackupItem feeds one backup item into this stream's pipeline.
func (s *Stream) BackupItem(fileID uint64, refs []core.ChunkRef) error {
	s.ctr.files.Add(1)
	s.acquirePin()
	defer s.releasePin()

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
	s.acquirePin()
	defer s.releasePin()
	if sc := s.part.Flush(); sc != nil {
		return s.routeAndStore(sc)
	}
	return nil
}

func (s *Stream) routeAndStore(sc *core.SuperChunk) error {
	c := s.c
	d := c.rt.Route(sc, pinnedView{st: s.st})
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
		nd, err := c.nodeByID(a.Node)
		if err != nil {
			return err
		}
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

// UsageVector returns per-node physical storage usage over the live
// members of the current epoch, ascending by node ID.
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
// directory. The node must have been configured with a durable Dir. Not
// safe to call while backups are in flight; quiesce streams first.
func (c *Cluster) RestartNode(i int) error {
	nd, err := c.nodeByID(i)
	if err != nil {
		return err
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
	c.memberMu.Lock()
	c.nodes[i] = n
	// Re-commit the current membership so the epoch snapshot references
	// the restarted node object, not the closed one. The member list and
	// epoch number are unchanged — only the snapshot refreshes — so
	// routing behavior (candidate widths are epoch-driven) is identical.
	c.commitEpochLocked(c.cur.Load().members)
	c.memberMu.Unlock()
	return nil
}

// Restart bounces every live node in turn: a full cluster
// stop/restart/restore cycle against durable storage. Same quiescence
// requirement as RestartNode.
func (c *Cluster) Restart() error {
	for _, id := range c.Membership().Nodes {
		if err := c.RestartNode(id); err != nil {
			return err
		}
	}
	return nil
}

// Close shuts every node down, sealing open containers and releasing
// durable manifests. Durable nodes can be re-opened by a future cluster
// with Node.Recover set. The cluster must not be used afterwards.
func (c *Cluster) Close() error {
	var err error
	for _, n := range c.liveNodes() {
		if cerr := n.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Nodes exposes the live nodes of the current epoch, ascending by ID
// (read-only use: stats inspection).
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
