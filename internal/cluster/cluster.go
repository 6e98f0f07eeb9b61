// Package cluster is the replay rig of the paper's inter-node experiments
// (§4.4): N emulated deduplication nodes — each a full independent set of
// fingerprint lookup structures (similarity index, fingerprint cache,
// chunk index, container store) — the in-RAM director, and one routing
// scheme: the paper's Σ-Dedupe or one of the four baselines it is
// evaluated against.
//
// Nothing here routes or stores. A trace replay (Replay) runs every
// stream through an ingest.Session, the backup path both backends ship,
// entering at its pre-fingerprinted door (BackupRefs) with the chosen
// router; message accounting (Fig. 7) is the sessions' ingest.Stats and
// the exact-dedup baseline of the normalized ratios is the director's
// catalog. The public simulator backend shares only the per-node
// configuration rule (NewNode) and the in-process router view (View).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/ingest"
	"sigmadedupe/internal/metrics"
	"sigmadedupe/internal/migrate"
	"sigmadedupe/internal/node"
	"sigmadedupe/internal/router"
	"sigmadedupe/internal/store"
	"sigmadedupe/internal/workload"
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
	// BidSummaries routes bids through each node's compact Bloom summary
	// of its similarity index (Sigma and Stateful schemes). Summaries
	// are cheap enough to probe for every live node, so Sigma upgrades
	// from bidding at its rendezvous candidates to global discovery: it
	// bids at every summary-positive node in the cluster (equivalent to
	// full one-to-all bidding, since summaries have no false negatives)
	// while sending only O(1) expected bid messages per super-chunk at
	// 64–128 nodes, and keeps the rendezvous candidates as the
	// least-loaded fallback pool. This both collapses fan-out cost and
	// recovers dedup lost to candidate-set churn as N grows. The session
	// counters gain the summary probes.
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

// Cluster is a simulated deduplication cluster: the node objects, the
// router and the in-RAM director. Its member list is fixed at cfg.N.
type Cluster struct {
	cfg Config
	rt  router.Router

	// view is the node set replays route over and the usage readers see.
	// It never changes, so bids, usage reads and stats take no lock: at
	// 128 nodes × 64 streams that keeps the per-super-chunk bid fan-out
	// off a shared mutex.
	view *View

	// dir is the cluster's metadata plane: an in-RAM director holding the
	// recipes of replayed items. It never fsyncs.
	dir *director.Director

	// items numbers replayed items, so no replay supersedes — and so
	// releases — what an earlier one stored.
	items atomic.Int64
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
		r.UseSummaries = cfg.BidSummaries
	case *router.StatefulRouter:
		r.UseSummaries = cfg.BidSummaries
	}
	tmpl := cfg.Node
	tmpl.HandprintSize = cfg.HandprintK
	nodes := make(map[int]*node.Node, cfg.N)
	for i := 0; i < cfg.N; i++ {
		if nodes[i], err = NewNode(tmpl, i); err != nil {
			return nil, err
		}
	}
	return &Cluster{cfg: cfg, rt: rt, dir: director.New(), view: &View{Members: core.DenseMembership(cfg.N), Nodes: nodes}}, nil
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

// NewNode builds member id of a cluster from the per-node template tmpl:
// ID is overridden, and a durable node owns subdirectory nodeNN of
// tmpl.Dir, so container files and manifests never collide and a node
// restarts independently.
func NewNode(tmpl node.Config, id int) (*node.Node, error) {
	tmpl.ID = id
	if tmpl.Dir != "" {
		tmpl.Dir = filepath.Join(tmpl.Dir, fmt.Sprintf("node%02d", id))
	}
	n, err := node.New(tmpl)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return n, nil
}

// View returns the node set replays route over.
func (c *Cluster) View() *View { return c.view }

// Director returns the cluster's metadata plane (see Cluster.dir).
func (c *Cluster) Director() *director.Director { return c.dir }

// Node resolves a node of the view to its in-process transport (the
// migrate.Engine.Nodes shape); false for a node outside it.
func (c *Cluster) Node(id int) (migrate.Node, bool) {
	n := c.view.Nodes[id]
	if n == nil {
		return nil, false
	}
	return migrate.Local(n), true
}

// Scheme returns the active routing scheme name.
func (c *Cluster) Scheme() string { return c.rt.Name() }

// Trace is one backup stream of a replay: it calls yield once per file,
// in stream order, with the file's identity (0 when the trace carries no
// file metadata) and its fingerprinted chunks. yield does not retain refs.
type Trace func(yield func(fileID uint64, refs []core.ChunkRef) error) error

// Workload is the trace of a generated dataset, fingerprinted through
// corpus.
func Workload(g workload.Generator, corpus *workload.Corpus) Trace {
	return func(yield func(uint64, []core.ChunkRef) error) error {
		return g.Items(func(it workload.Item) error { return yield(it.FileID, corpus.ChunkRefs(it, false)) })
	}
}

// Replay runs every stream through its own ingest session — named by its
// key, which attributes its containers on the nodes — concurrently, and
// returns the sessions' summed counters once each has flushed.
//
// A stream is one backup item, so its super-chunks span files as the
// paper's trace feed does; under Extreme Binning, which routes whole
// files, every file is an item of its own. Sessions keep one super-chunk
// in flight, so a stream's n+1st is routed only once its nth is stored:
// placement is sequential and deterministic. The first stream to fail
// cancels the others.
func (c *Cluster) Replay(ctx context.Context, streams map[string]Trace) (ingest.Stats, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total ingest.Stats
		first error
	)
	for name, tr := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := c.replay(ctx, name, tr)
			mu.Lock()
			defer mu.Unlock()
			total.LogicalBytes += st.LogicalBytes
			total.TransferredBytes += st.TransferredBytes
			total.SuperChunks += st.SuperChunks
			total.Files += st.Files
			total.PreRoutingMsgs += st.PreRoutingMsgs
			total.AfterRoutingMsgs += st.AfterRoutingMsgs
			total.BidsSent += st.BidsSent
			total.SummaryChecks += st.SummaryChecks
			total.SummaryHits += st.SummaryHits
			total.SummaryFalsePos += st.SummaryFalsePos
			if err != nil && first == nil {
				first = err
				cancel()
			}
		}()
	}
	wg.Wait()
	return total, first
}

// replay is one stream of Replay.
func (c *Cluster) replay(ctx context.Context, name string, tr Trace) (ingest.Stats, error) {
	nodeOf := c.Node
	if c.cfg.Scheme == router.ExtremeBinning {
		nodeOf = c.binNode
	}
	s, err := ingest.New(ctx, ingest.Config{
		Name:           name,
		SuperChunkSize: c.cfg.SuperChunkSize,
		Inflight:       1,
		Router:         c.rt,
		KeepPayloads:   c.cfg.Node.KeepPayloads,
		Pin: func(context.Context) (ingest.Epoch, error) {
			return ingest.Epoch{View: func() router.View { return c.view }, Node: nodeOf, Release: func() {}}, nil
		},
	}, c.dir)
	if err != nil {
		return ingest.Stats{}, err
	}
	defer s.Close()
	item := func(feed func(yield func([]core.ChunkRef) error) error) error {
		return s.BackupRefs(ctx, fmt.Sprintf("/%s/%d", name, c.items.Add(1)), feed)
	}
	if c.cfg.Scheme == router.ExtremeBinning {
		err = tr(func(fileID uint64, refs []core.ChunkRef) error {
			if fileID == 0 {
				return errNoFiles
			}
			return item(func(yield func([]core.ChunkRef) error) error { return yield(refs) })
		})
	} else {
		err = item(func(yield func([]core.ChunkRef) error) error {
			return tr(func(_ uint64, refs []core.ChunkRef) error { return yield(refs) })
		})
	}
	if err == nil {
		err = s.Flush(ctx)
	}
	return s.Stats(), err
}

var errNoFiles = errors.New("cluster: Extreme Binning routes files, and the trace carries no file identities")

// binNode resolves a node to Extreme Binning's bin store: a super-chunk
// dedups only against the bin of its file's representative fingerprint,
// which bins hold without references.
func (c *Cluster) binNode(id int) (migrate.Node, bool) {
	n := c.view.Nodes[id]
	if n == nil {
		return nil, false
	}
	return binStore{migrate.Local(n), n.Engine()}, true
}

type binStore struct {
	migrate.Node
	eng *store.Engine
}

// Dedup reports no fresh slice: every chunk counts as transferred, and
// the bin took no reference an abort would have to release.
func (b binStore) Dedup(_ context.Context, stream string, sc *core.SuperChunk, _ core.Handprint, _ bool) ([]bool, error) {
	_, err := b.eng.StoreFileInBin(stream, sc.FileMinFP, sc)
	return nil, err
}

// UsageVector returns per-node physical storage usage over the members,
// ascending by node ID.
func (c *Cluster) UsageVector() []int64 {
	nodes := c.Nodes()
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

// DedupRatio returns the cluster-wide deduplication ratio (CDR) of
// logical bytes replayed.
func (c *Cluster) DedupRatio(logical int64) float64 {
	return metrics.DedupRatio(logical, c.PhysicalBytes())
}

// Skew returns σ/α over node storage usage.
func (c *Cluster) Skew() float64 { return metrics.Skew(c.UsageVector()) }

// NormalizedDR returns the cluster DR normalized to exact single-node
// dedup of the same data (CDR/SDR, where the logical bytes cancel): the
// bytes of the live catalog's distinct fingerprints over the bytes
// stored.
func (c *Cluster) NormalizedDR() float64 {
	recipes, _ := c.dir.Recipes(context.Background()) // an in-RAM director cannot fail it
	return metrics.DedupRatio(director.UniqueBytes(recipes), c.PhysicalBytes())
}

// EDR returns the normalized effective deduplication ratio (Eq. 7):
// NormalizedDR × α/(α+σ) over node storage usage.
func (c *Cluster) EDR() float64 { return c.NormalizedDR() / (1 + c.Skew()) }

// Close shuts every node down, sealing open containers and releasing
// durable manifests. The cluster must not be used afterwards.
func (c *Cluster) Close() error {
	var err error
	for _, n := range c.view.Nodes {
		if cerr := n.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Nodes lists the members' nodes, ascending by ID.
func (c *Cluster) Nodes() []*node.Node {
	out := make([]*node.Node, 0, c.view.Members.Len())
	for _, id := range c.view.Members.Nodes {
		out = append(out, c.view.Nodes[id])
	}
	return out
}
