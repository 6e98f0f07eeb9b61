// Package sigmadedupe is a from-scratch Go implementation of Σ-Dedupe, the
// scalable inline cluster deduplication framework of Fu, Jiang and Xiao
// (MIDDLEWARE 2012). It provides:
//
//   - One Backend surface: the in-process simulator (Cluster) and the TCP
//     prototype (Remote) implement the same context-first
//     Backup/Restore/Delete/Compact/Stats contract, with streaming
//     Sessions whose peak buffered payload is bounded by the in-flight
//     super-chunk window, never by stream size.
//   - Simulator: an in-process deduplication cluster with the paper's
//     similarity-based stateful routing (Algorithm 1) and
//     fingerprint-lookup message accounting.
//   - Prototype: a real TCP client/server/director deployment
//     (StartServer, NewRemote, NewDirector) performing source inline
//     deduplication with batched, pipelined, cancelable RPC.
//   - Workloads: seeded synthetic stand-ins for the paper's four
//     evaluation datasets (Linux, VM, Mail, Web), calibrated to Table 2.
//   - Experiments: regeneration of every table and figure of the paper's
//     evaluation (RunExperiment) — trace replays through the same ingest
//     session, with the baseline schemes (EMC Stateless/Stateful, Extreme
//     Binning, chunk-level DHT) as the routers they compare.
//
// Errors are typed end to end: errors.Is(err, ErrNotFound) (and the rest
// of the taxonomy in errors.go) holds across the TCP wire. See DESIGN.md
// for the system inventory and README.md for the quickstart.
package sigmadedupe

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"time"

	"sigmadedupe/internal/cluster"
	"sigmadedupe/internal/container"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/experiments"
	"sigmadedupe/internal/ingest"
	"sigmadedupe/internal/metrics"
	"sigmadedupe/internal/migrate"
	"sigmadedupe/internal/router"
	"sigmadedupe/internal/rpc"
	"sigmadedupe/internal/store"
	"sigmadedupe/internal/tenant"
	"sigmadedupe/internal/workload"
)

// Scheme names the routing of a simulated cluster. A Backend routes by
// Σ-Dedupe's similarity bids only; the baselines the paper compares it
// with (Stateless, Stateful, Extreme Binning, chunk-level DHT) run in the
// experiments (RunExperiment, cmd/sigma-bench). The type stays so that
// configurations naming SchemeSigma keep compiling.
type Scheme int

// SchemeSigma is the paper's similarity-based stateful routing.
const SchemeSigma Scheme = 1

// ClusterConfig parameterizes a simulated deduplication cluster.
type ClusterConfig struct {
	// Nodes is the cluster size (default 1).
	Nodes int
	// Scheme must be 0 or SchemeSigma, the one routing a Backend runs;
	// NewCluster rejects anything else with errors.ErrUnsupported. Scheme
	// comparisons run through RunExperiment or cmd/sigma-bench.
	Scheme Scheme
	// HandprintSize is k, the representative fingerprints per super-chunk
	// (default 8, the paper's choice).
	HandprintSize int
	// SuperChunkSize is the routing granularity in bytes (default 1MB).
	SuperChunkSize int64
	// ChunkSize is the default chunk size in bytes (default 4KB). Per
	// session, WithChunkSpec overrides both size and algorithm.
	ChunkSize int
	// Dir, when set, makes every node durable: each gets its own
	// subdirectory for spilled containers and a recovery manifest, and
	// RestartNode can bounce it.
	Dir string
	// KeepPayloads retains chunk payloads on the simulated nodes. Dedup
	// accounting does not need them, but Restore and compaction do: only
	// a payload-carrying cluster can stream backups back or physically
	// rewrite containers after Delete.
	KeepPayloads bool
	// CompactEvery, when positive, runs a background compactor on every
	// node, rewriting containers whose live-chunk ratio fell below
	// CompactThreshold. Zero leaves compaction manual (Compact).
	CompactEvery time.Duration
	// CompactThreshold is the live-ratio floor below which a container is
	// rewritten (default 0.5).
	CompactThreshold float64
	// Fingerprint selects the chunk fingerprint hash (default
	// FingerprintSHA1; FingerprintSHA256 is faster on CPUs with SHA
	// extensions).
	Fingerprint FingerprintAlgorithm
	// Replicas ≥ 2 keeps a second copy of every super-chunk, written as it
	// is routed (on the bids' runner-up, else the rendezvous replica
	// owner) and named in its backup's recipe at commit, so one node can
	// crash without losing a byte: restores fail over to the replica and
	// Repair re-establishes R=2. Requires KeepPayloads (or Dir) —
	// NewCluster rejects anything else — and at least two nodes; 0 or 1
	// keeps the single-copy behavior. Values above 2 are capped at 2.
	Replicas int
	// IngestCapacityBytes, when positive, bounds the payload bytes
	// concurrently inside the routing stage across all sessions; the
	// weighted-fair scheduler splits that capacity between tenants by
	// their weights, so N concurrent tenant sessions share ingest
	// bandwidth proportionally instead of racing. 0 disables scheduling.
	IngestCapacityBytes int64
}

// ClusterStats reports the simulator-specific effectiveness metrics of
// the paper's evaluation (SimStats).
type ClusterStats struct {
	LogicalBytes       int64
	PhysicalBytes      int64
	SuperChunks        int64
	DedupRatio         float64
	NormalizedDR       float64 // exact-dedup bytes of the live catalog / PhysicalBytes
	EffectiveDR        float64 // Eq. 7: normalized DR x balance penalty
	StorageSkew        float64 // sigma/alpha over node usage
	FingerprintLookups int64   // total fingerprint-lookup messages
}

// Cluster is the simulated inline deduplication cluster, one of the two
// Backend deployments: the one backend (plane) over in-process nodes and
// an in-RAM director. The one-shot Backup/Restore/Delete verbs run on an
// implicit default stream (single-goroutine, like a real backup stream);
// concurrent streams go through NewSession.
type Cluster struct {
	plane
	// node is the per-node configuration template (cluster.NewNode).
	node store.Config
	// shared resolves a node through the current snapshot's shared
	// handles: one joined since an item's pin resolves, a killed one does
	// not — it fails loudly instead of accepting writes through a stale
	// snapshot.
	shared func(id int) (migrate.Node, bool)
}

// NewCluster builds a simulated cluster. Backups fed through Backup or a
// Session are recipe-tracked, so Delete can retire them, Restore can
// stream them back (with KeepPayloads), and Compact can reclaim their
// container space.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 4096
	}
	if cfg.Scheme != 0 && cfg.Scheme != SchemeSigma {
		return nil, fmt.Errorf("sigmadedupe: ClusterConfig.Scheme %d: a Backend routes by SchemeSigma only; compare schemes with RunExperiment: %w",
			cfg.Scheme, errors.ErrUnsupported)
	}
	c := &Cluster{node: store.Config{
		HandprintSize:    cfg.HandprintSize,
		Dir:              cfg.Dir,
		KeepPayloads:     cfg.KeepPayloads,
		CompactEvery:     cfg.CompactEvery,
		CompactThreshold: cfg.CompactThreshold,
	}}
	c.shared = func(id int) (migrate.Node, bool) { return c.cur.Load().resolve(id) }
	c.plane = plane{
		t:         c,
		payloads:  cfg.KeepPayloads || cfg.Dir != "",
		replicas:  cfg.Replicas,
		name:      "client0", // the experiments' stream name: one-shot backups keep their container attribution
		algorithm: cfg.Fingerprint.internal(),
		defaults: sessionConfig{
			chunk:          ChunkSpec{Method: ChunkFixed, Size: cfg.ChunkSize},
			superChunkSize: cfg.SuperChunkSize,
			handprintK:     cfg.HandprintSize,
		},
		ahead:    ingest.DefaultInflight,
		sessions: make(map[*ingest.Session]io.Closer),
	}
	if cfg.Replicas >= 2 {
		// The replica is written from the payloads and Repair rewrites it.
		if err := c.elasticGuard(); err != nil {
			return nil, fmt.Errorf("sigmadedupe: Replicas=%d: %w", cfg.Replicas, err)
		}
	}
	// The in-RAM director never fsyncs and lives as long as the Cluster,
	// so node restarts keep it.
	dir := director.New()
	c.meta, c.tenants, c.clusterMeta = dir, dir, dir
	if cfg.IngestCapacityBytes > 0 {
		c.sched = tenant.NewScheduler(cfg.IngestCapacityBytes, c.weight)
	}
	// The simulator commits its epochs in its director like the prototype.
	nodes := make(map[int]*member, cfg.Nodes)
	for id := range cfg.Nodes {
		m, err := c.join(id, "", nil)
		if err != nil {
			return nil, err
		}
		nodes[id] = m
	}
	c.nextID = cfg.Nodes
	if err := c.setMembers(context.Background(), nodes); err != nil {
		return nil, err
	}
	return c, nil
}

// localMember wraps an in-process node as a registry member, born open.
func localMember(n *store.Engine) *member {
	return &member{id: n.Config().ID, local: n, node: migrate.Local(n)}
}

// join implements transport: a fresh in-process node.
func (c *Cluster) join(id int, addr string, _ map[int]*member) (*member, error) {
	if addr != "" {
		return nil, fmt.Errorf("sigmadedupe: the simulator creates nodes in process; addr must be empty")
	}
	n, err := cluster.NewNode(c.node, id)
	if err != nil {
		return nil, err
	}
	return localMember(n), nil
}

// open implements transport; in-process handles are born open.
func (c *Cluster) open(_ context.Context, m *member) (migrate.Node, error) { return m.node, nil }

// committed implements transport: the snapshot's router view is the
// in-process one — bids, chunk-sample bids and summary probes are direct
// calls — built once and shared by every item pinned to the snapshot.
func (c *Cluster) committed(e *epoch) {
	v := &cluster.View{Members: e.members, Nodes: make(map[int]*store.Engine, len(e.nodes))}
	for id, m := range e.nodes {
		v.Nodes[id] = m.local
	}
	e.view = func() router.View { return v }
}

// wire implements transport: sessions share the registry's handles.
func (c *Cluster) wire(_ context.Context, icfg *ingest.Config) (io.Closer, error) {
	icfg.Pin = func(context.Context) (ingest.Epoch, error) {
		e := c.pin()
		return ingest.Epoch{View: e.view, Node: c.shared, Release: e.release}, nil
	}
	return nil, nil
}

// GCResult summarizes one compaction pass across the cluster.
type GCResult struct {
	ContainersScanned int
	ContainersRetired int
	CopiedBytes       int64
	ReclaimedBytes    int64
}

// toGCResult converts the storage engine's compaction summary to the
// public shape (shared by every backend and the server facade).
func toGCResult(res store.CompactResult) GCResult {
	return GCResult{
		ContainersScanned: res.Scanned,
		ContainersRetired: res.Retired,
		CopiedBytes:       res.CopiedBytes,
		ReclaimedBytes:    res.ReclaimedBytes,
	}
}

// GCStats reports the deletion/compaction state of a node, or summed over
// a cluster: stored / live / dead payload bytes, sealed and retired
// containers, bytes reclaimed and rewritten by compaction, and the
// background compactor's failure count with its most recent message — a
// persistently failing compactor (disk full, permission change) is
// visible here instead of silently leaving dead space.
type GCStats = store.GCStats

// GCStats returns the cluster's garbage-collection counters.
func (c *Cluster) GCStats() GCStats {
	st, _ := c.gcStats(context.Background()) // in-process nodes cannot fail it
	return st
}

// Close shuts every node down, releasing durable manifests. A durable
// cluster directory can be re-opened later.
func (c *Cluster) Close() error { return c.plane.close() }

// RecoverMigrations settles migration transactions left pending by a
// crash mid-migration (see plane.RecoverMigrations).
func (c *Cluster) RecoverMigrations() error {
	return c.plane.RecoverMigrations(context.Background())
}

// RestartNode stops node i — sealing its open containers and closing its
// manifest — and re-opens it from its durable directory (requires
// ClusterConfig.Dir), replaying the manifest to restore its chunk index,
// similarity index and container directory. Quiesce backups first.
func (c *Cluster) RestartNode(i int) error {
	c.memberOp.Lock()
	defer c.memberOp.Unlock()
	cur := c.cur.Load()
	m := cur.nodes[i]
	if m == nil {
		return fmt.Errorf("sigmadedupe: no node %d: %w", i, ErrNotFound)
	}
	ncfg := m.local.Config()
	if ncfg.Dir == "" {
		return fmt.Errorf("sigmadedupe: node %d has no durable dir to restart from", i)
	}
	if err := m.local.Close(); err != nil {
		return fmt.Errorf("sigmadedupe: stop node %d: %w", i, err)
	}
	ncfg.Recover = true
	n, err := store.New(ncfg)
	if err != nil {
		return fmt.Errorf("sigmadedupe: restart node %d: %w", i, err)
	}
	// The member list and epoch number are unchanged — only the snapshot
	// refreshes, to hold the restarted node object, not the closed one — so
	// routing behavior (candidate widths are epoch-driven) is identical.
	nodes := maps.Clone(cur.nodes)
	nodes[i] = localMember(n)
	c.commit(cur.members, nodes)
	return nil
}

// Restart bounces every node: a full cluster stop/restart/restore cycle.
func (c *Cluster) Restart() error {
	for id := range c.cur.Load().nodes {
		if err := c.RestartNode(id); err != nil {
			return err
		}
	}
	return nil
}

// SimStats returns the simulator-specific effectiveness metrics of the
// paper's evaluation: normalized and effective dedup ratios, storage
// skew and fingerprint-lookup message counts (Stats serves the
// Backend-portable snapshot). The exact single-node baseline of the
// normalized ratios is the live catalog's, walked once per call: what was
// deleted, superseded or aborted is in neither it nor (once compacted) the
// stored bytes.
func (c *Cluster) SimStats() ClusterStats {
	ctx := context.Background()
	usage, _ := c.usage(ctx)                 // in-process nodes cannot fail it
	recipes, _ := c.clusterMeta.Recipes(ctx) // nor can the in-RAM director
	st, exact := c.counters(), director.UniqueBytes(recipes)
	var physical int64
	for _, u := range usage {
		physical += u
	}
	dr := metrics.DedupRatio(st.logicalBytes, physical)
	return ClusterStats{
		LogicalBytes:       st.logicalBytes,
		PhysicalBytes:      physical,
		SuperChunks:        st.superChunks,
		DedupRatio:         dr,
		NormalizedDR:       metrics.NormalizedDR(dr, metrics.DedupRatio(st.logicalBytes, exact)),
		EffectiveDR:        metrics.EDRFromBytes(st.logicalBytes, usage, exact),
		StorageSkew:        metrics.Skew(usage),
		FingerprintLookups: st.lookups,
	}
}

// Server is a socket-served deduplication server node (TCP, or a Unix
// domain socket via ServerConfig.Addr's "unix:" scheme).
type Server struct {
	inner *rpc.Server
}

// ServerConfig parameterizes a deduplication server node.
type ServerConfig struct {
	// ID is the node's cluster identity.
	ID int
	// Addr is the listen address: TCP ("127.0.0.1:0") by default, or a
	// Unix domain socket when prefixed with "unix:" ("unix:/tmp/n0.sock")
	// — the cheaper transport for co-located deployments.
	Addr string
	// Dir, when set, spills sealed containers to this directory and
	// journals a recovery manifest; otherwise chunk payloads are kept in
	// RAM and the node is not restartable.
	Dir string
	// Recover re-opens the node's durable state from Dir (containers,
	// chunk index, similarity index) instead of starting empty. The
	// server resumes serving everything sealed before the last shutdown.
	Recover bool
	// HandprintSize is k (default 8).
	HandprintSize int
	// CompactEvery, when positive, runs a background compactor on the
	// node, reclaiming the container space of deleted backups whose live
	// ratio fell below CompactThreshold. Zero leaves compaction manual
	// (client-driven Compact).
	CompactEvery time.Duration
	// CompactThreshold is the live-ratio floor below which a container is
	// rewritten (default 0.5).
	CompactThreshold float64
	// ReadCacheBytes is the byte budget of the node's container
	// read-region cache, which serves restore reads of spilled containers
	// (default 64MB). Only meaningful with Dir set.
	ReadCacheBytes int64
}

// StartServer launches a deduplication server node.
func StartServer(cfg ServerConfig) (*Server, error) {
	ncfg := store.Config{
		ID:               cfg.ID,
		HandprintSize:    cfg.HandprintSize,
		KeepPayloads:     true,
		Dir:              cfg.Dir,
		Recover:          cfg.Recover,
		CompactEvery:     cfg.CompactEvery,
		CompactThreshold: cfg.CompactThreshold,
		ReadCacheBytes:   cfg.ReadCacheBytes,
	}
	n, err := store.New(ncfg)
	if err != nil {
		return nil, err
	}
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	srv, err := rpc.NewServer(n, addr)
	if err != nil {
		return nil, err
	}
	return &Server{inner: srv}, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.inner.Addr() }

// Close shuts the server down: the listener stops (canceling every
// in-flight call), then the node seals its open containers and closes
// its manifest, so a durable server can be brought back with
// ServerConfig.Recover.
func (s *Server) Close() error {
	err := s.inner.Close()
	if nerr := s.inner.Node().Close(); err == nil {
		err = nerr
	}
	return err
}

// DedupRatio returns the node's logical/physical ratio so far.
func (s *Server) DedupRatio() float64 { return s.inner.Node().Stats().DedupRatio() }

// StorageUsage returns the node's stored physical bytes.
func (s *Server) StorageUsage() int64 { return s.inner.Node().StorageUsage() }

// Compact runs one compaction scan on the node (≤0 threshold selects the
// configured live-ratio floor) and reports containers retired and bytes
// reclaimed. A canceled ctx stops between containers.
func (s *Server) Compact(ctx context.Context, threshold float64) (GCResult, error) {
	res, err := s.inner.Node().Compact(ctx, threshold)
	return toGCResult(res), err
}

// GCStats returns the node's garbage-collection counters.
func (s *Server) GCStats() GCStats { return s.inner.Node().GCStats() }

// ReadCacheStats reports a node's container read-region cache counters:
// restore reads served from cached container ranges (Hits) versus disk
// (Misses), ranges evicted under the byte budget, current occupancy,
// and the bytes the misses read from container files (ReadBytes).
type ReadCacheStats = container.CacheStats

// ReadCacheStats snapshots the server node's read-region cache counters
// (restore instrumentation; see ServerConfig.ReadCacheBytes).
func (s *Server) ReadCacheStats() ReadCacheStats { return s.inner.Node().ReadCacheStats() }

// Director is the metadata service: backup sessions and file recipes.
type Director = director.Director

// NewDirector creates an empty in-RAM director (recipes do not survive a
// restart; use OpenDirectorAt for a durable one).
func NewDirector() *Director { return director.New() }

// OpenDirectorAt creates a durable director rooted at dir: every recipe
// put and delete is journaled (fsynced), and an existing journal is
// replayed so the recipe catalog — the source of truth for what can be
// restored and what Delete may free — survives restarts.
func OpenDirectorAt(dir string) (*Director, error) { return director.OpenAt(dir) }

// ExperimentOptions tunes experiment cost; zero value = full scale.
type ExperimentOptions = experiments.Options

// RunExperiment regenerates one of the paper's tables or figures and
// prints it to w. See ExperimentNames for valid names.
func RunExperiment(name string, opts ExperimentOptions, w io.Writer) error {
	tab, err := experiments.Run(name, opts)
	if err != nil {
		return err
	}
	tab.Fprint(w)
	return nil
}

// ExperimentNames lists the available experiment names.
func ExperimentNames() []string { return experiments.Names() }

// WorkloadNames lists the Table 2 dataset generators.
func WorkloadNames() []string { return workload.Names() }

// WorkloadFiles invokes yield for every file of the named synthetic
// dataset at the given scale, materializing content. Trace datasets
// (mail, web) yield anonymous segments.
func WorkloadFiles(name string, scale float64, seed int64, yield func(path string, data []byte) error) error {
	g, err := workload.ByName(name, scale, seed)
	if err != nil {
		return err
	}
	return g.Items(func(it workload.Item) error {
		return yield(it.Name, workload.Materialize(it))
	})
}
