// Package sigmadedupe is a from-scratch Go implementation of Σ-Dedupe, the
// scalable inline cluster deduplication framework of Fu, Jiang and Xiao
// (MIDDLEWARE 2012). It provides:
//
//   - One Backend surface: the in-process simulator (Cluster) and the TCP
//     prototype (Remote) implement the same context-first
//     Backup/Restore/Delete/Compact/Stats contract, with streaming
//     Sessions whose peak buffered payload is bounded by the in-flight
//     super-chunk window, never by stream size.
//   - Simulator: a trace-driven deduplication cluster with the paper's
//     similarity-based stateful routing (Algorithm 1) and the baseline
//     schemes (EMC Stateless/Stateful, Extreme Binning, chunk-level DHT),
//     with fingerprint-lookup message accounting.
//   - Prototype: a real TCP client/server/director deployment
//     (StartServer, NewRemote, NewDirector) performing source inline
//     deduplication with batched, pipelined, cancelable RPC.
//   - Workloads: seeded synthetic stand-ins for the paper's four
//     evaluation datasets (Linux, VM, Mail, Web), calibrated to Table 2.
//   - Experiments: regeneration of every table and figure of the paper's
//     evaluation (RunExperiment).
//
// Errors are typed end to end: errors.Is(err, ErrNotFound) (and the rest
// of the taxonomy in errors.go) holds across the TCP wire. See DESIGN.md
// for the system inventory and README.md for the quickstart.
package sigmadedupe

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"sigmadedupe/internal/chunker"
	"sigmadedupe/internal/cluster"
	"sigmadedupe/internal/container"
	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/experiments"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/ingest"
	"sigmadedupe/internal/metrics"
	"sigmadedupe/internal/migrate"
	"sigmadedupe/internal/node"
	"sigmadedupe/internal/router"
	"sigmadedupe/internal/rpc"
	"sigmadedupe/internal/store"
	"sigmadedupe/internal/tenant"
	"sigmadedupe/internal/workload"
)

// Scheme selects a data-routing scheme for the cluster simulator.
type Scheme int

// Routing schemes, as compared in the paper's Table 1 and Fig. 7-8.
const (
	// SchemeSigma is the paper's similarity-based stateful routing.
	SchemeSigma Scheme = iota + 1
	// SchemeStateless is EMC's super-chunk DHT routing.
	SchemeStateless
	// SchemeStateful is EMC's 1-to-all stateful routing.
	SchemeStateful
	// SchemeExtremeBinning is file-similarity bin routing.
	SchemeExtremeBinning
	// SchemeChunkDHT is HYDRAstor-style per-chunk placement.
	SchemeChunkDHT
)

// String returns the scheme name used in reports.
func (s Scheme) String() string { return s.internal().String() }

func (s Scheme) internal() router.Scheme {
	switch s {
	case SchemeStateless:
		return router.Stateless
	case SchemeStateful:
		return router.Stateful
	case SchemeExtremeBinning:
		return router.ExtremeBinning
	case SchemeChunkDHT:
		return router.ChunkDHT
	default:
		return router.Sigma
	}
}

// ClusterConfig parameterizes a simulated deduplication cluster.
type ClusterConfig struct {
	// Nodes is the cluster size (default 1).
	Nodes int
	// Scheme is the routing scheme (default SchemeSigma).
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
	// Replicas ≥ 2 keeps a second copy of every super-chunk on the
	// rendezvous replica owner (the second-highest similarity bid), so
	// one node can crash without losing a byte: restores fail over to
	// the replica and Repair re-establishes R=2. Requires SchemeSigma and
	// KeepPayloads (or Dir) — NewCluster rejects anything else — and at
	// least two nodes; 0 or 1 keeps the single-copy behavior. Values
	// above 2 are capped at 2.
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
	NormalizedDR       float64 // vs exact single-node dedup
	EffectiveDR        float64 // Eq. 7: normalized DR x balance penalty
	StorageSkew        float64 // sigma/alpha over node usage
	FingerprintLookups int64   // total fingerprint-lookup messages
}

// Cluster is the simulated inline deduplication cluster, one of the two
// Backend implementations. The one-shot Backup/Restore/Delete verbs run
// on an implicit default stream (single-goroutine, like a real backup
// stream); concurrent streams go through NewSession.
type Cluster struct {
	plane
	cfg       ClusterConfig
	inner     *cluster.Cluster
	exact     *cluster.ExactTracker
	algorithm fingerprint.Algorithm

	// sched is the weighted-fair ingest scheduler shared by every
	// session (nil when IngestCapacityBytes is 0); it reads tenant
	// weights from the director's registry.
	sched *tenant.Scheduler

	// def is the default session backing the one-shot Backup verb.
	def *ingest.Session

	// live holds the open sessions and routed the folded counters of the
	// closed ones: SimStats and Stats sum the sessions' counters.
	sessMu   sync.Mutex
	live     map[*ingest.Session]struct{}
	routed   simCounters
	sessions atomic.Int64 // names sessions opened without one
}

// simCounters are the session counters the cluster-wide stats sum.
type simCounters struct {
	logicalBytes, superChunks, lookups int64
}

func (a *simCounters) add(st ingest.Stats) {
	a.logicalBytes += st.LogicalBytes
	a.superChunks += st.SuperChunks
	a.lookups += st.PreRoutingMsgs + st.AfterRoutingMsgs
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
	inner, err := cluster.New(cluster.Config{
		N:              cfg.Nodes,
		Scheme:         cfg.Scheme.internal(),
		HandprintK:     cfg.HandprintSize,
		SuperChunkSize: cfg.SuperChunkSize,
		Replicas:       cfg.Replicas,
		Node: node.Config{
			Dir:              cfg.Dir,
			KeepPayloads:     cfg.KeepPayloads,
			CompactEvery:     cfg.CompactEvery,
			CompactThreshold: cfg.CompactThreshold,
		},
	})
	if err != nil {
		return nil, err
	}
	dir, transport := inner.Director(), inner.Node
	c := &Cluster{
		plane: plane{
			meta:    dir,
			tenants: dir,
			live: func(context.Context) ([]int, func(int) (migrate.Node, bool), error) {
				return inner.Membership().Nodes, transport, nil
			},
			ahead: ingest.DefaultInflight,
		},
		cfg:       cfg,
		inner:     inner,
		exact:     cluster.NewExactTracker(),
		algorithm: cfg.Fingerprint.internal(),
		live:      make(map[*ingest.Session]struct{}),
	}
	if cfg.Scheme == SchemeExtremeBinning {
		// EB's bin stores bypass the refcounted chunk index, so an existing
		// backup must not masquerade as ErrNotFound — the operations are
		// unsupported, full stop.
		c.recipeless = fmt.Errorf("sigmadedupe: Restore and Delete are not supported for Extreme Binning (no recipe tracking)")
	}
	if cfg.IngestCapacityBytes > 0 {
		c.sched = tenant.NewScheduler(cfg.IngestCapacityBytes, dir.Registry().Weight)
	}
	// The default session shares the trace feed's default stream name, so
	// one-shot backups keep their container attribution.
	def := c.sessionDefaults()
	def.name = "client0"
	if c.def, err = c.openSession(context.Background(), def); err != nil {
		return nil, err
	}
	return c, nil
}

// sessionDefaults derives the cluster's default session configuration.
func (c *Cluster) sessionDefaults() sessionConfig {
	return sessionConfig{
		chunk:          ChunkSpec{Method: ChunkFixed, Size: c.cfg.ChunkSize},
		superChunkSize: c.cfg.SuperChunkSize,
	}
}

// openSession opens an ingest session over the in-process node transport
// and the cluster's director, with the simulator's three seams: epochs
// pinned through the grace-period protocol, R=2 replicated in hand per
// routed run, and every chunk shown to the exact-dedup tracker.
func (c *Cluster) openSession(ctx context.Context, cfg sessionConfig) (*ingest.Session, error) {
	icfg := cfg.ingest(c.algorithm)
	icfg.Router = c.inner.Router()
	icfg.Scheduler = c.sched
	icfg.KeepPayloads = c.cfg.KeepPayloads || c.cfg.Dir != ""
	icfg.Pin = func(context.Context) (ingest.Epoch, error) {
		view, release := c.inner.Pin()
		return ingest.Epoch{View: func() router.View { return view }, Node: c.inner.Node, Release: release}, nil
	}
	icfg.Observe = c.exact.Add
	if c.cfg.Replicas >= 2 {
		icfg.Replicate.Run = c.inner.ReplicateRun
	}
	s, err := ingest.New(ctx, icfg, c.inner.Director())
	if err != nil {
		return nil, err
	}
	c.sessMu.Lock()
	c.live[s] = struct{}{}
	c.sessMu.Unlock()
	return s, nil
}

// closeSession settles a session and folds its counters into the totals.
func (c *Cluster) closeSession(s *ingest.Session) error {
	s.Close()
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	if _, ok := c.live[s]; ok {
		delete(c.live, s)
		c.routed.add(s.Stats())
	}
	return nil
}

// counters sums the sessions' counters, open and closed, with the trace
// feed's (Extreme Binning's whole-file path).
func (c *Cluster) counters() simCounters {
	c.sessMu.Lock()
	total := c.routed
	for s := range c.live {
		total.add(s.Stats())
	}
	c.sessMu.Unlock()
	st := c.inner.Stats()
	total.logicalBytes += st.LogicalBytes
	total.superChunks += st.SuperChunks
	total.lookups += st.TotalMsgs()
	return total
}

// NewSession opens an explicit backup stream on the simulator: the same
// ingest session the prototype runs — its own partitioner
// (WithSuperChunkSize), fingerprint worker pool (WithWorkers), in-flight
// super-chunk window (WithInflightSuperChunks) and stats — over the
// in-process nodes. Tenant admission runs on the director, as on the
// prototype: an unknown tenant fails with ErrNotFound, one at or over
// quota with ErrQuotaExceeded. Not supported for SchemeExtremeBinning,
// whose file-level routing needs whole files.
func (c *Cluster) NewSession(ctx context.Context, opts ...SessionOption) (*Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c.cfg.Scheme == SchemeExtremeBinning {
		return nil, fmt.Errorf("sigmadedupe: streaming sessions are not supported for Extreme Binning (file-level routing needs the whole file); use Backup")
	}
	cfg, err := resolveSessionConfig(c.sessionDefaults(), opts)
	if err != nil {
		return nil, err
	}
	if cfg.name == "" {
		cfg.name = fmt.Sprintf("session%d", c.sessions.Add(1))
	}
	s, err := c.openSession(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &Session{impl: s, close: func() error { return c.closeSession(s) }}, nil
}

// Backup chunks and deduplicates one named stream into the cluster,
// reading r incrementally: completed super-chunks route while the stream
// is still being read, so memory stays bounded by the pending
// super-chunk regardless of stream size. Under SchemeExtremeBinning the
// stream is buffered whole instead — file-level routing needs the whole
// file's representative fingerprint; that is the scheme's nature, not an
// implementation shortcut.
//
// A failed backup leaves the catalog untouched: the name keeps pointing
// at its previous generation (if any) and nothing is stranded.
func (c *Cluster) Backup(ctx context.Context, name string, r io.Reader) error {
	if c.cfg.Scheme == SchemeExtremeBinning {
		return c.backupBuffered(ctx, name, r)
	}
	return c.def.Backup(ctx, name, r)
}

// backupBuffered is the whole-file path for Extreme Binning.
func (c *Cluster) backupBuffered(ctx context.Context, name string, r io.Reader) error {
	if err := tenant.ValidateBackupName(name); err != nil {
		return &BackupError{Name: name, Stage: "chunk", Err: err}
	}
	if err := ctx.Err(); err != nil {
		return &BackupError{Name: name, Stage: "chunk", Err: err}
	}
	ck, err := chunker.NewFixed(r, c.cfg.ChunkSize)
	if err != nil {
		return err
	}
	chunks, err := chunker.SplitAll(ck)
	if err != nil {
		return &BackupError{Name: name, Stage: "chunk", Err: err}
	}
	// The name is cataloged for Stats and tenant accounting only: bin
	// stores bypass the refcounted chunk index, so the entries address no
	// node (-1) and Restore/Delete refuse the scheme outright.
	refs := make([]core.ChunkRef, len(chunks))
	entries := make([]director.ChunkEntry, len(chunks))
	for i, ch := range chunks {
		refs[i] = core.ChunkRef{FP: c.algorithm.Sum(ch.Data), Size: ch.Len()}
		entries[i] = director.ChunkEntry{FP: refs[i].FP, Size: int32(ch.Len()), Node: -1, Replica: -1}
		if c.cfg.KeepPayloads {
			refs[i].Data = ch.Data
		}
	}
	c.exact.Add(refs)
	// Any non-zero item ID marks the item file-scoped for the router.
	if err := c.inner.BackupItem(1, refs); err != nil {
		return &BackupError{Name: name, Stage: "store", Err: err}
	}
	return c.inner.Director().PutRecipe(ctx, c.def.ID(), name, entries)
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

// Flush completes the default backup stream (settles its in-flight
// items and seals containers). Explicit sessions flush themselves.
func (c *Cluster) Flush(ctx context.Context) error {
	if err := c.def.Flush(ctx); err != nil {
		return err
	}
	return c.inner.Flush() // the trace feed's default stream (Extreme Binning)
}

// Close shuts every node down, releasing durable manifests. A durable
// cluster directory can be re-opened later.
func (c *Cluster) Close() error {
	c.def.Close()
	return c.inner.Close()
}

// AddNode implements Backend: a fresh in-process node joins the next
// membership epoch and its ID is returned. addr must be empty on the
// simulator. Requires the Sigma scheme (the baselines are fixed-cluster
// experiment modes).
func (c *Cluster) AddNode(ctx context.Context, addr string) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if addr != "" {
		return 0, fmt.Errorf("sigmadedupe: the simulator creates nodes in process; addr must be empty")
	}
	return c.inner.AddNode()
}

// RemoveNode implements Backend: every super-chunk on the node migrates
// to a surviving member under the journaled commit protocol, the
// membership epoch advances without the node, and the emptied node is
// closed. Pre-existing backups restore byte-identically afterwards.
// Quiesce backup sessions first.
func (c *Cluster) RemoveNode(ctx context.Context, id int) (MigrationResult, error) {
	// Settle the default stream first: a one-shot backup still committing
	// holds its epoch pin, and the drain reads sealed containers.
	if err := c.Flush(ctx); err != nil {
		return MigrationResult{}, err
	}
	res, err := c.inner.RemoveNode(ctx, id)
	return toMigrationResult(res), err
}

// Rebalance implements Backend: super-chunk segments move from members
// above the cluster's mean usage onto underloaded rendezvous owners —
// typically a node AddNode just joined.
func (c *Cluster) Rebalance(ctx context.Context) (MigrationResult, error) {
	res, err := c.inner.Rebalance(ctx)
	return toMigrationResult(res), err
}

// KillNode implements Backend: the node leaves the membership without a
// drain — the hard-crash path. Its data is gone; with
// ClusterConfig.Replicas ≥ 2 every backup keeps restoring through
// failover reads, and Repair restores R=2.
func (c *Cluster) KillNode(ctx context.Context, id int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.inner.KillNode(id)
}

// Repair implements Backend: the simulator's anti-entropy pass —
// promote replicas of dead primaries, re-replicate under-replicated
// runs, reconcile reference counts against the recipe catalog. Quiesce
// backups first.
func (c *Cluster) Repair(ctx context.Context) (RepairResult, error) {
	res, err := c.inner.Repair(ctx)
	return toRepairResult(res), err
}

// FailoverReads counts restore reads served by a replica after the
// primary's node was killed.
func (c *Cluster) FailoverReads() int64 { return c.failoverReads.Load() }

// toRepairResult converts the repair engine's summary to the public
// shape (shared by both backends).
func toRepairResult(res migrate.RepairResult) RepairResult {
	return RepairResult{
		PromotedChunks:     res.Promoted,
		RereplicatedChunks: res.Rereplicated,
		Bytes:              res.Bytes,
		ReleasedRefs:       res.ReleasedRefs,
	}
}

// RecoverMigrations settles migration transactions left pending by a
// crash mid-migration: reference counts reconcile against the recipe
// catalog, converging every backup to old-or-new placement with zero
// leaked references. Quiesce backups first.
func (c *Cluster) RecoverMigrations() error {
	return c.inner.RecoverMigrations(context.Background())
}

// setMigrateFault installs the migration crash-injection hook (tests).
func (c *Cluster) setMigrateFault(fn migrate.Fault) { c.inner.SetMigrateFault(fn) }

// toMigrationResult converts the engine's migration summary to the
// public shape (shared by both backends).
func toMigrationResult(res migrate.Result) MigrationResult {
	return MigrationResult{
		Backups:     res.Backups,
		SuperChunks: res.Segments,
		Chunks:      res.Chunks,
		Bytes:       res.Bytes,
	}
}

// RestartNode stops node i and re-opens it from its durable directory
// (requires ClusterConfig.Dir). Quiesce backups first.
func (c *Cluster) RestartNode(i int) error { return c.inner.RestartNode(i) }

// Restart bounces every node: a full cluster stop/restart/restore cycle.
func (c *Cluster) Restart() error { return c.inner.Restart() }

// Stats implements Backend: the deployment-independent counters.
func (c *Cluster) Stats(ctx context.Context) (BackendStats, error) {
	if err := ctx.Err(); err != nil {
		return BackendStats{}, err
	}
	logical, physical := c.counters().logicalBytes, c.inner.PhysicalBytes()
	return BackendStats{
		LogicalBytes:  logical,
		PhysicalBytes: physical,
		DedupRatio:    metrics.DedupRatio(logical, physical),
		Backups:       len(c.inner.Director().Files()),
		Nodes:         c.inner.N(),
		StorageSkew:   c.inner.Skew(),
	}, nil
}

// SimStats returns the simulator-specific effectiveness metrics of the
// paper's evaluation: normalized and effective dedup ratios, storage
// skew and fingerprint-lookup message counts (Stats serves the
// Backend-portable snapshot).
func (c *Cluster) SimStats() ClusterStats {
	st, usage, exact := c.counters(), c.inner.UsageVector(), c.exact.Physical()
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
	ncfg := node.Config{
		ID:               cfg.ID,
		HandprintSize:    cfg.HandprintSize,
		KeepPayloads:     true,
		Dir:              cfg.Dir,
		Recover:          cfg.Recover,
		CompactEvery:     cfg.CompactEvery,
		CompactThreshold: cfg.CompactThreshold,
		ReadCacheBytes:   cfg.ReadCacheBytes,
	}
	n, err := node.New(ncfg)
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
// (Misses), ranges evicted under the byte budget, and current occupancy.
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
