package sigmadedupe

import (
	"context"
	"fmt"
	"io"

	"sigmadedupe/internal/chunker"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/ingest"
)

// Backend is the single service surface of a Σ-Dedupe deployment. Both
// the in-process simulator (Cluster) and the TCP prototype (Remote)
// implement it, so scenarios, benchmarks and tests drive either through
// identical code — the middleware contract: one stable interface over
// heterogeneous deployments.
//
// Every blocking operation takes a context.Context; cancellation and
// deadlines propagate through the whole stack (chunking pipeline,
// in-flight super-chunk window, RPC wire, node storage engine), so a
// canceled backup stops within about one super-chunk of work.
//
// The one-shot Backup/Restore/Delete verbs are convenience entry points
// over an implicit default backup stream; open explicit Sessions for
// concurrent streams or custom chunking.
type Backend interface {
	// Backup deduplicates one named stream into the cluster, reading r
	// incrementally: peak buffered payload is bounded by the in-flight
	// window, never by stream size. The backup may still be committing
	// when Backup returns; Flush (or a later Backup) settles it and
	// reports its failure, if any — as Session.Backup.
	Backup(ctx context.Context, name string, r io.Reader) error
	// Restore streams a backed-up name to w. A name never backed up (or
	// deleted) fails with ErrNotFound.
	Restore(ctx context.Context, name string, w io.Writer) error
	// Delete removes one backup: its recipe disappears and its chunk
	// references are released; the dead space is reclaimed by Compact.
	Delete(ctx context.Context, name string) error
	// Compact runs one compaction scan on every node (≤0 threshold
	// selects each node's configured live-ratio floor).
	Compact(ctx context.Context, threshold float64) (GCResult, error)
	// Stats reports backend-wide counters.
	Stats(ctx context.Context) (BackendStats, error)
	// Flush completes outstanding backup work: backups still in flight
	// commit (or report their failure) and node containers seal.
	Flush(ctx context.Context) error
	// NewSession opens an explicit backup stream with its own pipeline.
	NewSession(ctx context.Context, opts ...SessionOption) (*Session, error)
	// AddNode commits a new membership epoch containing one fresh
	// deduplication node and returns its stable ID (IDs are never reused).
	// On the simulator the node is created in process and addr must be
	// empty; on the Remote backend addr is the address of an
	// already-running server, and one that is already a member is refused
	// with ErrConflict. The node joins empty: every backup item begun
	// after AddNode returns — on any session, however long open — bids it
	// in (it wins the least-loaded fallback of every zero-resemblance
	// bid); existing placements move only when Rebalance asks.
	AddNode(ctx context.Context, addr string) (int, error)
	// RemoveNode migrates every super-chunk off the node — recipe by
	// recipe, under the journaled migration commit protocol — and
	// commits a membership epoch without it. All pre-existing backups
	// restore byte-identically afterwards. Open sessions need not close:
	// new items route to the survivors at once and items in flight are
	// waited out, but an item its session left unsettled (no later
	// Backup, Flush or Close) fails the call after a grace period. An
	// unknown ID fails with ErrNotFound.
	RemoveNode(ctx context.Context, id int) (MigrationResult, error)
	// Rebalance migrates super-chunk segments from members above the
	// cluster's mean storage usage onto underloaded rendezvous owners —
	// the follow-up that spreads existing data onto a freshly added
	// node. Safe to run while backups proceed.
	Rebalance(ctx context.Context) (MigrationResult, error)
	// KillNode removes a crashed (or to-be-crashed) node from the
	// membership without draining it — the hard-failure counterpart of
	// RemoveNode. Nothing moves: the node's data is simply gone from the
	// cluster's point of view. With replication enabled (Replicas ≥ 2)
	// every backup keeps restoring byte-identically through failover
	// reads; run Repair afterwards to restore R=2 and release strays. A
	// backup item in flight to the node fails with ErrNotFound; its
	// session stays usable. An unknown ID fails with ErrNotFound.
	KillNode(ctx context.Context, id int) error
	// Repair is the anti-entropy pass after a crash: it settles pending
	// migration/replication transactions, promotes replicas of dead
	// primaries, re-replicates every under-replicated super-chunk run,
	// and reconciles per-node reference counts against the recipe
	// catalog, releasing exactly the surplus. Idempotent; quiesce
	// backups, deletes and membership changes first.
	Repair(ctx context.Context) (RepairResult, error)
	// Close releases the backend, propagating the first close failure.
	Close() error
}

// TenantDomain selects a tenant's deduplication domain at creation.
type TenantDomain string

// Deduplication domains.
const (
	// TenantShared puts the tenant in the cluster-wide similarity and
	// chunk indexes: its data deduplicates against every other shared
	// tenant's (maximum space efficiency).
	TenantShared TenantDomain = "shared"
	// TenantIsolated salts the tenant's fingerprints with a
	// tenant-specific value before they leave the client, so its chunks
	// and handprints never collide with — and never dedup against —
	// another tenant's (cryptographic namespace isolation, at the cost
	// of cross-tenant dedup).
	TenantIsolated TenantDomain = "isolated"
)

// TenantConfig is the durable configuration of one tenant.
type TenantConfig struct {
	// Name identifies the tenant: 1-64 letters, digits, '-', '_', '.'.
	Name string
	// Domain is the dedup domain, fixed at creation (default
	// TenantShared).
	Domain TenantDomain
	// QuotaBytes caps the tenant's live logical bytes; 0 = unlimited.
	QuotaBytes int64
	// Weight is the tenant's fair-share bandwidth weight (default 1).
	Weight int
}

// TenantUsage is one tenant's byte accounting.
type TenantUsage struct {
	// LiveBytes is the logical size of the tenant's current backups —
	// what the quota is enforced against.
	LiveBytes int64
	// LogicalBytes is cumulative bytes ever backed up.
	LogicalBytes int64
	// StoredBytes is cumulative post-dedup bytes the tenant's sessions
	// transferred to nodes.
	StoredBytes int64
	// RestoredBytes is cumulative bytes restored.
	RestoredBytes int64
	// Backups is the tenant's current backup count.
	Backups int64
	// DedupRatio is cumulative logical/stored (1 when nothing stored).
	DedupRatio float64
}

// TenantStatus pairs a tenant's configuration with its current usage.
type TenantStatus struct {
	TenantConfig
	Usage TenantUsage
}

// TenantAdmin is the multi-tenant control-plane surface. Both the
// in-process simulator (Cluster) and the TCP prototype (Remote)
// implement it; ServeMetrics exposes the same operations over HTTP.
type TenantAdmin interface {
	// CreateTenant registers a tenant (idempotent; re-creating with the
	// same domain updates quota and weight). The "default" tenant always
	// exists: shared domain, unlimited, weight 1.
	CreateTenant(ctx context.Context, cfg TenantConfig) error
	// Tenants lists every tenant with its usage, sorted by name.
	Tenants(ctx context.Context) ([]TenantStatus, error)
	// SetTenantQuota updates a tenant's byte quota (0 = unlimited).
	SetTenantQuota(ctx context.Context, tenant string, quota int64) error
	// SetTenantWeight updates a tenant's fair-share weight (≥ 1).
	SetTenantWeight(ctx context.Context, tenant string, weight int) error
	// RestoreTenant streams one of the tenant's backups to w.
	RestoreTenant(ctx context.Context, tenant, name string, w io.Writer) error
	// DeleteTenant removes one of the tenant's backups.
	DeleteTenant(ctx context.Context, tenant, name string) error
}

// Interface conformance of both deployments.
var (
	_ TenantAdmin = (*Cluster)(nil)
	_ TenantAdmin = (*Remote)(nil)
)

// MigrationResult summarizes the super-chunk migration behind one
// membership change or rebalance pass.
type MigrationResult struct {
	// Backups is the number of distinct backups whose placement changed.
	Backups int
	// SuperChunks is the number of super-chunk segments moved.
	SuperChunks int
	// Chunks is the number of chunk occurrences moved.
	Chunks int64
	// Bytes is the payload volume migrated node to node.
	Bytes int64
}

// RepairResult summarizes one anti-entropy Repair pass.
type RepairResult struct {
	// PromotedChunks is chunk occurrences whose replica became the
	// primary because the primary's node left the membership.
	PromotedChunks int64
	// RereplicatedChunks is chunk occurrences given a fresh second copy.
	RereplicatedChunks int64
	// Bytes is the payload volume streamed while re-replicating.
	Bytes int64
	// ReleasedRefs is stray chunk references released by reconciliation
	// (replication or migration leftovers no recipe accounts for).
	ReleasedRefs int64
}

// Interface conformance of both deployments.
var (
	_ Backend = (*Cluster)(nil)
	_ Backend = (*Remote)(nil)
)

// BackendStats is the deployment-independent statistics snapshot.
type BackendStats struct {
	// LogicalBytes is the total bytes presented for backup.
	LogicalBytes int64
	// PhysicalBytes is the unique bytes actually stored cluster-wide.
	PhysicalBytes int64
	// DedupRatio is logical/physical (0 when nothing is stored).
	DedupRatio float64
	// Backups is the number of named backups currently retained.
	Backups int
	// Nodes is the cluster size.
	Nodes int
	// StorageSkew is σ/α over per-node storage usage (0 = perfectly
	// balanced).
	StorageSkew float64
	// RestoredBytes is payload bytes streamed back by Restore and
	// RestoreTenant calls, and RestoreRPCs the batched reads issued to
	// serve them: one per node touched per restore window.
	RestoredBytes int64
	RestoreRPCs   int64
	// FailoverReads counts restored chunks read from their replica after
	// the primary's node failed (Replicas ≥ 2 deployments only).
	FailoverReads int64
}

// ChunkMethod identifies a chunking algorithm for backup streams.
type ChunkMethod int

// Chunking algorithms (see internal/chunker for the paper context).
const (
	// ChunkFixed is static chunking at a constant size — the paper's
	// choice for its main experiments (negligible CPU cost).
	ChunkFixed ChunkMethod = iota + 1
	// ChunkCDC is content-defined chunking with a rolling Rabin hash:
	// boundaries survive insertions/deletions, at more CPU per byte.
	ChunkCDC
	// ChunkTTTD is the Two-Threshold Two-Divisor CDC variant used in the
	// paper's resemblance analysis.
	ChunkTTTD
	// ChunkFastCDC is FastCDC-2020 (gear hash, normalized chunking): the
	// dedup quality of content-defined boundaries at nearly static-
	// chunking cost — the recommended method when boundaries must
	// survive insertions without paying the Rabin CPU tax.
	ChunkFastCDC
)

// String returns the paper's abbreviation for the method.
func (m ChunkMethod) String() string { return m.internal().String() }

func (m ChunkMethod) internal() chunker.Method {
	switch m {
	case ChunkCDC:
		return chunker.Rabin
	case ChunkTTTD:
		return chunker.TTTD
	case ChunkFastCDC:
		return chunker.FastCDC
	default:
		return chunker.Fixed
	}
}

// FingerprintAlgorithm selects the chunk fingerprint hash of a backend.
type FingerprintAlgorithm int

// Supported fingerprint hashes. All produce 20-byte fingerprints.
const (
	// FingerprintSHA1 is the paper's choice and the default.
	FingerprintSHA1 FingerprintAlgorithm = iota + 1
	// FingerprintSHA256 truncates SHA-256 to 20 bytes: the recommended
	// choice for its collision resistance. On x86 CPUs with the SHA
	// extensions both SHAs run in hardware at about the same speed (4KB
	// chunks: SHA-256 1257 MB/s, SHA-1 1307 MB/s; SHA-1 falls to 664 MB/s
	// without them — see internal/fingerprint).
	FingerprintSHA256
	// FingerprintMD5 is the paper's faster-but-weaker alternative
	// (Fig. 4a); on SHA-extension hardware it is the slowest (597 MB/s).
	FingerprintMD5
)

// String returns the conventional lowercase name of the hash.
func (a FingerprintAlgorithm) String() string { return a.internal().String() }

func (a FingerprintAlgorithm) internal() fingerprint.Algorithm {
	switch a {
	case FingerprintSHA256:
		return fingerprint.SHA256
	case FingerprintMD5:
		return fingerprint.MD5
	default:
		return fingerprint.SHA1
	}
}

// ChunkSpec selects the chunking algorithm and granularity of a backup
// stream. The zero value means ChunkFixed at 4KB, the paper's default.
type ChunkSpec struct {
	// Method is the chunking algorithm (default ChunkFixed).
	Method ChunkMethod
	// Size is the fixed chunk size (ChunkFixed) or the target average
	// (ChunkCDC, ChunkFastCDC) in bytes; ChunkTTTD uses its standard
	// thresholds. Default 4096.
	Size int
}

// sessionConfig is the resolved option set of one session.
type sessionConfig struct {
	name           string
	tenant         string
	chunk          ChunkSpec
	superChunkSize int64
	handprintK     int
	workers        int
	inflight       int
}

// SessionOption configures a backup session (NewSession).
type SessionOption func(*sessionConfig)

// WithSessionName names the session's backup stream (container
// attribution on the nodes; defaults to a backend-chosen name).
func WithSessionName(name string) SessionOption {
	return func(c *sessionConfig) { c.name = name }
}

// WithTenant scopes the session to a tenant: its backups live in the
// tenant's namespace, count against the tenant's quota (admission is
// checked when the session opens — a tenant at quota fails with
// ErrQuotaExceeded), share bandwidth by the tenant's weight, and — for
// an isolated-domain tenant — never dedup against other tenants' data.
// The default is the always-existing "default" tenant.
func WithTenant(name string) SessionOption {
	return func(c *sessionConfig) { c.tenant = name }
}

// WithChunkSpec selects the stream's chunking algorithm and size.
func WithChunkSpec(spec ChunkSpec) SessionOption {
	return func(c *sessionConfig) { c.chunk = spec }
}

// WithSuperChunkSize sets the routing granularity in bytes (default
// 1MB, the paper's choice).
func WithSuperChunkSize(n int64) SessionOption {
	return func(c *sessionConfig) { c.superChunkSize = n }
}

// WithWorkers sizes the fingerprint worker pool (default GOMAXPROCS).
func WithWorkers(n int) SessionOption {
	return func(c *sessionConfig) { c.workers = n }
}

// WithInflightSuperChunks bounds the window of super-chunks concurrently
// in the route/store stage (default 4). Together with the
// super-chunk size this caps the session's peak buffered payload.
func WithInflightSuperChunks(n int) SessionOption {
	return func(c *sessionConfig) { c.inflight = n }
}

// SessionStats summarizes one backup session. At R=2 the ingest counters
// describe the primary copy only; the replica's pass adds to none of them.
type SessionStats struct {
	// LogicalBytes is bytes presented for backup on this session.
	LogicalBytes int64
	// TransferredBytes is payload bytes of the chunks the target node did
	// not already hold — what crossed the network (on the in-process
	// simulator: what was stored).
	TransferredBytes int64
	// SuperChunks is the number of routed super-chunks.
	SuperChunks int64
	// Files is the number of Backup calls.
	Files int64
	// PeakBufferedBytes is the maximum payload bytes the session's
	// pipeline held in memory at once — bounded by the in-flight window
	// (InflightSuperChunks × super-chunk size), never by stream size.
	PeakBufferedBytes int64
	// ChunkBufAllocs counts chunk payload buffers newly allocated from
	// the heap. With buffer pooling active it plateaus at roughly the
	// in-flight window's chunk count — the allocation cliff: live
	// allocation is O(InflightSuperChunks), not O(stream).
	ChunkBufAllocs int64
	// ChunkBufReuses counts chunk buffers recycled through the pool; it
	// grows with the stream while ChunkBufAllocs stays flat. Restores
	// are counted in BackendStats, not here.
	ChunkBufReuses int64
}

// BandwidthSaving returns the fraction of payload bytes source dedup
// kept off the network.
func (s SessionStats) BandwidthSaving() float64 {
	if s.LogicalBytes == 0 {
		return 0
	}
	return 1 - float64(s.TransferredBytes)/float64(s.LogicalBytes)
}

// Session is one backup stream: its own chunking pipeline, fingerprint
// worker pool and in-flight super-chunk window — the same ingest session
// on every Backend. A Session is single-stream (not safe for concurrent
// use); open one Session per concurrent backup stream — that is the
// paper's design, one pipeline per stream.
type Session struct {
	impl *ingest.Session
	// close settles impl and releases what the backend holds for it.
	close func() error
}

// Backup chunks, fingerprints, routes and dedup-stores one named stream,
// reading r incrementally with memory bounded by the in-flight window.
// The backup may still be committing when Backup returns; Flush (or a
// later Backup) settles it and reports its failure, if any. A Backup
// that itself returns an error left the name as it was — nothing
// stranded — and the session usable. Canceling ctx aborts within about
// one super-chunk of work.
func (s *Session) Backup(ctx context.Context, name string, r io.Reader) error {
	return s.impl.Backup(ctx, name, r)
}

// Flush completes the session's outstanding work: in-flight transfers
// drain, backups commit and node containers seal.
func (s *Session) Flush(ctx context.Context) error { return s.impl.Flush(ctx) }

// Stats returns the session's counters, including the peak buffered
// payload high-water mark.
func (s *Session) Stats() SessionStats { return toSessionStats(s.impl.Stats()) }

// Close releases the session. Flush first to complete a backup.
func (s *Session) Close() error { return s.close() }

// toSessionStats converts the ingest session's counters to the public
// shape.
func toSessionStats(st ingest.Stats) SessionStats {
	return SessionStats{
		LogicalBytes:      st.LogicalBytes,
		TransferredBytes:  st.TransferredBytes,
		SuperChunks:       st.SuperChunks,
		Files:             st.Files,
		PeakBufferedBytes: st.PeakBufferedBytes,
		ChunkBufAllocs:    st.ChunkBufAllocs,
		ChunkBufReuses:    st.ChunkBufReuses,
	}
}

// ingest is the part of an ingest session's configuration the session
// options decide; the backend adds its router, transport and seams.
func (c sessionConfig) ingest(algo fingerprint.Algorithm) ingest.Config {
	return ingest.Config{
		Name:           c.name,
		Tenant:         c.tenant,
		ChunkMethod:    c.chunk.Method.internal(),
		ChunkSize:      c.chunk.Size,
		SuperChunkSize: c.superChunkSize,
		Algorithm:      algo,
		Workers:        c.workers,
		Inflight:       c.inflight,
	}
}

// resolveSessionConfig applies options over backend defaults.
func resolveSessionConfig(defaults sessionConfig, opts []SessionOption) (sessionConfig, error) {
	cfg := defaults
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.chunk.Method == 0 {
		cfg.chunk.Method = ChunkFixed
	}
	if cfg.chunk.Method < ChunkFixed || cfg.chunk.Method > ChunkFastCDC {
		return cfg, fmt.Errorf("sigmadedupe: unknown chunk method %d", int(cfg.chunk.Method))
	}
	if cfg.chunk.Size <= 0 {
		cfg.chunk.Size = 4096
	}
	return cfg, nil
}
