package sigmadedupe

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/ingest"
	"sigmadedupe/internal/metrics"
	"sigmadedupe/internal/migrate"
	"sigmadedupe/internal/router"
	"sigmadedupe/internal/tenant"
)

// plane is the one Backend implementation: everything above the node
// transport, written once and embedded by both deployments. It holds the
// node registry and the membership verbs over it (registry.go,
// elastic.go), the session lifecycle and the statistics (below), and
// everything that reads and edits the recipe catalog — restore, delete,
// compaction, the GC counters, the tenant control plane. Cluster
// constructs it over its in-RAM director and in-process nodes, Remote
// over a director that may be a TCP hop away and nodes over the wire;
// what they add is the transport interface and their own extras
// (SimStats, Restart; RPCMessages).
type plane struct {
	t           transport
	meta        director.Metadata
	tenants     director.TenantAdmin
	clusterMeta director.ClusterMeta
	registry

	// payloads and replicas say what the deployment can do: migration
	// needs payloads.
	payloads     bool
	replicas     int
	migrateFault migrate.Fault

	// name, algorithm, defaults and sched configure sessions: the default
	// session's stream name (and the prefix of unnamed ones), the
	// fingerprint hash, the option defaults and the backend-wide
	// weighted-fair ingest scheduler (nil when IngestCapacityBytes is 0).
	name      string
	algorithm fingerprint.Algorithm
	defaults  sessionConfig
	sched     *tenant.Scheduler
	// weights is the scheduler's weight source (weight): tenant name →
	// weight, as each session's admission read of its tenant and every
	// weight mutation through this backend last saw it.
	weights sync.Map
	// ahead is how many restore windows are fetched ahead of the writer.
	ahead int

	// def is the default session behind the one-shot Backup verb, opened
	// on first use.
	defMu sync.Mutex
	def   *ingest.Session
	// sessions maps every open session to what its transport holds for
	// it; folded sums the counters of the closed ones; opened numbers the
	// sessions opened without a name.
	sessMu   sync.Mutex
	sessions map[*ingest.Session]io.Closer
	folded   counters
	opened   atomic.Int64

	restoredBytes, readBatches, failoverReads atomic.Int64
}

// counters are the session counters the backend-wide stats sum.
type counters struct {
	logicalBytes, superChunks, lookups int64
}

func (a *counters) add(st ingest.Stats) {
	a.logicalBytes += st.LogicalBytes
	a.superChunks += st.SuperChunks
	a.lookups += st.PreRoutingMsgs + st.AfterRoutingMsgs
}

// openSession opens an ingest session over the director and the node
// transport: what the options decided, the Σ-Dedupe router at the
// session's handprint size, the backend's hash, scheduler, payload policy
// and replica count, and the transport's epoch pin.
func (p *plane) openSession(ctx context.Context, cfg sessionConfig) (*ingest.Session, error) {
	icfg := cfg.ingest(p.algorithm)
	rt, err := router.New(router.Sigma, cfg.handprintK, 0)
	if err != nil {
		return nil, err
	}
	icfg.Router = rt
	icfg.Scheduler = p.sched
	icfg.KeepPayloads = p.payloads
	icfg.Replicas = p.replicas
	held, err := p.t.wire(ctx, &icfg)
	if err != nil {
		return nil, err
	}
	s, err := ingest.New(ctx, icfg, weighing{p.meta, p})
	if err != nil {
		if held != nil {
			held.Close()
		}
		return nil, err
	}
	p.sessMu.Lock()
	p.sessions[s] = held
	p.sessMu.Unlock()
	return s, nil
}

// weighing is the director as a session sees it: the session's
// admission read of its tenant also refreshes the tenant's weight, so the
// scheduler weighs a tenant created elsewhere — by another client, or
// before a durable director restarted — without a round trip of its own.
type weighing struct {
	director.Metadata
	p *plane
}

// TenantStatus implements director.Metadata.
func (w weighing) TenantStatus(ctx context.Context, name string) (director.TenantStatus, error) {
	st, err := w.Metadata.TenantStatus(ctx, name)
	if err == nil {
		w.p.weights.Store(name, st.Info.Weight)
	}
	return st, err
}

// weight is the scheduler's weight lookup. The scheduler calls it under
// its mutex, so it answers from the cache and never blocks on the
// director. Unknown tenants weigh 1.
func (p *plane) weight(tn string) int {
	if w, ok := p.weights.Load(tn); ok {
		return w.(int)
	}
	return 1
}

// closeSession releases a session and folds its counters into the
// totals. What the transport holds closes before the session settles its
// in-flight super-chunks, so a wedged server cannot hang it: closing the
// connections fails the pending calls.
func (p *plane) closeSession(s *ingest.Session) (err error) {
	p.sessMu.Lock()
	held, ok := p.sessions[s]
	delete(p.sessions, s)
	p.sessMu.Unlock()
	if !ok {
		return nil
	}
	if held != nil {
		err = held.Close()
	}
	s.Close()
	p.sessMu.Lock()
	p.folded.add(s.Stats())
	p.sessMu.Unlock()
	return err
}

// counters sums the sessions' counters, open and closed.
func (p *plane) counters() counters {
	p.sessMu.Lock()
	defer p.sessMu.Unlock()
	total := p.folded
	for s := range p.sessions {
		total.add(s.Stats())
	}
	return total
}

// NewSession implements Backend: its own partitioner
// (WithSuperChunkSize), fingerprint worker pool (WithWorkers), in-flight
// super-chunk window (WithInflightSuperChunks) and stats — the same
// ingest session on either deployment. Tenant admission runs on the
// director: an unknown tenant fails with ErrNotFound, one at or over
// quota with ErrQuotaExceeded.
func (p *plane) NewSession(ctx context.Context, opts ...SessionOption) (*Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg, err := resolveSessionConfig(p.defaults, opts)
	if err != nil {
		return nil, err
	}
	if cfg.name == "" {
		cfg.name = fmt.Sprintf("%s-session%d", p.name, p.opened.Add(1))
	}
	s, err := p.openSession(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &Session{impl: s, close: func() error { return p.closeSession(s) }}, nil
}

// defaultSession returns (opening it on first use) the session behind
// the one-shot verbs.
func (p *plane) defaultSession(ctx context.Context) (*ingest.Session, error) {
	p.defMu.Lock()
	defer p.defMu.Unlock()
	if p.def == nil {
		cfg, err := resolveSessionConfig(p.defaults, []SessionOption{WithSessionName(p.name)})
		if err != nil {
			return nil, err
		}
		if p.def, err = p.openSession(ctx, cfg); err != nil {
			return nil, err
		}
	}
	return p.def, nil
}

// defaultIfOpen returns the default session, nil before its first use.
func (p *plane) defaultIfOpen() *ingest.Session {
	p.defMu.Lock()
	defer p.defMu.Unlock()
	return p.def
}

// Backup implements Backend on the default session. Canceling ctx aborts
// within about one super-chunk of work; the failed backup is released,
// the name keeps pointing at its previous generation (if any) and the
// default session stays usable.
func (p *plane) Backup(ctx context.Context, name string, r io.Reader) error {
	s, err := p.defaultSession(ctx)
	if err != nil {
		return err
	}
	return s.Backup(ctx, name, r)
}

// Flush implements Backend: the default session's in-flight items
// settle, its backups commit and node containers seal. Explicit sessions
// flush themselves.
func (p *plane) Flush(ctx context.Context) error {
	if s := p.defaultIfOpen(); s != nil {
		return s.Flush(ctx)
	}
	return nil // nothing backed up yet
}

// close releases the default session and every node handle.
func (p *plane) close() (err error) {
	if s := p.defaultIfOpen(); s != nil {
		err = p.closeSession(s)
	}
	if e := p.cur.Load(); e != nil { // nil when the constructor failed early
		for _, m := range e.nodes {
			if cerr := m.close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}

// usage reads every member's stored bytes (ascending by node ID) over
// one registry snapshot: a concurrent topology change commits before or
// after it, never in the middle.
func (p *plane) usage(ctx context.Context) ([]int64, error) {
	ids, nodes, err := p.live(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(ids))
	for i, id := range ids {
		nd, _ := nodes(id)
		// An empty handprint is the plain usage probe. Live storage usage,
		// not a cumulative stored-bytes counter: it shrinks when compaction
		// reclaims space.
		if _, out[i], err = nd.Bid(ctx, nil); err != nil {
			return nil, fmt.Errorf("sigmadedupe: stats node %d: %w", id, err)
		}
	}
	return out, nil
}

// Stats implements Backend: the bytes this backend's sessions were
// handed, the bytes the members store, and the director's count of
// retained backups (its tenant accounting keeps one per name).
func (p *plane) Stats(ctx context.Context) (BackendStats, error) {
	usage, err := p.usage(ctx)
	if err != nil {
		return BackendStats{}, err
	}
	st := BackendStats{
		LogicalBytes:  p.counters().logicalBytes,
		Nodes:         len(usage),
		StorageSkew:   metrics.Skew(usage),
		RestoredBytes: p.restoredBytes.Load(),
		RestoreRPCs:   p.readBatches.Load(),
		FailoverReads: p.failoverReads.Load(),
	}
	for _, u := range usage {
		st.PhysicalBytes += u
	}
	st.DedupRatio = metrics.DedupRatio(st.LogicalBytes, st.PhysicalBytes)
	tenants, err := p.tenants.Tenants(ctx)
	for _, t := range tenants {
		st.Backups += int(t.Usage.Backups)
	}
	return st, err
}

// resolve composes the recipe key of a tenant's backup name and
// snapshots the node transport for one restore or delete.
func (p *plane) resolve(ctx context.Context, tn, name string) (string, func(id int) (migrate.Node, bool), error) {
	if err := tenant.ValidateBackupName(name); err != nil {
		return "", nil, fmt.Errorf("sigmadedupe: %w", err)
	}
	_, nodes, err := p.live(ctx)
	return tenant.Key(tn, name), nodes, err
}

// Restore implements Backend: the named backup of the default tenant
// streams back to w, each chunk read from the node its recipe records
// (or that node's replica, once it is gone). An unknown name fails with
// ErrNotFound.
func (p *plane) Restore(ctx context.Context, name string, w io.Writer) error {
	return p.RestoreTenant(ctx, tenant.Default, name, w)
}

// RestoreTenant implements TenantAdmin: stream one of the tenant's
// backups to w. Quota never blocks a restore.
func (p *plane) RestoreTenant(ctx context.Context, tn, name string, w io.Writer) error {
	key, nodes, err := p.resolve(ctx, tn, name)
	if err != nil {
		return err
	}
	st, err := migrate.Restore(ctx, p.meta, nodes, key, p.ahead, w)
	p.restoredBytes.Add(st.Bytes)
	p.readBatches.Add(st.ReadBatches)
	p.failoverReads.Add(st.FailoverReads)
	return err
}

// Delete implements Backend: the default tenant's backup leaves the
// catalog (journaled first on a durable director), then every live node
// holding its chunks releases the recipe's references on them. The
// freed chunks become dead container space until Compact (or a
// background compactor) reclaims it. An unknown name fails with
// ErrNotFound.
func (p *plane) Delete(ctx context.Context, name string) error {
	return p.DeleteTenant(ctx, tenant.Default, name)
}

// DeleteTenant implements TenantAdmin: remove one of the tenant's
// backups. Quota never blocks a delete — deleting is how an over-quota
// tenant gets back under.
func (p *plane) DeleteTenant(ctx context.Context, tn, name string) error {
	key, nodes, err := p.resolve(ctx, tn, name)
	if err != nil {
		return err
	}
	return migrate.Delete(ctx, p.meta, nodes, key)
}

// Compact implements Backend: one compaction scan on every live node,
// rewriting containers whose live-chunk ratio fell below threshold (≤0
// selects each node's configured floor, 0.5 by default) and reclaiming
// the dead space of deleted backups. A canceled ctx stops between
// containers.
func (p *plane) Compact(ctx context.Context, threshold float64) (GCResult, error) {
	ids, nodes, err := p.live(ctx)
	if err != nil {
		return GCResult{}, err
	}
	res, err := migrate.Compact(ctx, ids, nodes, threshold)
	return toGCResult(res), err
}

// gcStats sums the garbage-collection counters of every live node over
// one registry snapshot.
func (p *plane) gcStats(ctx context.Context) (GCStats, error) {
	ids, nodes, err := p.live(ctx)
	if err != nil {
		return GCStats{}, err
	}
	return migrate.GCStats(ctx, ids, nodes)
}

// CreateTenant implements TenantAdmin: the director registers (and
// journals, when durable) the tenant — idempotent; re-creating with the
// same domain updates quota and weight, a different domain conflicts.
func (p *plane) CreateTenant(ctx context.Context, cfg TenantConfig) error {
	if err := p.tenants.CreateTenant(ctx, toTenantInfo(cfg)); err != nil {
		return err
	}
	p.weights.Store(cfg.Name, max(cfg.Weight, 1))
	return nil
}

// Tenants implements TenantAdmin: the director's tenant table with
// usage, sorted by name.
func (p *plane) Tenants(ctx context.Context) ([]TenantStatus, error) {
	sts, err := p.tenants.Tenants(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]TenantStatus, len(sts))
	for i, st := range sts {
		out[i] = toTenantStatus(st.Info, st.Usage)
	}
	return out, nil
}

// SetTenantQuota implements TenantAdmin (0 = unlimited).
func (p *plane) SetTenantQuota(ctx context.Context, tn string, quota int64) error {
	return p.tenants.SetTenantQuota(ctx, tn, quota)
}

// SetTenantWeight implements TenantAdmin. The new weight applies to the
// next super-chunk of every open session of the tenant.
func (p *plane) SetTenantWeight(ctx context.Context, tn string, weight int) error {
	if err := p.tenants.SetTenantWeight(ctx, tn, weight); err != nil {
		return err
	}
	p.weights.Store(tn, weight)
	return nil
}

// toTenantInfo converts the public tenant configuration to the control
// plane's internal shape.
func toTenantInfo(cfg TenantConfig) tenant.Info {
	return tenant.Info{
		Name:       cfg.Name,
		Domain:     string(cfg.Domain),
		QuotaBytes: cfg.QuotaBytes,
		Weight:     cfg.Weight,
	}
}

// toTenantStatus pairs internal config and usage into the public status.
func toTenantStatus(info tenant.Info, u tenant.Usage) TenantStatus {
	return TenantStatus{
		TenantConfig: TenantConfig{
			Name:       info.Name,
			Domain:     TenantDomain(info.Domain),
			QuotaBytes: info.QuotaBytes,
			Weight:     info.Weight,
		},
		Usage: TenantUsage{
			LiveBytes:     u.LiveBytes,
			LogicalBytes:  u.LogicalBytes,
			StoredBytes:   u.StoredBytes,
			RestoredBytes: u.RestoredBytes,
			Backups:       u.Backups,
			DedupRatio:    u.DedupRatio(),
		},
	}
}
