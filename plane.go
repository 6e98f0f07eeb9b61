package sigmadedupe

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"

	"sigmadedupe/internal/director"
	"sigmadedupe/internal/migrate"
	"sigmadedupe/internal/tenant"
)

// plane is the half of a Backend that reads and edits the recipe
// catalog: restore, delete, compaction, the GC counters and the tenant
// control plane — written once, over the director's interfaces and the
// node-transport interface, and embedded by both deployments. Cluster
// runs it on its in-RAM director and in-process nodes, Remote on a
// director that may be a TCP hop away and nodes over the wire.
type plane struct {
	meta    director.Metadata
	tenants director.TenantAdmin
	// live snapshots the current membership: the member IDs and the
	// transport resolving each (false for a node that has since left).
	live func(ctx context.Context) ([]int, func(id int) (migrate.Node, bool), error)
	// ahead is how many restore windows are fetched ahead of the writer.
	ahead int
	// recipeless, when set, is what Restore and Delete fail with: the
	// deployment keeps no restorable recipes (Extreme Binning).
	recipeless error

	restoredBytes, restoredChunks, readBatches, failoverReads atomic.Int64
}

// resolve composes the recipe key of a tenant's backup name and
// snapshots the node transport for one restore or delete.
func (p *plane) resolve(ctx context.Context, tn, name string) (string, func(id int) (migrate.Node, bool), error) {
	if p.recipeless != nil {
		return "", nil, p.recipeless
	}
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
	p.restoredChunks.Add(st.Chunks)
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
// one membership snapshot.
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
	return p.tenants.CreateTenant(ctx, toTenantInfo(cfg))
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

// SetTenantWeight implements TenantAdmin.
func (p *plane) SetTenantWeight(ctx context.Context, tn string, weight int) error {
	return p.tenants.SetTenantWeight(ctx, tn, weight)
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
