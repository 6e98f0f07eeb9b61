package rpc

import (
	"context"
	"errors"
	"fmt"

	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/sderr"
	"sigmadedupe/internal/tenant"
	"sigmadedupe/internal/wire"
)

// The director's metadata verbs, each declared once (verb) with its
// Client method, on connections that open with wire.ProtoDirector. So
// *Client satisfies director.Metadata, director.TenantAdmin and
// director.ClusterMeta.

var (
	_ director.Metadata    = (*Client)(nil)
	_ director.TenantAdmin = (*Client)(nil)
	_ director.ClusterMeta = (*Client)(nil)
)

// DialDirector connects to a director server (NewDirectorServer),
// honoring ctx for the dial itself.
func DialDirector(ctx context.Context, addr string) (*Client, error) {
	return dialClient(ctx, addr, wire.ProtoDirector)
}

// remoteError rehydrates an error reply. A director's keeps the sentinel
// errors callers dispatch on (a missing recipe must stay distinguishable
// from a transport failure — the client's supersede logic skips its
// decref only on ErrNoRecipe): the taxonomy codec restores the sderr
// sentinel, and the director-level sentinel wrapping it is re-attached on
// top so errors.Is holds for both.
func (c *Client) remoteError(msg string) error {
	err := sderr.Decode(msg)
	if c.proto != wire.ProtoDirector {
		return fmt.Errorf("rpc: remote: %w", err)
	}
	for _, de := range []error{director.ErrNoRecipe, director.ErrNoSession, director.ErrRecipeConflict} {
		if errors.Is(err, errors.Unwrap(de)) {
			return fmt.Errorf("%w: %w", de, err)
		}
	}
	return err
}

func (x *coder) entries(v *[]director.ChunkEntry) {
	list(x, v, fingerprint.Size+12, func(e *director.ChunkEntry) {
		x.fp(&e.FP)
		x.i32(&e.Size)
		x.i32(&e.Node)
		x.i32(&e.Replica)
	})
}

func (x *coder) recipe(v *director.Recipe) {
	x.str(&v.Path)
	x.u64(&v.Session)
	x.u64(&v.Gen)
	x.entries(&v.Chunks)
}

func (x *coder) members(v *director.MembershipInfo) {
	x.u64(&v.Epoch)
	x.nodes(&v.Nodes)
}

func (x *coder) nodes(v *[]director.NodeInfo) {
	list(x, v, 12, func(n *director.NodeInfo) { x.int(&n.ID); x.str(&n.Addr) })
}

func (x *coder) migration(v *director.Migration) {
	x.u64(&v.ID)
	x.str(&v.Path)
	x.i32(&v.From)
	x.i32(&v.To)
	x.int(&v.Start)
	x.int(&v.Count)
	list(x, &v.FPs, fingerprint.Size, x.fp)
}

func (x *coder) tenantInfo(v *tenant.Info) {
	x.str(&v.Name)
	x.str(&v.Domain)
	x.i64(&v.QuotaBytes)
	x.int(&v.Weight)
}

func (x *coder) tenantStatus(v *director.TenantStatus) {
	x.tenantInfo(&v.Info)
	x.i64(&v.Usage.LiveBytes)
	x.i64(&v.Usage.LogicalBytes)
	x.i64(&v.Usage.StoredBytes)
	x.i64(&v.Usage.RestoredBytes)
	x.i64(&v.Usage.Backups)
}

// The verbs, each with its Client method.

type sessionArgs struct{ client, tenant string }

var beginSession = declare(32, 0,
	func(x *coder, a *sessionArgs) { x.str(&a.client); x.str(&a.tenant) }, (*coder).u64,
	func(d *director.Director, ctx context.Context, a sessionArgs) (uint64, error) {
		return d.BeginSession(ctx, a.client, a.tenant)
	})

// BeginSession implements director.Metadata: quota admission happens on
// the director, and a refusal decodes back to sderr.ErrQuotaExceeded.
func (c *Client) BeginSession(ctx context.Context, client, tenantName string) (uint64, error) {
	return call(c, ctx, beginSession, sessionArgs{client, tenantName})
}

var endSession = declare(33, 0, (*coder).u64, none, noResult((*director.Director).EndSession))

// EndSession implements director.Metadata.
func (c *Client) EndSession(ctx context.Context, id uint64) error {
	_, err := call(c, ctx, endSession, id)
	return err
}

type swapArgs struct {
	session uint64
	path    string
	chunks  []director.ChunkEntry
}

var swapRecipe = declare(34, 0,
	func(x *coder, a *swapArgs) { x.u64(&a.session); x.str(&a.path); x.entries(&a.chunks) }, (*coder).recipe,
	func(d *director.Director, ctx context.Context, a swapArgs) (director.Recipe, error) {
		return d.SwapRecipe(ctx, a.session, a.path, a.chunks)
	})

// SwapRecipe implements director.Metadata.
func (c *Client) SwapRecipe(ctx context.Context, session uint64, path string, chunks []director.ChunkEntry) (director.Recipe, error) {
	return call(c, ctx, swapRecipe, swapArgs{session, path, chunks})
}

var getRecipe = declare(35, 0, (*coder).str, (*coder).recipe, (*director.Director).GetRecipe)

// GetRecipe implements director.Metadata.
func (c *Client) GetRecipe(ctx context.Context, path string) (director.Recipe, error) {
	return call(c, ctx, getRecipe, path)
}

var deleteRecipe = declare(36, 0, (*coder).str, (*coder).recipe, (*director.Director).DeleteRecipe)

// DeleteRecipe implements director.Metadata.
func (c *Client) DeleteRecipe(ctx context.Context, path string) (director.Recipe, error) {
	return call(c, ctx, deleteRecipe, path)
}

var members = declare(37, 0, none, (*coder).members, noArg((*director.Director).Members))

// Members implements director.ClusterMeta.
func (c *Client) Members(ctx context.Context) (director.MembershipInfo, error) {
	return call(c, ctx, members, struct{}{})
}

type membersArgs struct {
	ifEpoch uint64
	nodes   []director.NodeInfo
}

var setMembers = declare(38, 0,
	func(x *coder, a *membersArgs) { x.u64(&a.ifEpoch); x.nodes(&a.nodes) }, (*coder).members,
	func(d *director.Director, ctx context.Context, a membersArgs) (director.MembershipInfo, error) {
		return d.SetMembers(ctx, a.ifEpoch, a.nodes)
	})

// SetMembers implements director.ClusterMeta.
func (c *Client) SetMembers(ctx context.Context, ifEpoch uint64, nodes []director.NodeInfo) (director.MembershipInfo, error) {
	return call(c, ctx, setMembers, membersArgs{ifEpoch, nodes})
}

var beginMigration = declare(39, 0, (*coder).migration, (*coder).u64, (*director.Director).BeginMigration)

// BeginMigration implements director.ClusterMeta.
func (c *Client) BeginMigration(ctx context.Context, m director.Migration) (uint64, error) {
	return call(c, ctx, beginMigration, m)
}

var endMigration = declare(40, 0, (*coder).u64, none, noResult((*director.Director).EndMigration))

// EndMigration implements director.ClusterMeta.
func (c *Client) EndMigration(ctx context.Context, id uint64) error {
	_, err := call(c, ctx, endMigration, id)
	return err
}

var pendingMigrations = declare(41, 0, none,
	func(x *coder, v *[]director.Migration) { list(x, v, 40, x.migration) }, // ≥ 40 fixed bytes each
	noArg((*director.Director).PendingMigrations))

// PendingMigrations implements director.ClusterMeta.
func (c *Client) PendingMigrations(ctx context.Context) ([]director.Migration, error) {
	return call(c, ctx, pendingMigrations, struct{}{})
}

var recipes = declare(42, 0, none,
	func(x *coder, v *[]director.Recipe) { list(x, v, 24, x.recipe) }, // ≥ 24 fixed bytes each
	noArg((*director.Director).Recipes))

// Recipes implements director.ClusterMeta.
func (c *Client) Recipes(ctx context.Context) ([]director.Recipe, error) {
	return call(c, ctx, recipes, struct{}{})
}

type replaceArgs struct {
	path             string
	ifSession, ifGen uint64
	chunks           []director.ChunkEntry
}

var replaceRecipe = declare(43, 0,
	func(x *coder, a *replaceArgs) {
		x.str(&a.path)
		x.u64(&a.ifSession)
		x.u64(&a.ifGen)
		x.entries(&a.chunks)
	}, none,
	noResult(func(d *director.Director, ctx context.Context, a replaceArgs) error {
		return d.ReplaceRecipe(ctx, a.path, a.ifSession, a.ifGen, a.chunks)
	}))

// ReplaceRecipe implements director.ClusterMeta.
func (c *Client) ReplaceRecipe(ctx context.Context, path string, ifSession, ifGen uint64, chunks []director.ChunkEntry) error {
	_, err := call(c, ctx, replaceRecipe, replaceArgs{path, ifSession, ifGen, chunks})
	return err
}

var createTenant = declare(44, 0, (*coder).tenantInfo, none, noResult((*director.Director).CreateTenant))

// CreateTenant implements director.TenantAdmin.
func (c *Client) CreateTenant(ctx context.Context, info tenant.Info) error {
	_, err := call(c, ctx, createTenant, info)
	return err
}

var tenants = declare(45, 0, none,
	func(x *coder, v *[]director.TenantStatus) { list(x, v, 64, x.tenantStatus) }, // ≥ 64 fixed bytes each
	noArg((*director.Director).Tenants))

// Tenants implements director.TenantAdmin.
func (c *Client) Tenants(ctx context.Context) ([]director.TenantStatus, error) {
	return call(c, ctx, tenants, struct{}{})
}

var tenantStatus = declare(46, 0, (*coder).str, (*coder).tenantStatus, (*director.Director).TenantStatus)

// TenantStatus implements director.Metadata and director.TenantAdmin.
func (c *Client) TenantStatus(ctx context.Context, name string) (director.TenantStatus, error) {
	return call(c, ctx, tenantStatus, name)
}

// tenantArgs carries a tenant name and up to two figures.
type tenantArgs struct {
	name string
	a, b int64
}

func (x *coder) tenantArgs(a *tenantArgs) { x.str(&a.name); x.i64(&a.a); x.i64(&a.b) }

var setTenantQuota = declare(47, 0, (*coder).tenantArgs, none,
	noResult(func(d *director.Director, ctx context.Context, a tenantArgs) error {
		return d.SetTenantQuota(ctx, a.name, a.a)
	}))

// SetTenantQuota implements director.TenantAdmin.
func (c *Client) SetTenantQuota(ctx context.Context, name string, quota int64) error {
	_, err := call(c, ctx, setTenantQuota, tenantArgs{name: name, a: quota})
	return err
}

var setTenantWeight = declare(48, 0, (*coder).tenantArgs, none,
	noResult(func(d *director.Director, ctx context.Context, a tenantArgs) error {
		return d.SetTenantWeight(ctx, a.name, int(a.a))
	}))

// SetTenantWeight implements director.TenantAdmin.
func (c *Client) SetTenantWeight(ctx context.Context, name string, weight int) error {
	_, err := call(c, ctx, setTenantWeight, tenantArgs{name: name, a: int64(weight)})
	return err
}

var accountTransfer = declare(49, 0, (*coder).tenantArgs, none,
	noResult(func(d *director.Director, ctx context.Context, a tenantArgs) error {
		return d.AccountTransfer(ctx, a.name, a.a, a.b)
	}))

// AccountTransfer implements director.Metadata.
func (c *Client) AccountTransfer(ctx context.Context, name string, stored, restored int64) error {
	_, err := call(c, ctx, accountTransfer, tenantArgs{name, stored, restored})
	return err
}
