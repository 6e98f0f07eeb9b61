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

// The director's metadata verbs ride the node's call layer: the same
// frame header, IDs, wire deadline, handler context and connection
// lifecycle, on connections that open with wire.ProtoDirector. Each verb
// is declared once (verb): how its argument and result walk the wire —
// one walk both encodes and decodes, so the two sides cannot drift apart
// (coder) — and which director method serves it. Its Client method calls
// it; the server finds it by op. So *Client satisfies director.Metadata,
// director.TenantAdmin and director.ClusterMeta.

var (
	_ director.Metadata    = (*Client)(nil)
	_ director.TenantAdmin = (*Client)(nil)
	_ director.ClusterMeta = (*Client)(nil)
)

// dirVerb is one director op with argument A and result R. Ops are
// numbered from 32, apart from the node's, so a verb sent to the wrong
// kind of server is answered "unknown op"; a number, once given, stays.
type dirVerb[A, R any] struct {
	op     opcode
	args   func(*coder, *A)
	result func(*coder, *R)
	run    func(*director.Director, context.Context, A) (R, error)
}

// dirHandler is a verb's server half.
type dirHandler interface {
	serve(ctx context.Context, d *director.Director, r *wire.Reader) (result func(*coder), err error)
}

// dirVerbs finds a verb's server half by op.
var dirVerbs = map[opcode]dirHandler{}

// verb declares a director op and registers its server half.
func verb[A, R any](op opcode, args func(*coder, *A), result func(*coder, *R), run func(*director.Director, context.Context, A) (R, error)) dirVerb[A, R] {
	v := dirVerb[A, R]{op, args, result, run}
	dirVerbs[op] = v
	return v
}

// serve decodes the argument from r, runs the verb on d and returns the
// walk that encodes its result.
func (v dirVerb[A, R]) serve(ctx context.Context, d *director.Director, r *wire.Reader) (func(*coder), error) {
	var a A
	v.args(&coder{r: r}, &a)
	if err := r.Done(); err != nil {
		return nil, err
	}
	res, err := v.run(d, ctx, a)
	return func(x *coder) { v.result(x, &res) }, err
}

// call makes the director call v with argument a: the Client side of
// every verb.
func call[A, R any](c *Client, ctx context.Context, v dirVerb[A, R], a A) (res R, err error) {
	id := c.nextID.Add(1)
	x := coder{b: appendRequestHeader(append(wire.GetBuf(4 << 10)[:0], 0, 0, 0, 0), id, v.op, wireTimeout(ctx))}
	v.args(&x, &a)
	frame, err := c.roundTrip(ctx, id, v.op, x.b, nil)
	if err != nil {
		return res, err
	}
	defer wire.PutBuf(frame)
	r := wire.NewReader(frame)
	r.U8() // kind and ID: the read loop matched them
	r.U64()
	if msg := r.String(); msg != "" {
		return res, dirError(msg)
	}
	v.result(&coder{r: r}, &res)
	if err := r.Done(); err != nil {
		return res, fmt.Errorf("rpc: decode director reply: %w", err)
	}
	return res, nil
}

// DialDirector connects to a director server (NewDirectorServer),
// honoring ctx for the dial itself.
func DialDirector(ctx context.Context, addr string) (*Client, error) {
	return dialClient(ctx, addr, wire.ProtoDirector)
}

// dirError rehydrates the sentinel errors callers dispatch on (a missing
// recipe must stay distinguishable from a transport failure — the
// client's supersede logic skips its decref only on ErrNoRecipe). The
// taxonomy codec restores the sderr sentinel; the director-level
// sentinel wrapping it is re-attached on top so errors.Is holds for both.
func dirError(msg string) error {
	err := sderr.Decode(msg)
	for _, de := range []error{director.ErrNoRecipe, director.ErrNoSession, director.ErrRecipeConflict} {
		if errors.Is(err, errors.Unwrap(de)) {
			return fmt.Errorf("%w: %w", de, err)
		}
	}
	return err
}

// handleDirector answers one director call under the call's context.
func (s *Server) handleDirector(connCtx context.Context, w *respWriter, frame []byte) {
	r := wire.NewReader(frame)
	id, op, timeoutMS, err := decodeRequestHeader(r)
	if err != nil {
		w.conn.Close()
		return
	}
	ctx, cancel := s.callContext(connCtx, timeoutMS)
	defer cancel()
	var result func(*coder)
	switch h := dirVerbs[op]; {
	case ctx.Err() != nil:
		err = ctx.Err()
	case h == nil:
		err = fmt.Errorf("unknown op %d", int(op))
	default:
		result, err = h.serve(ctx, s.dir, r)
	}
	if connCtx.Err() != nil {
		return // nobody can read the reply
	}
	x := coder{b: appendResponseHeader(wire.GetBuf(4 << 10)[:0], id, sderr.Encode(err))}
	if err == nil {
		result(&x)
	}
	w.sendFrame(x.b)
	wire.PutBuf(x.b)
}

// coder walks a message's fields in wire order: with r set it decodes
// into them, otherwise it appends them to b. One walk per message keeps
// the two directions from drifting apart.
type coder struct {
	b []byte
	r *wire.Reader
}

func walk[T any](x *coder, v *T, put func([]byte, T) []byte, get func() T) {
	if x.r != nil {
		*v = get()
	} else {
		x.b = put(x.b, *v)
	}
}

func (x *coder) u64(v *uint64) { walk(x, v, wire.AppendU64, x.r.U64) }
func (x *coder) i64(v *int64)  { walk(x, v, wire.AppendI64, x.r.I64) }
func (x *coder) str(v *string) { walk(x, v, wire.AppendString, x.r.String) }

func (x *coder) i32(v *int32) { u := uint32(*v); walk(x, &u, wire.AppendU32, x.r.U32); *v = int32(u) }
func (x *coder) int(v *int)   { n := int64(*v); x.i64(&n); *v = int(n) }

func (x *coder) fp(v *fingerprint.Fingerprint) {
	if x.r != nil {
		copy(v[:], x.r.Raw(fingerprint.Size))
	} else {
		x.b = append(x.b, v[:]...)
	}
}

// list walks a u32-counted list whose elements take at least min bytes
// on the wire (the bound that keeps a corrupt count from allocating).
func list[T any](x *coder, v *[]T, min int, each func(*T)) {
	if x.r == nil {
		x.b = wire.AppendU32(x.b, uint32(len(*v)))
	} else if n := x.r.Count(min); n > 0 {
		*v = make([]T, n)
	} else {
		*v = nil
	}
	for i := range *v {
		each(&(*v)[i])
	}
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

// none walks the empty argument or result.
func none(*coder, *struct{}) {}

// noArg adapts a director method that takes no argument.
func noArg[R any](f func(*director.Director, context.Context) (R, error)) func(*director.Director, context.Context, struct{}) (R, error) {
	return func(d *director.Director, ctx context.Context, _ struct{}) (R, error) { return f(d, ctx) }
}

// noResult adapts a director method that returns only an error.
func noResult[A any](f func(*director.Director, context.Context, A) error) func(*director.Director, context.Context, A) (struct{}, error) {
	return func(d *director.Director, ctx context.Context, a A) (struct{}, error) {
		return struct{}{}, f(d, ctx, a)
	}
}

// The verbs, each with its Client method.

type sessionArgs struct{ client, tenant string }

var beginSession = verb(32,
	func(x *coder, a *sessionArgs) { x.str(&a.client); x.str(&a.tenant) }, (*coder).u64,
	func(d *director.Director, ctx context.Context, a sessionArgs) (uint64, error) {
		return d.BeginSession(ctx, a.client, a.tenant)
	})

// BeginSession implements director.Metadata: quota admission happens on
// the director, and a refusal decodes back to sderr.ErrQuotaExceeded.
func (c *Client) BeginSession(ctx context.Context, client, tenantName string) (uint64, error) {
	return call(c, ctx, beginSession, sessionArgs{client, tenantName})
}

var endSession = verb(33, (*coder).u64, none, noResult((*director.Director).EndSession))

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

var swapRecipe = verb(34,
	func(x *coder, a *swapArgs) { x.u64(&a.session); x.str(&a.path); x.entries(&a.chunks) }, (*coder).recipe,
	func(d *director.Director, ctx context.Context, a swapArgs) (director.Recipe, error) {
		return d.SwapRecipe(ctx, a.session, a.path, a.chunks)
	})

// SwapRecipe implements director.Metadata.
func (c *Client) SwapRecipe(ctx context.Context, session uint64, path string, chunks []director.ChunkEntry) (director.Recipe, error) {
	return call(c, ctx, swapRecipe, swapArgs{session, path, chunks})
}

var getRecipe = verb(35, (*coder).str, (*coder).recipe, (*director.Director).GetRecipe)

// GetRecipe implements director.Metadata.
func (c *Client) GetRecipe(ctx context.Context, path string) (director.Recipe, error) {
	return call(c, ctx, getRecipe, path)
}

var deleteRecipe = verb(36, (*coder).str, (*coder).recipe, (*director.Director).DeleteRecipe)

// DeleteRecipe implements director.Metadata.
func (c *Client) DeleteRecipe(ctx context.Context, path string) (director.Recipe, error) {
	return call(c, ctx, deleteRecipe, path)
}

var members = verb(37, none, (*coder).members, noArg((*director.Director).Members))

// Members implements director.ClusterMeta.
func (c *Client) Members(ctx context.Context) (director.MembershipInfo, error) {
	return call(c, ctx, members, struct{}{})
}

type membersArgs struct {
	ifEpoch uint64
	nodes   []director.NodeInfo
}

var setMembers = verb(38,
	func(x *coder, a *membersArgs) { x.u64(&a.ifEpoch); x.nodes(&a.nodes) }, (*coder).members,
	func(d *director.Director, ctx context.Context, a membersArgs) (director.MembershipInfo, error) {
		return d.SetMembers(ctx, a.ifEpoch, a.nodes)
	})

// SetMembers implements director.ClusterMeta.
func (c *Client) SetMembers(ctx context.Context, ifEpoch uint64, nodes []director.NodeInfo) (director.MembershipInfo, error) {
	return call(c, ctx, setMembers, membersArgs{ifEpoch, nodes})
}

var beginMigration = verb(39, (*coder).migration, (*coder).u64, (*director.Director).BeginMigration)

// BeginMigration implements director.ClusterMeta.
func (c *Client) BeginMigration(ctx context.Context, m director.Migration) (uint64, error) {
	return call(c, ctx, beginMigration, m)
}

var endMigration = verb(40, (*coder).u64, none, noResult((*director.Director).EndMigration))

// EndMigration implements director.ClusterMeta.
func (c *Client) EndMigration(ctx context.Context, id uint64) error {
	_, err := call(c, ctx, endMigration, id)
	return err
}

var pendingMigrations = verb(41, none,
	func(x *coder, v *[]director.Migration) { list(x, v, 40, x.migration) }, // ≥ 40 fixed bytes each
	noArg((*director.Director).PendingMigrations))

// PendingMigrations implements director.ClusterMeta.
func (c *Client) PendingMigrations(ctx context.Context) ([]director.Migration, error) {
	return call(c, ctx, pendingMigrations, struct{}{})
}

var recipes = verb(42, none,
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

var replaceRecipe = verb(43,
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

var createTenant = verb(44, (*coder).tenantInfo, none, noResult((*director.Director).CreateTenant))

// CreateTenant implements director.TenantAdmin.
func (c *Client) CreateTenant(ctx context.Context, info tenant.Info) error {
	_, err := call(c, ctx, createTenant, info)
	return err
}

var tenants = verb(45, none,
	func(x *coder, v *[]director.TenantStatus) { list(x, v, 64, x.tenantStatus) }, // ≥ 64 fixed bytes each
	noArg((*director.Director).Tenants))

// Tenants implements director.TenantAdmin.
func (c *Client) Tenants(ctx context.Context) ([]director.TenantStatus, error) {
	return call(c, ctx, tenants, struct{}{})
}

var tenantStatus = verb(46, (*coder).str, (*coder).tenantStatus, (*director.Director).TenantStatus)

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

var setTenantQuota = verb(47, (*coder).tenantArgs, none,
	noResult(func(d *director.Director, ctx context.Context, a tenantArgs) error {
		return d.SetTenantQuota(ctx, a.name, a.a)
	}))

// SetTenantQuota implements director.TenantAdmin.
func (c *Client) SetTenantQuota(ctx context.Context, name string, quota int64) error {
	_, err := call(c, ctx, setTenantQuota, tenantArgs{name: name, a: quota})
	return err
}

var setTenantWeight = verb(48, (*coder).tenantArgs, none,
	noResult(func(d *director.Director, ctx context.Context, a tenantArgs) error {
		return d.SetTenantWeight(ctx, a.name, int(a.a))
	}))

// SetTenantWeight implements director.TenantAdmin.
func (c *Client) SetTenantWeight(ctx context.Context, name string, weight int) error {
	_, err := call(c, ctx, setTenantWeight, tenantArgs{name: name, a: int64(weight)})
	return err
}

var accountTransfer = verb(49, (*coder).tenantArgs, none,
	noResult(func(d *director.Director, ctx context.Context, a tenantArgs) error {
		return d.AccountTransfer(ctx, a.name, a.a, a.b)
	}))

// AccountTransfer implements director.Metadata.
func (c *Client) AccountTransfer(ctx context.Context, name string, stored, restored int64) error {
	_, err := call(c, ctx, accountTransfer, tenantArgs{name, stored, restored})
	return err
}
