// Package director implements the Σ-Dedupe director component (paper
// §3.1): backup-session management and file-recipe management. The
// director tracks which files belong to which backup session and keeps,
// for every file, the recipe — the ordered list of chunk fingerprints plus
// the node each chunk was routed to — required to reconstruct the file on
// restore. All backup-session-level and file-level metadata lives here;
// deduplication nodes never need to know about files.
//
// Recipes are first-class durable objects when the director is opened
// with a directory (OpenAt): every PutRecipe and DeleteRecipe appends an
// fsynced record to a binary record log (journal.go), and a restarted
// director replays it to recover the full recipe catalog. The recipe catalog is
// what the deletion subsystem hangs off: deleting a backup removes its
// recipe (journaled first — the commit point) and hands the recipe's
// per-node chunk references back to the caller for decref, so nodes can
// account per-container liveness and compact dead space.
package director

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/sderr"
	"sigmadedupe/internal/tenant"
	"sigmadedupe/internal/wire"
)

// Metadata is the director API surface used by backup clients. Both the
// in-process *Director and the TCP client (rpc.DialDirector) satisfy it.
// Recipe paths are composite tenant keys (tenant.Key); BeginSession is
// the hard quota-admission point and TenantStatus feeds the client's soft
// mid-stream quota check.
type Metadata interface {
	BeginSession(ctx context.Context, client, tenantName string) (uint64, error)
	EndSession(ctx context.Context, id uint64) error
	// SwapRecipe installs a path's recipe and returns the generation it
	// superseded (Gen 0: none) — atomically, so the caller releases the
	// old generation's chunk references exactly once.
	SwapRecipe(ctx context.Context, session uint64, path string, chunks []ChunkEntry) (Recipe, error)
	GetRecipe(ctx context.Context, path string) (Recipe, error)
	DeleteRecipe(ctx context.Context, path string) (Recipe, error)
	TenantStatus(ctx context.Context, name string) (TenantStatus, error)
	AccountTransfer(ctx context.Context, name string, stored, restored int64) error
}

// TenantAdmin is the tenant CRUD surface. Both the in-process *Director
// and the TCP client satisfy it.
type TenantAdmin interface {
	CreateTenant(ctx context.Context, info tenant.Info) error
	Tenants(ctx context.Context) ([]TenantStatus, error)
	TenantStatus(ctx context.Context, name string) (TenantStatus, error)
	SetTenantQuota(ctx context.Context, name string, quota int64) error
	SetTenantWeight(ctx context.Context, name string, weight int) error
}

var (
	_ Metadata    = (*Director)(nil)
	_ TenantAdmin = (*Director)(nil)
)

// ChunkEntry is one recipe element: a chunk fingerprint, its size, the
// deduplication node holding it, and the node holding its replica under
// R=2 placement (-1 when the entry has none — node 0 is a valid replica
// site, so the zero value must never be used to mean "no replica").
type ChunkEntry struct {
	FP      fingerprint.Fingerprint
	Size    int32
	Node    int32
	Replica int32
}

// Recipe reconstructs one file: its chunks in stream order. Gen is the
// recipe's modification generation — bumped by every PutRecipe and
// ReplaceRecipe — so optimistic rewriters (the migration engine) can
// detect *any* concurrent change, including another migration's
// rewrite that preserves the session.
type Recipe struct {
	// Path is the composite recipe key: tenant "\x00" name (see
	// tenant.Key). Legacy recipes replay under the default tenant.
	Path    string
	Session uint64
	Gen     uint64
	Chunks  []ChunkEntry
}

// Tenant returns the tenant the recipe belongs to.
func (r Recipe) Tenant() string {
	tn, _ := tenant.SplitKey(r.Path)
	return tn
}

// Name returns the recipe's backup name without the tenant prefix.
func (r Recipe) Name() string {
	_, name := tenant.SplitKey(r.Path)
	return name
}

// Size returns the logical file size described by the recipe.
func (r Recipe) Size() int64 {
	var n int64
	for _, c := range r.Chunks {
		n += int64(c.Size)
	}
	return n
}

// UniqueBytes is the physical size of recipes under exact single-node
// deduplication: the bytes of their distinct fingerprints. A replica is
// the same chunk again and counts once; an isolated tenant's salted
// fingerprints are distinct from everyone else's. Over a catalog snapshot
// (ClusterMeta.Recipes) it is the denominator of the paper's normalized
// dedup ratios, for live data only.
func UniqueBytes(recipes []Recipe) int64 {
	seen := make(map[fingerprint.Fingerprint]struct{})
	var n int64
	for _, r := range recipes {
		for _, c := range r.Chunks {
			if _, ok := seen[c.FP]; !ok {
				seen[c.FP] = struct{}{}
				n += int64(c.Size)
			}
		}
	}
	return n
}

// backupSession groups the files of one backup run of one client.
type backupSession struct {
	ID       uint64
	Client   string
	Tenant   string
	Started  time.Time
	Finished time.Time
	Files    []string
}

// Director is the metadata service. Safe for concurrent use.
type Director struct {
	mu       sync.Mutex
	now      func() time.Time
	nextID   uint64
	sessions map[uint64]*backupSession
	recipes  map[string]*Recipe // latest recipe per path

	// The journals (RECIPES, MEMBERS, TENANTS; nil for an in-RAM
	// director) and the buffer every record is encoded into, under mu.
	recipeLog, memberLog, tenantLog *wire.Log
	rec                             []byte

	// Cluster membership and migration transactions (see membership.go).
	members     MembershipInfo
	nextMig     uint64
	pendingMigs map[uint64]Migration

	// Tenant control plane: configuration, quotas, accounting.
	tenants *tenant.Registry
}

// Errors returned by recipe and session lookups. Both wrap the
// system-wide taxonomy (sderr), so callers can dispatch on either the
// director-level or the taxonomy sentinel, locally and across the wire.
var (
	ErrNoSession = fmt.Errorf("director: %w", sderr.ErrNoSession)
	ErrNoRecipe  = fmt.Errorf("director: no recipe for file: %w", sderr.ErrNotFound)
)

// JournalName is the recipe journal's file name under a durable
// director's directory.
const JournalName = "RECIPES"

// normKey canonicalizes a recipe path to its composite tenant key: a
// flat legacy path (no tenant separator) maps to the default tenant, so
// direct flat-path callers and replayed journals name the same object.
func normKey(path string) string {
	return tenant.Key(tenant.SplitKey(path))
}

// TenantJournalName is the tenant-table journal's file name under a
// durable director's directory.
const TenantJournalName = "TENANTS"

// New creates an empty in-RAM director (recipes do not survive a
// restart; use OpenAt for a durable one).
func New() *Director {
	return &Director{
		now:         time.Now,
		sessions:    make(map[uint64]*backupSession),
		recipes:     make(map[string]*Recipe),
		pendingMigs: make(map[uint64]Migration),
		tenants:     tenant.NewRegistry(),
	}
}

// OpenAt creates a durable director rooted at dir: recipes are journaled
// (fsynced per mutation) to dir/RECIPES and an existing journal is
// replayed, so the recipe catalog survives restarts. Sessions are
// deliberately ephemeral — a recovered recipe keeps its original session
// ID for provenance, but old sessions are not resurrected.
func OpenAt(dir string) (*Director, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("director: create dir: %w", err)
	}
	d := New()
	n := 0
	var err error
	d.recipeLog, err = wire.OpenLog(filepath.Join(dir, JournalName), wire.LogRecipes, legacyRecipeLine, func(body []byte) error {
		n++
		rec, err := decodeRecipeRecord(body)
		if err != nil {
			return fmt.Errorf("record %d: %w", n, err)
		}
		key := tenant.Key(rec.tenant, rec.name)
		if rec.kind == recDel {
			delete(d.recipes, key)
			return nil
		}
		d.recipes[key] = &Recipe{Path: key, Session: rec.session, Gen: rec.gen, Chunks: rec.chunks}
		d.nextID = max(d.nextID, rec.session)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("director: %w", err)
	}
	// Recompute per-tenant accounting from the recovered catalog: live
	// bytes are exact; cumulative logical bytes restart from the live
	// set (superseded history is not replayed).
	d.tenants.ResetUsage()
	for _, r := range d.recipes {
		d.tenants.AccountPut(r.Tenant(), r.Size(), 0, true)
	}
	if err := d.openMembers(dir); err != nil {
		d.Close()
		return nil, err
	}
	if err := d.openTenants(dir); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// openTenants replays and reopens the TENANTS journal: one upsert per
// record, last record per tenant wins. Usage counters are preserved
// across the replay (they were recomputed from the recipe catalog).
func (d *Director) openTenants(dir string) error {
	n := 0
	var err error
	d.tenantLog, err = wire.OpenLog(filepath.Join(dir, TenantJournalName), wire.LogTenants, legacyTenantLine, func(body []byte) error {
		n++
		info, err := decodeTenantRecord(body)
		if err == nil {
			err = d.tenants.Create(info)
		}
		if err != nil {
			return fmt.Errorf("record %d: %w", n, err)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("director: %w", err)
	}
	return nil
}

// appendTenantJournal writes one fsynced tenant upsert; caller holds
// d.mu. A nil journal (in-RAM director) is a no-op.
func (d *Director) appendTenantJournal(info tenant.Info) error {
	return d.writeRecord(d.tenantLog, func(b []byte) []byte { return appendTenant(b, info) })
}

// Close releases the recipe, membership and tenant journals (durable
// directors). Safe on in-RAM directors.
func (d *Director) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var err error
	for _, l := range []*wire.Log{d.recipeLog, d.memberLog, d.tenantLog} {
		if l == nil {
			continue
		}
		if cerr := l.Close(); err == nil {
			err = cerr
		}
	}
	d.recipeLog, d.memberLog, d.tenantLog = nil, nil, nil
	return err
}

// BeginSession opens a backup session for a client under a tenant
// (empty = default) and returns its ID. This is the hard quota
// admission point: a tenant at or over its quota is refused with
// sderr.ErrQuotaExceeded before any bytes flow.
func (d *Director) BeginSession(ctx context.Context, client, tenantName string) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if tenantName == "" {
		tenantName = tenant.Default
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.tenants.Admit(tenantName); err != nil {
		return 0, err
	}
	d.nextID++
	d.sessions[d.nextID] = &backupSession{
		ID:      d.nextID,
		Client:  client,
		Tenant:  tenantName,
		Started: d.now(),
	}
	return d.nextID, nil
}

// EndSession marks a session finished.
func (d *Director) EndSession(ctx context.Context, id uint64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.sessions[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSession, id)
	}
	s.Finished = d.now()
	return nil
}

// PutRecipe is SwapRecipe for callers with no use for the superseded
// generation (fresh paths, tests, replays).
func (d *Director) PutRecipe(ctx context.Context, session uint64, path string, chunks []ChunkEntry) error {
	_, err := d.SwapRecipe(ctx, session, path, chunks)
	return err
}

// SwapRecipe records the recipe of one backed-up file within a session
// and returns the recipe it superseded (Gen 0 when the path was fresh).
// Install and hand-back are one critical section, so every generation
// leaves the catalog exactly once — through the swap that supersedes it
// or the DeleteRecipe that removes it — and whoever receives it releases
// its chunk references exactly once, however re-backups and deletes of
// one name interleave. On a durable director the recipe is journaled
// (fsynced) before it becomes visible.
func (d *Director) SwapRecipe(ctx context.Context, session uint64, path string, chunks []ChunkEntry) (Recipe, error) {
	if err := ctx.Err(); err != nil {
		return Recipe{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.sessions[session]
	if !ok {
		return Recipe{}, fmt.Errorf("%w: %d", ErrNoSession, session)
	}
	path = normKey(path)
	gen := uint64(1)
	var prev Recipe
	var prevSize int64
	if p, existed := d.recipes[path]; existed {
		prev = *p
		gen = prev.Gen + 1
		prevSize = prev.Size()
	}
	tn, name := tenant.SplitKey(path)
	var size int64
	for _, c := range chunks {
		size += int64(c.Size)
	}
	// Hard quota enforcement at the commit point: the recipe is what
	// makes bytes live, so an over-quota put is refused before it is
	// journaled. (The session's soft mid-stream check normally fails the
	// stream long before this.)
	if err := d.tenants.CheckPut(tn, size, prevSize); err != nil {
		return Recipe{}, err
	}
	if err := d.writeRecord(d.recipeLog, func(b []byte) []byte { return appendPut(b, tn, name, session, gen, chunks) }); err != nil {
		return Recipe{}, err
	}
	s.Files = append(s.Files, path)
	cp := make([]ChunkEntry, len(chunks))
	copy(cp, chunks)
	d.recipes[path] = &Recipe{Path: path, Session: session, Gen: gen, Chunks: cp}
	d.tenants.AccountPut(tn, size, prevSize, prev.Gen == 0)
	return prev, nil
}

// DeleteRecipe removes a backup's recipe and returns it so the caller
// can release the recipe's chunk references on the owning nodes. On a
// durable director the deletion is journaled (fsynced) before the recipe
// disappears — the commit point of the backup deletion: delete the
// recipe first, then decref the nodes, so a crash in between can only
// leak references (space), never free chunks a surviving recipe needs.
func (d *Director) DeleteRecipe(ctx context.Context, path string) (Recipe, error) {
	if err := ctx.Err(); err != nil {
		return Recipe{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	path = normKey(path)
	r, ok := d.recipes[path]
	if !ok {
		return Recipe{}, fmt.Errorf("%w: %s", ErrNoRecipe, path)
	}
	tn, name := tenant.SplitKey(path)
	if err := d.writeRecord(d.recipeLog, func(b []byte) []byte { return appendDel(b, tn, name) }); err != nil {
		return Recipe{}, err
	}
	delete(d.recipes, path)
	d.tenants.AccountDelete(tn, r.Size())
	return *r, nil
}

// GetRecipe returns the latest recipe for a path.
func (d *Director) GetRecipe(ctx context.Context, path string) (Recipe, error) {
	if err := ctx.Err(); err != nil {
		return Recipe{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.recipes[normKey(path)]
	if !ok {
		return Recipe{}, fmt.Errorf("%w: %s", ErrNoRecipe, path)
	}
	return *r, nil
}

// GetSession returns a session snapshot.
func (d *Director) GetSession(id uint64) (backupSession, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.sessions[id]
	if !ok {
		return backupSession{}, fmt.Errorf("%w: %d", ErrNoSession, id)
	}
	return *s, nil
}

// Files lists all paths with recipes, sorted.
func (d *Director) Files() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.recipes))
	for p := range d.recipes {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// NumSessions returns the number of sessions ever opened.
func (d *Director) NumSessions() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.sessions)
}

// TenantStatus pairs a tenant's configuration with its current usage —
// the unit of the tenant-list wire response and the metrics endpoint.
type TenantStatus struct {
	Info  tenant.Info
	Usage tenant.Usage
}

// CreateTenant registers (or updates the quota/weight of) a tenant,
// journaled on a durable director. The dedup domain is fixed at first
// creation.
func (d *Director) CreateTenant(ctx context.Context, info tenant.Info) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.tenants.Create(info); err != nil {
		return err
	}
	applied, _ := d.tenants.Get(info.Name)
	return d.appendTenantJournal(applied)
}

// Tenants lists all tenants with their usage, sorted by name.
func (d *Director) Tenants(ctx context.Context) ([]TenantStatus, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	infos := d.tenants.List()
	out := make([]TenantStatus, len(infos))
	for i, info := range infos {
		out[i] = TenantStatus{Info: info, Usage: d.tenants.GetUsage(info.Name)}
	}
	return out, nil
}

// TenantStatus returns one tenant's configuration and usage.
func (d *Director) TenantStatus(ctx context.Context, name string) (TenantStatus, error) {
	if err := ctx.Err(); err != nil {
		return TenantStatus{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	info, err := d.tenants.Get(name)
	if err != nil {
		return TenantStatus{}, err
	}
	return TenantStatus{Info: info, Usage: d.tenants.GetUsage(name)}, nil
}

// SetTenantQuota updates a tenant's byte quota (0 = unlimited),
// journaled.
func (d *Director) SetTenantQuota(ctx context.Context, name string, quota int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.tenants.SetQuota(name, quota); err != nil {
		return err
	}
	applied, _ := d.tenants.Get(name)
	return d.appendTenantJournal(applied)
}

// SetTenantWeight updates a tenant's fair-share weight, journaled.
func (d *Director) SetTenantWeight(ctx context.Context, name string, weight int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.tenants.SetWeight(name, weight); err != nil {
		return err
	}
	applied, _ := d.tenants.Get(name)
	return d.appendTenantJournal(applied)
}

// AccountTransfer records a session's post-dedup stored bytes and a
// restore's bytes against a tenant's cumulative counters (not
// journaled: transfer gauges are observability, not quota state).
func (d *Director) AccountTransfer(ctx context.Context, name string, stored, restored int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d.tenants.AccountTransfer(name, stored, restored)
	return nil
}

// Registry exposes the tenant registry.
func (d *Director) Registry() *tenant.Registry { return d.tenants }
