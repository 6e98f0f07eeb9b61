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
// fsynced record to a JSON-lines journal, and a restarted director
// replays it to recover the full recipe catalog. The recipe catalog is
// what the deletion subsystem hangs off: deleting a backup removes its
// recipe (journaled first — the commit point) and hands the recipe's
// per-node chunk references back to the caller for decref, so nodes can
// account per-container liveness and compact dead space.
package director

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/sderr"
	"sigmadedupe/internal/tenant"
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

// Session groups the files of one backup run of one client.
type Session struct {
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
	sessions map[uint64]*Session
	recipes  map[string]*Recipe // latest recipe per path
	journal  *os.File           // nil for an in-RAM director

	// Cluster membership and migration transactions (see membership.go).
	members     MembershipInfo
	nextMig     uint64
	pendingMigs map[uint64]Migration
	memJournal  *os.File // nil for an in-RAM director

	// Tenant control plane: configuration, quotas, accounting.
	tenants    *tenant.Registry
	tenJournal *os.File // nil for an in-RAM director
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

// recipeRecord is one line of the recipe journal. Tenant carries the
// owning tenant's ID; a record written before multi-tenancy existed has
// no "tenant" field and decodes as "", which replays into the default
// tenant (Path then being the full user-visible backup name).
type recipeRecord struct {
	T       string      `json:"t"` // "put" or "del"
	Tenant  string      `json:"tenant,omitempty"`
	Path    string      `json:"path"`
	Session uint64      `json:"session,omitempty"`
	Gen     uint64      `json:"gen,omitempty"`
	Chunks  []chunkJSON `json:"chunks,omitempty"`
}

// tenantRecord is one line of the tenant journal: a full upsert of one
// tenant's configuration (last record per name wins on replay).
type tenantRecord struct {
	Name   string `json:"name"`
	Domain string `json:"domain"`
	Quota  int64  `json:"quota,omitempty"`
	Weight int    `json:"weight,omitempty"`
}

type chunkJSON struct {
	FP   string `json:"fp"`
	Size int32  `json:"size"`
	Node int32  `json:"node"`
	// R journals the replica attribution shifted by one (R = Replica+1)
	// so a journal written before replication existed — no "r" field,
	// decodes as 0 — replays as Replica -1, never as "replica on node 0".
	R int32 `json:"r,omitempty"`
}

// New creates an empty in-RAM director (recipes do not survive a
// restart; use OpenAt for a durable one).
func New() *Director {
	return &Director{
		now:         time.Now,
		sessions:    make(map[uint64]*Session),
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
	path := filepath.Join(dir, JournalName)
	raw, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("director: read journal: %w", err)
	}
	lines := bytes.Split(raw, []byte{'\n'})
	for i, ln := range lines {
		ln = bytes.TrimSpace(ln)
		if len(ln) == 0 {
			continue
		}
		var rec recipeRecord
		if err := json.Unmarshal(ln, &rec); err != nil {
			if i == len(lines)-1 {
				break // torn tail write from a crash mid-append
			}
			return nil, fmt.Errorf("director: journal line %d: %w", i+1, err)
		}
		key := tenant.Key(rec.Tenant, rec.Path)
		switch rec.T {
		case "put":
			chunks := make([]ChunkEntry, len(rec.Chunks))
			for j, c := range rec.Chunks {
				fp, err := fingerprint.Parse(c.FP)
				if err != nil {
					return nil, fmt.Errorf("director: journal line %d: %w", i+1, err)
				}
				chunks[j] = ChunkEntry{FP: fp, Size: c.Size, Node: c.Node, Replica: c.R - 1}
			}
			d.recipes[key] = &Recipe{Path: key, Session: rec.Session, Gen: rec.Gen, Chunks: chunks}
			if rec.Session > d.nextID {
				d.nextID = rec.Session
			}
		case "del":
			delete(d.recipes, key)
		default:
			return nil, fmt.Errorf("director: journal line %d: unknown record type %q", i+1, rec.T)
		}
	}
	// Recompute per-tenant accounting from the recovered catalog: live
	// bytes are exact; cumulative logical bytes restart from the live
	// set (superseded history is not replayed).
	d.tenants.ResetUsage()
	for _, r := range d.recipes {
		d.tenants.AccountPut(r.Tenant(), r.Size(), 0, true)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("director: open journal: %w", err)
	}
	d.journal = f
	if err := d.openMembers(dir); err != nil {
		f.Close()
		return nil, err
	}
	if err := d.openTenants(dir); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// openTenants replays and reopens the TENANTS journal: one JSON upsert
// per line, last record per tenant wins. Usage counters are preserved
// across the replay (they were recomputed from the recipe catalog).
func (d *Director) openTenants(dir string) error {
	path := filepath.Join(dir, TenantJournalName)
	raw, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("director: read tenant journal: %w", err)
	}
	lines := bytes.Split(raw, []byte{'\n'})
	for i, ln := range lines {
		ln = bytes.TrimSpace(ln)
		if len(ln) == 0 {
			continue
		}
		var rec tenantRecord
		if err := json.Unmarshal(ln, &rec); err != nil {
			if i == len(lines)-1 {
				break // torn tail write from a crash mid-append
			}
			return fmt.Errorf("director: tenant journal line %d: %w", i+1, err)
		}
		if err := d.tenants.Create(tenant.Info{
			Name: rec.Name, Domain: rec.Domain, QuotaBytes: rec.Quota, Weight: rec.Weight,
		}); err != nil {
			return fmt.Errorf("director: tenant journal line %d: %w", i+1, err)
		}
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("director: open tenant journal: %w", err)
	}
	d.tenJournal = f
	return nil
}

// appendTenantJournal writes one fsynced tenant upsert; caller holds
// d.mu. A nil journal (in-RAM director) is a no-op.
func (d *Director) appendTenantJournal(info tenant.Info) error {
	if d.tenJournal == nil {
		return nil
	}
	line, err := json.Marshal(tenantRecord{
		Name: info.Name, Domain: info.Domain, Quota: info.QuotaBytes, Weight: info.Weight,
	})
	if err != nil {
		return fmt.Errorf("director: encode tenant record: %w", err)
	}
	if _, err := d.tenJournal.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("director: tenant journal append: %w", err)
	}
	if err := d.tenJournal.Sync(); err != nil {
		return fmt.Errorf("director: tenant journal sync: %w", err)
	}
	return nil
}

// appendJournal writes one fsynced record; caller holds d.mu. A nil
// journal (in-RAM director) is a no-op.
func (d *Director) appendJournal(rec recipeRecord) error {
	if d.journal == nil {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("director: encode journal record: %w", err)
	}
	if _, err := d.journal.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("director: journal append: %w", err)
	}
	if err := d.journal.Sync(); err != nil {
		return fmt.Errorf("director: journal sync: %w", err)
	}
	return nil
}

// Close releases the recipe and membership journals (durable
// directors). Safe on in-RAM directors.
func (d *Director) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var err error
	if d.journal != nil {
		err = d.journal.Close()
		d.journal = nil
	}
	if d.memJournal != nil {
		if cerr := d.memJournal.Close(); err == nil {
			err = cerr
		}
		d.memJournal = nil
	}
	if d.tenJournal != nil {
		if cerr := d.tenJournal.Close(); err == nil {
			err = cerr
		}
		d.tenJournal = nil
	}
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
	d.sessions[d.nextID] = &Session{
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
	if d.journal != nil {
		js := make([]chunkJSON, len(chunks))
		for i, c := range chunks {
			js[i] = chunkJSON{FP: c.FP.String(), Size: c.Size, Node: c.Node, R: c.Replica + 1}
		}
		if err := d.appendJournal(recipeRecord{T: "put", Tenant: tn, Path: name, Session: session, Gen: gen, Chunks: js}); err != nil {
			return Recipe{}, err
		}
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
	if err := d.appendJournal(recipeRecord{T: "del", Tenant: tn, Path: name}); err != nil {
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
func (d *Director) GetSession(id uint64) (Session, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.sessions[id]
	if !ok {
		return Session{}, fmt.Errorf("%w: %d", ErrNoSession, id)
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

// Registry exposes the tenant registry (weight lookups for the
// scheduler, headroom for soft quota checks on the in-process backend).
func (d *Director) Registry() *tenant.Registry { return d.tenants }
