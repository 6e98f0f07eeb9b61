// Package tenant is the multi-tenant control plane of the Σ-Dedupe
// system: tenant identity and validation, the per-tenant dedup-domain
// choice (shared cluster-wide index vs an isolated, fingerprint-salted
// domain), byte quotas with live/logical accounting, and the
// weighted-fair scheduler that splits ingest bandwidth between
// concurrent tenant sessions.
//
// The package is deliberately storage-agnostic: the director embeds a
// Registry behind its journal on the TCP backend, and the simulator
// facade embeds one directly. Both backends thread the same Scheduler
// in front of their in-flight super-chunk windows.
package tenant

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"sync"

	"sigmadedupe/internal/sderr"
)

// Default is the tenant every legacy (pre-tenant) backup belongs to. It
// always exists, shares the cluster-wide dedup domain, and has no quota.
const Default = "default"

// Dedup domains. Shared tenants participate in the cluster-wide
// similarity and chunk indexes (cross-tenant dedup); isolated tenants
// have their fingerprints salted with a tenant-specific value before
// they ever leave the client, so their chunks and handprints never
// collide with — and never dedup against — another tenant's.
const (
	DomainShared   = "shared"
	DomainIsolated = "isolated"
)

// Info is the durable configuration of one tenant.
type Info struct {
	// Name identifies the tenant. Validated by validateName.
	Name string
	// Domain is DomainShared or DomainIsolated; fixed at creation.
	Domain string
	// QuotaBytes caps the tenant's live logical bytes; 0 = unlimited.
	QuotaBytes int64
	// Weight is the tenant's fair-share weight (≥ 1).
	Weight int
}

// Usage is the byte accounting for one tenant.
type Usage struct {
	// LiveBytes is the logical size of the tenant's current backups
	// (what quota is enforced against).
	LiveBytes int64
	// LogicalBytes is cumulative bytes ever backed up (monotonic).
	LogicalBytes int64
	// StoredBytes is cumulative unique bytes the tenant's sessions
	// actually transferred to nodes (post-dedup).
	StoredBytes int64
	// RestoredBytes is cumulative bytes restored.
	RestoredBytes int64
	// Backups is the tenant's current backup count.
	Backups int64
}

// DedupRatio is the tenant's cumulative logical/stored ratio. A tenant
// whose every byte deduplicated (stored 0 of N logical bytes) reports N,
// the ratio against less than one stored byte — large and finite, so the
// gauge stays JSON-encodable. 1.0 when the tenant never backed up.
func (u Usage) DedupRatio() float64 {
	if u.StoredBytes == 0 {
		if u.LogicalBytes == 0 {
			return 1
		}
		return float64(u.LogicalBytes)
	}
	return float64(u.LogicalBytes) / float64(u.StoredBytes)
}

// validateName checks a tenant name: 1–64 bytes of letters, digits,
// '-', '_' or '.'. The restriction (no '/', no separators, no controls)
// is what keeps composite tenant+name recipe keys unambiguous.
func validateName(name string) error {
	if name == "" || len(name) > 64 {
		return fmt.Errorf("tenant name %q: must be 1-64 characters", name)
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("tenant name %q: only letters, digits, '-', '_', '.' allowed", name)
		}
	}
	return nil
}

// ValidateBackupName checks a user-supplied backup name at the API
// boundary. Names may contain '/' freely (existing callers use
// path-like names); what they may not contain is the NUL byte Key uses
// as the tenant separator, or be empty.
func ValidateBackupName(name string) error {
	if name == "" {
		return fmt.Errorf("backup name must not be empty")
	}
	for i := 0; i < len(name); i++ {
		if name[i] == 0 {
			return fmt.Errorf("backup name %q: NUL byte not allowed", name)
		}
	}
	return nil
}

// Key joins a tenant and a backup name into the composite recipe key.
// The NUL separator cannot appear in a validated tenant name or backup
// name, so a user-supplied name containing '/' (e.g. "a/b") can never
// collide with another tenant's key — unlike a naive "tenant/name"
// join. The default tenant keeps flat keys: every pre-tenant recipe
// key, journal record and caller-visible path is unchanged.
func Key(tenant, name string) string {
	if tenant == "" || tenant == Default {
		return name
	}
	return tenant + "\x00" + name
}

// SplitKey is the inverse of Key. Legacy keys with no separator belong
// to the default tenant.
func SplitKey(key string) (tenant, name string) {
	for i := 0; i < len(key); i++ {
		if key[i] == 0 {
			return key[:i], key[i+1:]
		}
	}
	return Default, key
}

// Salt derives the 32-byte fingerprint salt for an isolated tenant's
// dedup domain. Shared-domain tenants use no salt (all zero).
func Salt(name string) [32]byte {
	return sha256.Sum256([]byte("sigma-dedupe tenant domain\x00" + name))
}

// Registry holds the tenant table and its usage accounting. It is safe
// for concurrent use. Durability is the embedder's problem: a durable
// director journals mutations to its TENANTS journal and replays them
// into a fresh Registry on restart; an in-RAM one (the simulator's)
// just keeps it in memory.
type Registry struct {
	mu      sync.Mutex
	tenants map[string]*Info
	usage   map[string]*Usage
}

// NewRegistry returns a registry pre-populated with the default tenant
// (shared domain, unlimited quota, weight 1).
func NewRegistry() *Registry {
	r := &Registry{
		tenants: make(map[string]*Info),
		usage:   make(map[string]*Usage),
	}
	r.tenants[Default] = &Info{Name: Default, Domain: DomainShared, Weight: 1}
	r.usage[Default] = &Usage{}
	return r
}

// Create adds a tenant. Creating an existing tenant with the same
// domain is idempotent; with a different domain it conflicts (the
// domain is fixed at creation — flipping it would corrupt the dedup
// index keying).
func (r *Registry) Create(info Info) error {
	if err := validateName(info.Name); err != nil {
		return err
	}
	switch info.Domain {
	case "":
		info.Domain = DomainShared
	case DomainShared, DomainIsolated:
	default:
		return fmt.Errorf("tenant %s: unknown dedup domain %q", info.Name, info.Domain)
	}
	if info.Weight <= 0 {
		info.Weight = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.tenants[info.Name]; ok {
		if prev.Domain != info.Domain {
			return fmt.Errorf("tenant %s exists with domain %s: %w", info.Name, prev.Domain, sderr.ErrConflict)
		}
		prev.QuotaBytes = info.QuotaBytes
		prev.Weight = info.Weight
		return nil
	}
	cp := info
	r.tenants[info.Name] = &cp
	if _, ok := r.usage[info.Name]; !ok {
		r.usage[info.Name] = &Usage{}
	}
	return nil
}

// CheckPut is the quota pre-check for a backup of size bytes superseding
// prevSize bytes, without mutating any counters — callers journal the
// recipe between CheckPut and AccountPut.
func (r *Registry) CheckPut(name string, size, prevSize int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[name]
	if !ok {
		return nil
	}
	u := r.usage[name]
	if t.QuotaBytes > 0 && u.LiveBytes-prevSize+size > t.QuotaBytes {
		return fmt.Errorf("tenant %s: backup of %d bytes exceeds quota %d (live %d): %w",
			name, size, t.QuotaBytes, u.LiveBytes, sderr.ErrQuotaExceeded)
	}
	return nil
}

// Get returns a tenant's configuration.
func (r *Registry) Get(name string) (Info, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[name]
	if !ok {
		return Info{}, fmt.Errorf("tenant %s: %w", name, sderr.ErrNotFound)
	}
	return *t, nil
}

// List returns all tenants sorted by name.
func (r *Registry) List() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Info, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SetQuota updates a tenant's quota (0 = unlimited).
func (r *Registry) SetQuota(name string, quota int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[name]
	if !ok {
		return fmt.Errorf("tenant %s: %w", name, sderr.ErrNotFound)
	}
	t.QuotaBytes = quota
	return nil
}

// SetWeight updates a tenant's fair-share weight.
func (r *Registry) SetWeight(name string, weight int) error {
	if weight <= 0 {
		return fmt.Errorf("tenant %s: weight must be >= 1", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[name]
	if !ok {
		return fmt.Errorf("tenant %s: %w", name, sderr.ErrNotFound)
	}
	t.Weight = weight
	return nil
}

// GetUsage returns a tenant's current accounting.
func (r *Registry) GetUsage(name string) Usage {
	r.mu.Lock()
	defer r.mu.Unlock()
	if u, ok := r.usage[name]; ok {
		return *u
	}
	return Usage{}
}

// Admit is the hard quota check at session admission: a tenant already
// at or over quota may not begin a backup session. Unknown tenants are
// rejected (the default tenant always exists).
func (r *Registry) Admit(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[name]
	if !ok {
		return fmt.Errorf("tenant %s: %w", name, sderr.ErrNotFound)
	}
	u := r.usage[name]
	if t.QuotaBytes > 0 && u.LiveBytes >= t.QuotaBytes {
		return fmt.Errorf("tenant %s: live %d >= quota %d bytes: %w",
			name, u.LiveBytes, t.QuotaBytes, sderr.ErrQuotaExceeded)
	}
	return nil
}

// AccountPut records a finished backup of size bytes that superseded a
// previous generation of prevSize bytes (0 for a fresh name). The quota
// was enforced before the recipe was journaled (CheckPut).
func (r *Registry) AccountPut(name string, size, prevSize int64, newBackup bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	u, ok := r.usage[name]
	if !ok {
		u = &Usage{}
		r.usage[name] = u
	}
	u.LiveBytes += size - prevSize
	u.LogicalBytes += size
	if newBackup {
		u.Backups++
	}
}

// AccountDelete records a deleted backup of size bytes.
func (r *Registry) AccountDelete(name string, size int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if u, ok := r.usage[name]; ok {
		u.LiveBytes -= size
		if u.LiveBytes < 0 {
			u.LiveBytes = 0
		}
		if u.Backups > 0 {
			u.Backups--
		}
	}
}

// AccountTransfer adds post-dedup stored bytes and restored bytes to
// the tenant's cumulative counters.
func (r *Registry) AccountTransfer(name string, stored, restored int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	u, ok := r.usage[name]
	if !ok {
		u = &Usage{}
		r.usage[name] = u
	}
	u.StoredBytes += stored
	u.RestoredBytes += restored
}

// ResetUsage clears all usage counters (journal replay starts from a
// clean slate before recipes are re-accounted).
func (r *Registry) ResetUsage() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k := range r.usage {
		r.usage[k] = &Usage{}
	}
}
