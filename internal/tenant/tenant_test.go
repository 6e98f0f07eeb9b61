package tenant

import (
	"errors"
	"strings"
	"testing"

	"sigmadedupe/internal/sderr"
)

func TestValidateName(t *testing.T) {
	for _, name := range []string{"a", "acme", "Acme-2.prod_eu", strings.Repeat("x", 64)} {
		if err := ValidateName(name); err != nil {
			t.Errorf("ValidateName(%q) = %v, want nil", name, err)
		}
	}
	for _, name := range []string{"", strings.Repeat("x", 65), "a/b", "a b", "a\x00b", "ümlaut"} {
		if err := ValidateName(name); err == nil {
			t.Errorf("ValidateName(%q) = nil, want error", name)
		}
	}
}

func TestValidateBackupName(t *testing.T) {
	// Slashes are explicitly fine — path-like names are the norm.
	for _, name := range []string{"etc/passwd", "/vm/disk.img", "a", "weird name (1)"} {
		if err := ValidateBackupName(name); err != nil {
			t.Errorf("ValidateBackupName(%q) = %v, want nil", name, err)
		}
	}
	for _, name := range []string{"", "a\x00b", "\x00"} {
		if err := ValidateBackupName(name); err == nil {
			t.Errorf("ValidateBackupName(%q) = nil, want error", name)
		}
	}
}

func TestKeyRoundTrip(t *testing.T) {
	cases := []struct {
		tenant, name, key string
	}{
		{Default, "backup1", "backup1"},        // default tenant: flat legacy key
		{"", "backup1", "backup1"},             // empty = default
		{"acme", "backup1", "acme\x00backup1"}, // composite
		{"acme", "a/b/c", "acme\x00a/b/c"},     // slashes stay ambiguity-free
		{"acme", "bravo/x", "acme\x00bravo/x"}, // cannot collide with tenant "acme/bravo"
	}
	for _, c := range cases {
		if got := Key(c.tenant, c.name); got != c.key {
			t.Errorf("Key(%q, %q) = %q, want %q", c.tenant, c.name, got, c.key)
		}
		wantTenant := c.tenant
		if wantTenant == "" {
			wantTenant = Default
		}
		tn, name := SplitKey(c.key)
		if tn != wantTenant || name != c.name {
			t.Errorf("SplitKey(%q) = (%q, %q), want (%q, %q)", c.key, tn, name, wantTenant, c.name)
		}
	}
	// A legacy key with no separator belongs to the default tenant.
	if tn, name := SplitKey("old/backup"); tn != Default || name != "old/backup" {
		t.Errorf("SplitKey legacy = (%q, %q)", tn, name)
	}
}

func TestSaltDistinctAndDeterministic(t *testing.T) {
	a1, a2, b := Salt("a"), Salt("a"), Salt("b")
	if a1 != a2 {
		t.Error("Salt not deterministic")
	}
	if a1 == b {
		t.Error("different tenants got the same salt")
	}
	if a1 == ([32]byte{}) {
		t.Error("salt is all zero")
	}
}

func TestRegistryCreate(t *testing.T) {
	r := NewRegistry()
	// The default tenant pre-exists.
	if _, err := r.Get(Default); err != nil {
		t.Fatalf("default tenant missing: %v", err)
	}
	if err := r.Create(Info{Name: "acme", Domain: DomainIsolated, QuotaBytes: 100, Weight: 3}); err != nil {
		t.Fatal(err)
	}
	got, err := r.Get("acme")
	if err != nil {
		t.Fatal(err)
	}
	if got.Domain != DomainIsolated || got.QuotaBytes != 100 || got.Weight != 3 {
		t.Errorf("Get = %+v", got)
	}
	// Same domain: idempotent, updates quota/weight, keeps usage.
	r.AccountPut("acme", 50, 0, true)
	if err := r.Create(Info{Name: "acme", Domain: DomainIsolated, QuotaBytes: 200, Weight: 1}); err != nil {
		t.Fatalf("idempotent create: %v", err)
	}
	if got, _ := r.Get("acme"); got.QuotaBytes != 200 {
		t.Errorf("re-create did not update quota: %+v", got)
	}
	if u := r.GetUsage("acme"); u.LiveBytes != 50 {
		t.Errorf("re-create clobbered usage: %+v", u)
	}
	// Different domain: conflict.
	err = r.Create(Info{Name: "acme", Domain: DomainShared})
	if !errors.Is(err, sderr.ErrConflict) {
		t.Errorf("domain flip: err = %v, want ErrConflict", err)
	}
	// Empty domain defaults to shared; bad domain rejected.
	if err := r.Create(Info{Name: "plain"}); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.Get("plain"); got.Domain != DomainShared {
		t.Errorf("empty domain = %q, want shared", got.Domain)
	}
	if err := r.Create(Info{Name: "bad", Domain: "exclusive"}); err == nil {
		t.Error("unknown domain accepted")
	}
	if err := r.Create(Info{Name: "no/slash"}); err == nil {
		t.Error("invalid name accepted")
	}
}

func TestRegistryQuota(t *testing.T) {
	r := NewRegistry()
	if err := r.Create(Info{Name: "capped", QuotaBytes: 1000}); err != nil {
		t.Fatal(err)
	}
	// Under quota: admitted, headroom reported.
	if err := r.Admit("capped"); err != nil {
		t.Fatal(err)
	}
	if h := r.Headroom("capped"); h != 1000 {
		t.Errorf("Headroom = %d, want 1000", h)
	}
	// CheckPut beyond quota fails typed; within passes.
	if err := r.CheckPut("capped", 1001, 0); !errors.Is(err, sderr.ErrQuotaExceeded) {
		t.Errorf("CheckPut over = %v", err)
	}
	if err := r.CheckPut("capped", 1000, 0); err != nil {
		t.Errorf("CheckPut at quota = %v", err)
	}
	// Fill to quota: admission now refuses with the typed error.
	r.AccountPut("capped", 1000, 0, true)
	if err := r.Admit("capped"); !errors.Is(err, sderr.ErrQuotaExceeded) {
		t.Errorf("Admit at quota = %v", err)
	}
	if h := r.Headroom("capped"); h != 0 {
		t.Errorf("Headroom at quota = %d", h)
	}
	// Superseding a same-size backup stays within quota (prevSize credit).
	if err := r.CheckPut("capped", 1000, 1000); err != nil {
		t.Errorf("CheckPut supersede = %v", err)
	}
	// Deleting frees quota again.
	r.AccountDelete("capped", 1000)
	if err := r.Admit("capped"); err != nil {
		t.Errorf("Admit after delete = %v", err)
	}
	u := r.GetUsage("capped")
	if u.LiveBytes != 0 || u.Backups != 0 || u.LogicalBytes != 1000 {
		t.Errorf("usage after delete = %+v", u)
	}
	// Unknown tenants are rejected at admission.
	if err := r.Admit("ghost"); !errors.Is(err, sderr.ErrNotFound) {
		t.Errorf("Admit unknown = %v", err)
	}
}

func TestRegistryWeightAndTransfer(t *testing.T) {
	r := NewRegistry()
	if err := r.Create(Info{Name: "acme"}); err != nil {
		t.Fatal(err)
	}
	if w := r.Weight("acme"); w != 1 {
		t.Errorf("default weight = %d", w)
	}
	if w := r.Weight("ghost"); w != 1 {
		t.Errorf("unknown tenant weight = %d, want 1", w)
	}
	if err := r.SetWeight("acme", 4); err != nil {
		t.Fatal(err)
	}
	if w := r.Weight("acme"); w != 4 {
		t.Errorf("weight = %d, want 4", w)
	}
	if err := r.SetWeight("acme", 0); err == nil {
		t.Error("weight 0 accepted")
	}
	if err := r.SetWeight("ghost", 2); !errors.Is(err, sderr.ErrNotFound) {
		t.Errorf("SetWeight unknown = %v", err)
	}
	r.AccountTransfer("acme", 300, 700)
	u := r.GetUsage("acme")
	if u.StoredBytes != 300 || u.RestoredBytes != 700 {
		t.Errorf("transfer usage = %+v", u)
	}
}

func TestDedupRatio(t *testing.T) {
	if got := (Usage{}).DedupRatio(); got != 1 {
		t.Errorf("empty DR = %v", got)
	}
	if got := (Usage{LogicalBytes: 100, StoredBytes: 50}).DedupRatio(); got != 2 {
		t.Errorf("DR = %v, want 2", got)
	}
	// Fully deduplicated: large, finite, JSON-encodable.
	if got := (Usage{LogicalBytes: 100}).DedupRatio(); got != 100 {
		t.Errorf("fully-deduped DR = %v, want 100", got)
	}
}

func TestRegistryResetUsage(t *testing.T) {
	r := NewRegistry()
	if err := r.Create(Info{Name: "acme"}); err != nil {
		t.Fatal(err)
	}
	r.AccountPut("acme", 10, 0, true)
	r.ResetUsage()
	if u := r.GetUsage("acme"); u != (Usage{}) {
		t.Errorf("usage after reset = %+v", u)
	}
	if _, err := r.Get("acme"); err != nil {
		t.Errorf("reset dropped tenant config: %v", err)
	}
}
