package sigmadedupe

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"sigmadedupe/internal/rpc"
	"sigmadedupe/internal/tenant"
)

// tenantBlob returns n deterministic pseudo-random (incompressible,
// unique-per-seed) bytes.
func tenantBlob(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// tenantBackup opens a session scoped to tn, backs up one named stream
// and flushes. A fresh session per backup re-reads the tenant's quota
// headroom, which a session captures at admission.
func tenantBackup(ctx context.Context, be Backend, tn, name string, data []byte) error {
	sess, err := be.NewSession(ctx, WithTenant(tn), WithSuperChunkSize(32<<10))
	if err != nil {
		return err
	}
	defer sess.Close()
	if err := sess.Backup(ctx, name, bytes.NewReader(data)); err != nil {
		return err
	}
	if err := sess.Flush(ctx); err != nil {
		return err
	}
	// Backend-level flush seals node containers so the data is readable.
	return be.Flush(ctx)
}

// runTenantScenario drives the multi-tenant control plane end to end
// through one Backend: namespaces (including path-like backup names),
// cross-tenant invisibility, per-tenant accounting, quota admission and
// mid-stream enforcement with the typed error, and quota-exempt
// restore/delete. The same function runs against the simulator and the
// TCP prototype.
func runTenantScenario(t *testing.T, be Backend) {
	t.Helper()
	ctx := context.Background()
	admin, ok := be.(TenantAdmin)
	if !ok {
		t.Fatalf("backend %T does not implement TenantAdmin", be)
	}

	if err := admin.CreateTenant(ctx, TenantConfig{Name: "acme"}); err != nil {
		t.Fatal(err)
	}
	if err := admin.CreateTenant(ctx, TenantConfig{Name: "bolt", Domain: TenantIsolated, Weight: 2}); err != nil {
		t.Fatal(err)
	}

	// The same path-like backup name in three namespaces, three contents.
	// Slashes in backup names must never be confused with a tenant
	// separator (the regression the composite-key scheme exists for).
	const name = "vm/disks/root.img"
	acmeData := tenantBlob(1, 200<<10)
	boltData := tenantBlob(2, 150<<10)
	defData := tenantBlob(3, 100<<10)
	if err := tenantBackup(ctx, be, "acme", name, acmeData); err != nil {
		t.Fatal(err)
	}
	if err := tenantBackup(ctx, be, "bolt", name, boltData); err != nil {
		t.Fatal(err)
	}
	if err := be.Backup(ctx, name, bytes.NewReader(defData)); err != nil {
		t.Fatal(err)
	}
	if err := be.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// NUL is the one byte a backup name cannot carry (it is the key
	// separator); everything else — slashes, spaces — is legal.
	if err := be.Backup(ctx, "bad\x00name", bytes.NewReader(defData)); err == nil {
		t.Fatal("backup name with NUL accepted")
	}

	// Each namespace restores its own bytes.
	for _, c := range []struct {
		tenant string
		want   []byte
	}{{"acme", acmeData}, {"bolt", boltData}, {"", defData}} {
		var out bytes.Buffer
		if err := admin.RestoreTenant(ctx, c.tenant, name, &out); err != nil {
			t.Fatalf("restore %q/%s: %v", c.tenant, name, err)
		}
		if !bytes.Equal(out.Bytes(), c.want) {
			t.Fatalf("tenant %q restored wrong bytes: got %d, want %d", c.tenant, out.Len(), len(c.want))
		}
	}
	// The default namespace is the flat legacy one: plain Restore sees it.
	var out bytes.Buffer
	if err := be.Restore(ctx, name, &out); err != nil || !bytes.Equal(out.Bytes(), defData) {
		t.Fatalf("legacy restore: %v", err)
	}
	// A name existing in one tenant is invisible from another.
	if err := admin.RestoreTenant(ctx, "acme", "never-backed-up", io.Discard); !errors.Is(err, ErrNotFound) {
		t.Fatalf("restore of unknown name = %v, want ErrNotFound", err)
	}
	if err := admin.RestoreTenant(ctx, "ghost", name, io.Discard); !errors.Is(err, ErrNotFound) {
		t.Fatalf("restore under unknown tenant = %v, want ErrNotFound", err)
	}

	// Per-tenant accounting reached the control plane.
	sts, err := admin.Tenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]TenantStatus{}
	for _, st := range sts {
		byName[st.Name] = st
	}
	if st := byName["acme"]; st.Usage.LiveBytes != int64(len(acmeData)) || st.Usage.Backups != 1 {
		t.Fatalf("acme usage = %+v", st.Usage)
	}
	if st := byName["bolt"]; st.Weight != 2 || st.Domain != TenantIsolated {
		t.Fatalf("bolt config = %+v", st.TenantConfig)
	}
	if _, ok := byName["default"]; !ok {
		t.Fatal("default tenant missing from list")
	}
	if err := admin.SetTenantWeight(ctx, "bolt", 5); err != nil {
		t.Fatal(err)
	}
	if sts, err = admin.Tenants(ctx); err != nil {
		t.Fatal(err)
	}
	for _, st := range sts {
		if st.Name == "bolt" && st.Weight != 5 {
			t.Fatalf("SetTenantWeight not visible: %+v", st.TenantConfig)
		}
	}

	// Quota, mid-stream: a capped tenant's oversized backup dies with the
	// typed error — across the TCP wire on the prototype.
	if err := admin.CreateTenant(ctx, TenantConfig{Name: "capped", QuotaBytes: 96 << 10}); err != nil {
		t.Fatal(err)
	}
	err = tenantBackup(ctx, be, "capped", "too-big", tenantBlob(4, 512<<10))
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota backup = %v, want ErrQuotaExceeded", err)
	}

	// Quota, admission: a tenant filled exactly to its limit gets no new
	// session until the quota is raised or data deleted.
	exact := tenantBlob(5, 128<<10)
	if err := admin.CreateTenant(ctx, TenantConfig{Name: "exact", QuotaBytes: int64(len(exact))}); err != nil {
		t.Fatal(err)
	}
	if err := tenantBackup(ctx, be, "exact", "fill", exact); err != nil {
		t.Fatalf("fill to quota: %v", err)
	}
	if _, err := be.NewSession(ctx, WithTenant("exact")); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("admission at quota = %v, want ErrQuotaExceeded", err)
	}
	// Restore and delete are quota-exempt — deleting is how an over-quota
	// tenant gets back under.
	out.Reset()
	if err := admin.RestoreTenant(ctx, "exact", "fill", &out); err != nil || !bytes.Equal(out.Bytes(), exact) {
		t.Fatalf("restore at quota: %v", err)
	}
	if err := admin.DeleteTenant(ctx, "exact", "fill"); err != nil {
		t.Fatal(err)
	}
	if sess, err := be.NewSession(ctx, WithTenant("exact")); err != nil {
		t.Fatalf("admission after delete = %v", err)
	} else {
		sess.Close()
	}

	// Deleting one tenant's backup leaves the same name in every other
	// namespace byte-identical.
	if err := admin.DeleteTenant(ctx, "acme", name); err != nil {
		t.Fatal(err)
	}
	if err := admin.RestoreTenant(ctx, "acme", name, io.Discard); !errors.Is(err, ErrNotFound) {
		t.Fatalf("restore after delete = %v, want ErrNotFound", err)
	}
	for _, c := range []struct {
		tenant string
		want   []byte
	}{{"bolt", boltData}, {"", defData}} {
		out.Reset()
		if err := admin.RestoreTenant(ctx, c.tenant, name, &out); err != nil || !bytes.Equal(out.Bytes(), c.want) {
			t.Fatalf("tenant %q damaged by another tenant's delete: %v", c.tenant, err)
		}
	}
}

// TestTenantScenarioSimulator runs the shared multi-tenant scenario on
// the in-process simulator.
func TestTenantScenarioSimulator(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 2, KeepPayloads: true, SuperChunkSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	runTenantScenario(t, c)
}

// TestTenantScenarioRemote runs the identical scenario on the TCP
// prototype with a real TCP director, so tenant admission, quota errors
// and accounting all cross both wire protocols.
func TestTenantScenarioRemote(t *testing.T) {
	addrs := startServers(t, 2)
	d := NewDirector()
	svc, err := rpc.NewDirectorServer(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	be, err := NewRemote(context.Background(), RemoteConfig{
		Name:           "tenants",
		DirectorAddr:   svc.Addr(),
		Nodes:          addrs,
		SuperChunkSize: 32 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	runTenantScenario(t, be)
}

// TestConcurrentTenantSessions runs 64 sessions of 8 tenants — mixed
// weights, shared and isolated domains — at once through a
// capacity-bound fair-share scheduler, on both backends. Every session
// of tenant i backs up the same blobs as every other tenant's. Nothing
// is asserted on throughput shares; what must hold is that every backup
// commits and restores byte-identically, each tenant's LiveBytes is the
// sum of its backups, and a blob one shared tenant stored costs another
// shared tenant no transfer but an isolated tenant a full copy.
func TestConcurrentTenantSessions(t *testing.T) {
	const (
		tenants, perTenant = 8, 8
		size               = 96 << 10
		capacity           = 128 << 10 // two scheduler quanta: the queue decides who ingests
	)
	run := func(t *testing.T, be Backend) {
		ctx := context.Background()
		admin := be.(TenantAdmin)
		name := func(i int) string { return fmt.Sprintf("t%d", i) }
		isolated := func(i int) bool { return i%2 == 1 }
		for i := 0; i < tenants; i++ {
			cfg := TenantConfig{Name: name(i), Weight: 1 + i%3}
			if isolated(i) {
				cfg.Domain = TenantIsolated
			}
			if err := admin.CreateTenant(ctx, cfg); err != nil {
				t.Fatal(err)
			}
		}
		blob := func(j int) []byte { return tenantBlob(int64(600+j), size) }
		ref := tenantBlob(699, size) // first stored by t0 alone

		// Every session is open before the first backup starts.
		sessions := make([]*Session, tenants*perTenant)
		for k := range sessions {
			sess, err := be.NewSession(ctx, WithTenant(name(k/perTenant)), WithSuperChunkSize(32<<10))
			if err != nil {
				t.Fatal(err)
			}
			sessions[k] = sess
		}
		var wg sync.WaitGroup
		for k, sess := range sessions {
			i, j := k/perTenant, k%perTenant
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer sess.Close()
				err := sess.Backup(ctx, fmt.Sprintf("s%d", j), bytes.NewReader(blob(j)))
				if err == nil && k == 0 {
					err = sess.Backup(ctx, "ref", bytes.NewReader(ref))
				}
				if err == nil {
					err = sess.Flush(ctx)
				}
				if err != nil {
					t.Errorf("tenant %s session %d: %v", name(i), j, err)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		if err := be.Flush(ctx); err != nil {
			t.Fatal(err)
		}

		// ref is in the shared domain now: the other shared tenants store
		// it for free, each isolated tenant pays for a copy of its own.
		for i := 1; i < tenants; i++ {
			sess, err := be.NewSession(ctx, WithTenant(name(i)), WithSuperChunkSize(32<<10))
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Backup(ctx, "ref", bytes.NewReader(ref)); err != nil {
				t.Fatal(err)
			}
			if err := sess.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			got, want := sess.Stats().TransferredBytes, int64(0)
			if isolated(i) {
				want = size
			}
			if got != want {
				t.Errorf("tenant %s (isolated %v) transferred %d bytes of a blob t0 stored, want %d", name(i), isolated(i), got, want)
			}
			sess.Close()
		}
		if err := be.Flush(ctx); err != nil {
			t.Fatal(err)
		}

		for i := 0; i < tenants; i++ {
			for j := 0; j <= perTenant; j++ {
				item, want := fmt.Sprintf("s%d", j), blob(j)
				if j == perTenant {
					item, want = "ref", ref
				}
				var out bytes.Buffer
				if err := admin.RestoreTenant(ctx, name(i), item, &out); err != nil || !bytes.Equal(out.Bytes(), want) {
					t.Fatalf("tenant %s %s: restored %d bytes (err %v), want the %d backed up", name(i), item, out.Len(), err, len(want))
				}
			}
		}
		sts, err := admin.Tenants(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range sts {
			if st.Name == tenant.Default {
				continue
			}
			if want := int64((perTenant + 1) * size); st.Usage.LiveBytes != want {
				t.Errorf("tenant %s LiveBytes = %d, want %d", st.Name, st.Usage.LiveBytes, want)
			}
		}
		assertCatalogConsistent(t, be)
	}
	t.Run("simulator", func(t *testing.T) {
		c, err := NewCluster(ClusterConfig{Nodes: 3, KeepPayloads: true, SuperChunkSize: 32 << 10, IngestCapacityBytes: capacity})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		run(t, c)
	})
	t.Run("remote", func(t *testing.T) {
		be, err := NewRemote(context.Background(), RemoteConfig{
			Name: "tenants", Director: NewDirector(), Nodes: startServers(t, 3),
			SuperChunkSize: 32 << 10, IngestCapacityBytes: capacity,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer be.Close()
		run(t, be)
	})
}

// TestTenantIsolationBlocksCrossDedup: identical data stored by two
// shared-domain tenants is stored once; the same data stored by an
// isolated-domain tenant occupies fresh physical space (salted
// fingerprints cannot collide), while still deduplicating within the
// isolated tenant itself.
func TestTenantIsolationBlocksCrossDedup(t *testing.T) {
	ctx := context.Background()
	c, err := NewCluster(ClusterConfig{Nodes: 2, KeepPayloads: true, SuperChunkSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, cfg := range []TenantConfig{
		{Name: "shared-1"}, {Name: "shared-2"},
		{Name: "iso-1", Domain: TenantIsolated},
	} {
		if err := c.CreateTenant(ctx, cfg); err != nil {
			t.Fatal(err)
		}
	}
	data := tenantBlob(77, 256<<10)
	size := int64(len(data))

	phys := func() int64 {
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return st.PhysicalBytes
	}
	if err := tenantBackup(ctx, c, "shared-1", "img", data); err != nil {
		t.Fatal(err)
	}
	base := phys()
	if base < size {
		t.Fatalf("first copy stored %d < %d", base, size)
	}
	// Second shared tenant: full cross-tenant dedup, no physical growth.
	if err := tenantBackup(ctx, c, "shared-2", "img", data); err != nil {
		t.Fatal(err)
	}
	if p := phys(); p != base {
		t.Fatalf("shared tenant re-store grew physical bytes %d -> %d", base, p)
	}
	// Isolated tenant: zero cross-tenant dedup, a full second copy.
	if err := tenantBackup(ctx, c, "iso-1", "img", data); err != nil {
		t.Fatal(err)
	}
	afterIso := phys()
	if afterIso < base+size {
		t.Fatalf("isolated tenant deduped against shared data: %d -> %d (want +%d)", base, afterIso, size)
	}
	// ...but dedups against itself: the same bytes again under another
	// name cost nothing.
	if err := tenantBackup(ctx, c, "iso-1", "img-copy", data); err != nil {
		t.Fatal(err)
	}
	if p := phys(); p != afterIso {
		t.Fatalf("intra-tenant dedup broken in isolated domain: %d -> %d", afterIso, p)
	}
	// The isolated tenant's data restores byte-identically despite the
	// salted fingerprints.
	var out bytes.Buffer
	if err := c.RestoreTenant(ctx, "iso-1", "img", &out); err != nil || !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("isolated restore: %v", err)
	}
}

// TestMetricsEndpoint drives the metrics/admin HTTP API against both
// backends: gauges must match Backend.Stats and the tenant table, the GC
// block must be served, the admin verbs round-trip, and the error
// taxonomy maps onto HTTP codes.
func TestMetricsEndpoint(t *testing.T) {
	eachBackendOf(t, 2, 0, testMetricsEndpoint)
}

func testMetricsEndpoint(t *testing.T, c Backend) {
	ctx := context.Background()
	admin := c.(TenantAdmin)
	if err := admin.CreateTenant(ctx, TenantConfig{Name: "acme", QuotaBytes: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	if err := tenantBackup(ctx, c, "acme", "img", tenantBlob(9, 96<<10)); err != nil {
		t.Fatal(err)
	}
	if err := c.Backup(ctx, "plain", bytes.NewReader(tenantBlob(10, 64<<10))); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	ms, err := ServeMetrics("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	base := "http://" + ms.Addr()

	get := func(path string, v any) int {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if v != nil {
			if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
		}
		return resp.StatusCode
	}
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// GET /metrics gauges agree with Backend.Stats — same accounting, two
	// surfaces.
	var rep struct {
		Cluster struct {
			LogicalBytes  int64   `json:"logical_bytes"`
			PhysicalBytes int64   `json:"physical_bytes"`
			DedupRatio    float64 `json:"dedup_ratio"`
			Backups       int     `json:"backups"`
			Nodes         int     `json:"nodes"`
			GC            *struct {
				StoredBytes int64
				LiveBytes   int64
			} `json:"gc"`
		} `json:"cluster"`
		Tenants []struct {
			Name      string `json:"name"`
			LiveBytes int64  `json:"live_bytes"`
			Backups   int64  `json:"backups"`
		} `json:"tenants"`
	}
	if code := get("/metrics", &rep); code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cluster.LogicalBytes != st.LogicalBytes || rep.Cluster.PhysicalBytes != st.PhysicalBytes ||
		rep.Cluster.Backups != st.Backups || rep.Cluster.Nodes != st.Nodes {
		t.Fatalf("/metrics cluster gauges %+v disagree with Stats %+v", rep.Cluster, st)
	}
	if g := rep.Cluster.GC; g == nil || g.StoredBytes != st.PhysicalBytes || g.LiveBytes != st.PhysicalBytes {
		t.Fatalf("/metrics gc block = %+v, want stored = live = %d", g, st.PhysicalBytes)
	}
	found := false
	for _, tn := range rep.Tenants {
		if tn.Name == "acme" {
			found = true
			if tn.LiveBytes != 96<<10 || tn.Backups != 1 {
				t.Fatalf("/metrics acme row = %+v", tn)
			}
		}
	}
	if !found {
		t.Fatal("/metrics missing tenant acme")
	}

	// Admin verbs round-trip: create, set quota, set weight, observe.
	if code := post("/tenants", `{"name":"web","domain":"isolated","quota_bytes":4096,"weight":3}`); code != http.StatusOK {
		t.Fatalf("POST /tenants = %d", code)
	}
	if code := post("/tenants/web/quota", `{"quota_bytes":8192}`); code != http.StatusOK {
		t.Fatalf("POST quota = %d", code)
	}
	if code := post("/tenants/web/weight", `{"weight":7}`); code != http.StatusOK {
		t.Fatalf("POST weight = %d", code)
	}
	var rows []struct {
		Name       string `json:"name"`
		Domain     string `json:"domain"`
		QuotaBytes int64  `json:"quota_bytes"`
		Weight     int    `json:"weight"`
	}
	if code := get("/tenants", &rows); code != http.StatusOK {
		t.Fatal("GET /tenants failed")
	}
	ok := false
	for _, r := range rows {
		if r.Name == "web" {
			ok = r.Domain == "isolated" && r.QuotaBytes == 8192 && r.Weight == 7
		}
	}
	if !ok {
		t.Fatalf("tenant web not round-tripped: %+v", rows)
	}

	// Error taxonomy → HTTP codes: unknown tenant 404, domain flip 409,
	// malformed body 400.
	if code := post("/tenants/ghost/quota", `{"quota_bytes":1}`); code != http.StatusNotFound {
		t.Fatalf("unknown tenant = %d, want 404", code)
	}
	if code := post("/tenants", `{"name":"web","domain":"shared"}`); code != http.StatusConflict {
		t.Fatalf("domain flip = %d, want 409", code)
	}
	if code := post("/tenants", `{not json`); code != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", code)
	}

	// The scheduler weight the endpoint set is what the data path uses.
	ws, err := admin.Tenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ws {
		if s.Name == "web" && s.Weight != 7 {
			t.Fatalf("endpoint weight not visible to backend: %+v", s.TenantConfig)
		}
	}
}

// TestSchedulerWeighsTenantsCreatedElsewhere: the fair-share scheduler
// weighs a tenant by the director's record even when the tenant was
// created before the backend opened — by another client, or before a
// durable director restarted — and a weight set through the backend
// applies to a session that is already open.
func TestSchedulerWeighsTenantsCreatedElsewhere(t *testing.T) {
	ctx := context.Background()
	heavy := tenant.Info{Name: "heavy", Weight: 4}
	check := func(t *testing.T, p *plane) {
		sess, err := p.NewSession(ctx, WithTenant("heavy"))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if w := p.weight("heavy"); w != 4 {
			t.Fatalf("weight of a tenant created on the director = %d, want 4", w)
		}
		if err := p.SetTenantWeight(ctx, "heavy", 2); err != nil {
			t.Fatal(err)
		}
		if w := p.weight("heavy"); w != 2 {
			t.Fatalf("weight after SetTenantWeight = %d, want 2", w)
		}
		if w := p.weight("ghost"); w != 1 {
			t.Fatalf("weight of an unknown tenant = %d, want 1", w)
		}
	}
	t.Run("simulator", func(t *testing.T) {
		c, err := NewCluster(ClusterConfig{Nodes: 2, IngestCapacityBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.tenants.CreateTenant(ctx, heavy); err != nil {
			t.Fatal(err)
		}
		check(t, &c.plane)
	})
	t.Run("remote", func(t *testing.T) {
		dir := NewDirector()
		if err := dir.CreateTenant(ctx, heavy); err != nil {
			t.Fatal(err)
		}
		r, err := NewRemote(ctx, RemoteConfig{Director: dir, Nodes: startServers(t, 2), IngestCapacityBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		check(t, &r.plane)
	})
}
