package director_test

// The director's verbs over TCP: rpc.NewDirectorServer and
// rpc.DialDirector, the call layer the nodes use (an external test
// package, since rpc imports director).

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/rpc"
	"sigmadedupe/internal/sderr"
	"sigmadedupe/internal/tenant"
)

// serve starts a director server for d and returns its address.
func serve(t *testing.T, d *director.Director) string {
	t.Helper()
	svc, err := rpc.NewDirectorServer(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc.Addr()
}

// dial connects one director client to addr.
func dial(t *testing.T, addr string) *rpc.Client {
	t.Helper()
	r, err := rpc.DialDirector(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestServiceRoundTrip(t *testing.T) {
	r := dial(t, serve(t, director.New()))

	id, _ := r.BeginSession(context.Background(), "remote-client", "")
	if id == 0 {
		t.Fatal("remote BeginSession returned 0")
	}
	chunks := []director.ChunkEntry{
		{FP: fingerprint.Sum([]byte("x")), Size: 4096, Node: 1},
	}
	if prev, err := r.SwapRecipe(context.Background(), id, "/remote/file", chunks[:0]); err != nil || prev.Gen != 0 {
		t.Fatalf("first swap = %+v, %v; want no previous generation", prev, err)
	}
	// A re-put hands the superseded generation back across the wire.
	if prev, err := r.SwapRecipe(context.Background(), id, "/remote/file", chunks); err != nil || prev.Gen != 1 || len(prev.Chunks) != 0 {
		t.Fatalf("second swap = %+v, %v; want generation 1 back", prev, err)
	}
	got, err := r.GetRecipe(context.Background(), "/remote/file")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Chunks) != 1 || got.Chunks[0].Node != 1 {
		t.Fatalf("recipe = %+v", got)
	}
	if err := r.EndSession(context.Background(), id); err != nil {
		t.Fatal(err)
	}

	// Errors must propagate as errors, not panics.
	if _, err := r.GetRecipe(context.Background(), "/missing"); err == nil {
		t.Fatal("missing recipe should error over the wire")
	}
	if _, err := r.SwapRecipe(context.Background(), 9999, "/x", nil); err == nil {
		t.Fatal("bad session should error over the wire")
	}
}

func TestServiceMultipleClients(t *testing.T) {
	addr := serve(t, director.New())
	r1, r2 := dial(t, addr), dial(t, addr)
	id1, _ := r1.BeginSession(context.Background(), "a", "")
	id2, _ := r2.BeginSession(context.Background(), "b", "")
	if id1 == id2 {
		t.Fatal("sessions must be distinct across connections")
	}
	if _, err := r1.SwapRecipe(context.Background(), id1, "/f1", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.GetRecipe(context.Background(), "/f1"); err != nil {
		t.Fatal("recipes must be shared across connections")
	}
}

// TestMembershipOverTCP drives the new ClusterMeta ops through the
// director service wire.
func TestMembershipOverTCP(t *testing.T) {
	ctx := context.Background()
	d := director.New()
	r := dial(t, serve(t, d))

	m, err := r.SetMembers(ctx, 0, []director.NodeInfo{{ID: 0, Addr: "x"}})
	if err != nil || m.Epoch != 1 {
		t.Fatalf("SetMembers over TCP = %+v (%v)", m, err)
	}
	if m, err = r.Members(ctx); err != nil || len(m.Nodes) != 1 || m.Nodes[0].Addr != "x" {
		t.Fatalf("Members over TCP = %+v (%v)", m, err)
	}
	id, err := r.BeginMigration(ctx, director.Migration{Path: "/w", From: 0, To: 1})
	if err != nil {
		t.Fatal(err)
	}
	pend, err := r.PendingMigrations(ctx)
	if err != nil || len(pend) != 1 || pend[0].Path != "/w" {
		t.Fatalf("PendingMigrations over TCP = %+v (%v)", pend, err)
	}
	if err := r.EndMigration(ctx, id); err != nil {
		t.Fatal(err)
	}

	s, _ := d.BeginSession(ctx, "c", "")
	if err := d.PutRecipe(ctx, s, "/f", []director.ChunkEntry{{Size: 1, Node: 0}}); err != nil {
		t.Fatal(err)
	}
	recipes, err := r.Recipes(ctx)
	if err != nil || len(recipes) != 1 || recipes[0].Path != "/f" {
		t.Fatalf("Recipes over TCP = %+v (%v)", recipes, err)
	}
	if err := r.ReplaceRecipe(ctx, "/f", s+9, 1, nil); !errors.Is(err, sderr.ErrConflict) {
		t.Fatalf("conflict must survive the wire, got %v", err)
	}
	if err := r.ReplaceRecipe(ctx, "/f", s, 1, []director.ChunkEntry{{Size: 1, Node: 2}}); err != nil {
		t.Fatal(err)
	}
}

// TestDirRequestRoundTrip: requests with every field set reach the
// director unchanged — each one sent over TCP is read back in process.
func TestDirRequestRoundTrip(t *testing.T) {
	ctx := context.Background()
	d := director.New()
	r := dial(t, serve(t, d))

	info := tenant.Info{Name: "acme", Domain: tenant.DomainIsolated, QuotaBytes: 1 << 30, Weight: 3}
	if err := r.CreateTenant(ctx, info); err != nil {
		t.Fatal(err)
	}
	if st, err := d.TenantStatus(ctx, "acme"); err != nil || st.Info != info {
		t.Fatalf("tenant = %+v (%v), want %+v", st.Info, err, info)
	}
	id, err := r.BeginSession(ctx, "client-a", "acme")
	if err != nil {
		t.Fatal(err)
	}
	if s, err := d.GetSession(id); err != nil || s.Client != "client-a" || s.Tenant != "acme" {
		t.Fatalf("session = %+v (%v)", s, err)
	}
	chunks := []director.ChunkEntry{
		{FP: fingerprint.Sum([]byte("a")), Size: 4096, Node: 0, Replica: -1},
		{FP: fingerprint.Sum([]byte("b")), Size: 512, Node: 3, Replica: 1},
	}
	path := tenant.Key("acme", "/vm/disk0.img")
	if _, err := r.SwapRecipe(ctx, id, path, chunks); err != nil {
		t.Fatal(err)
	}
	if rec, err := d.GetRecipe(ctx, path); err != nil || rec.Session != id || !reflect.DeepEqual(rec.Chunks, chunks) {
		t.Fatalf("recipe = %+v (%v), want session %d chunks %+v", rec, err, id, chunks)
	}
	nodes := []director.NodeInfo{{ID: 0, Addr: "127.0.0.1:9000"}, {ID: 3, Addr: "unix:/tmp/n3.sock"}}
	if _, err := r.SetMembers(ctx, 0, nodes); err != nil {
		t.Fatal(err)
	}
	if m, err := d.Members(ctx); err != nil || !reflect.DeepEqual(m.Nodes, nodes) {
		t.Fatalf("members = %+v (%v), want %+v", m, err, nodes)
	}
	mig := director.Migration{Path: path, From: 0, To: 3, Start: 10, Count: 2,
		FPs: []fingerprint.Fingerprint{chunks[0].FP, chunks[1].FP}}
	if mig.ID, err = r.BeginMigration(ctx, mig); err != nil {
		t.Fatal(err)
	}
	if pend, err := d.PendingMigrations(ctx); err != nil || len(pend) != 1 || !reflect.DeepEqual(pend[0], mig) {
		t.Fatalf("pending = %+v (%v), want %+v", pend, err, mig)
	}
}

// TestDirResponseRoundTrip: every reply read over TCP equals the same
// query answered in process, and a typed error keeps its sentinel.
func TestDirResponseRoundTrip(t *testing.T) {
	ctx := context.Background()
	d := director.New()
	r := dial(t, serve(t, d))

	if err := d.CreateTenant(ctx, tenant.Info{Name: "acme", Domain: tenant.DomainShared, QuotaBytes: 5 << 20, Weight: 2}); err != nil {
		t.Fatal(err)
	}
	id, _ := d.BeginSession(ctx, "client-a", "acme")
	for i, p := range []string{"/f1", "/f2"} {
		chunks := []director.ChunkEntry{{FP: fingerprint.Sum([]byte(p)), Size: int32(100 * (i + 1)), Node: int32(i), Replica: 1}}
		if err := d.PutRecipe(ctx, id, tenant.Key("acme", p), chunks); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AccountTransfer(ctx, "acme", 6, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := d.SetMembers(ctx, 0, []director.NodeInfo{{ID: 0, Addr: "h:0"}, {ID: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.BeginMigration(ctx, director.Migration{Path: tenant.Key("acme", "/f1"), From: 0, To: 1, Count: 1,
		FPs: []fingerprint.Fingerprint{fingerprint.Sum([]byte("/f1"))}}); err != nil {
		t.Fatal(err)
	}

	same := func(what string, wire, local any, errW, errL error) {
		t.Helper()
		if errW != nil || errL != nil {
			t.Fatalf("%s: %v / %v", what, errW, errL)
		}
		if !reflect.DeepEqual(wire, local) {
			t.Fatalf("%s over TCP = %+v, in process %+v", what, wire, local)
		}
	}
	key := tenant.Key("acme", "/f1")
	recW, errW := r.GetRecipe(ctx, key)
	recL, errL := d.GetRecipe(ctx, key)
	same("GetRecipe", recW, recL, errW, errL)
	allW, errW := r.Recipes(ctx)
	allL, errL := d.Recipes(ctx)
	same("Recipes", allW, allL, errW, errL)
	memW, errW := r.Members(ctx)
	memL, errL := d.Members(ctx)
	same("Members", memW, memL, errW, errL)
	pendW, errW := r.PendingMigrations(ctx)
	pendL, errL := d.PendingMigrations(ctx)
	same("PendingMigrations", pendW, pendL, errW, errL)
	tsW, errW := r.Tenants(ctx)
	tsL, errL := d.Tenants(ctx)
	same("Tenants", tsW, tsL, errW, errL)
	stW, errW := r.TenantStatus(ctx, "acme")
	stL, errL := d.TenantStatus(ctx, "acme")
	same("TenantStatus", stW, stL, errW, errL)

	// A delete hands the removed recipe back whole.
	delW, errW := r.DeleteRecipe(ctx, key)
	same("DeleteRecipe", delW, recL, errW, nil)
	if _, err := r.GetRecipe(ctx, key); !errors.Is(err, sderr.ErrNotFound) {
		t.Fatalf("deleted recipe over TCP: %v, want ErrNotFound", err)
	}
}
