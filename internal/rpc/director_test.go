package rpc

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/tenant"
	"sigmadedupe/internal/wire"
)

// roundTrip checks that verb v's argument a and result r survive encode
// → decode unchanged, and that v is the verb the server serves under its
// op.
func roundTrip[A, R any](t *testing.T, v dirVerb[A, R], a A, r R) {
	t.Helper()
	var enc coder
	v.args(&enc, &a)
	v.result(&enc, &r)
	dec := wire.NewReader(enc.b)
	var a2 A
	var r2 R
	v.args(&coder{r: dec}, &a2)
	v.result(&coder{r: dec}, &r2)
	if err := dec.Done(); err != nil {
		t.Fatalf("op %d: %v", v.op, err)
	}
	if !reflect.DeepEqual(a2, a) || !reflect.DeepEqual(r2, r) {
		t.Fatalf("op %d did not survive the round trip:\n got %+v, %+v\nwant %+v, %+v", v.op, a2, r2, a, r)
	}
	if _, ok := dirVerbs[v.op].(dirVerb[A, R]); !ok {
		t.Fatalf("op %d serves %T", v.op, dirVerbs[v.op])
	}
}

// TestDirectorVerbsRoundTrip: every verb's argument and result survive
// the wire, with every field set, and every op has its own verb.
func TestDirectorVerbsRoundTrip(t *testing.T) {
	entries := []director.ChunkEntry{
		{FP: testFP(1), Size: 4096, Node: 0, Replica: -1},
		{FP: testFP(2), Size: 512, Node: 3, Replica: 1},
	}
	rec := director.Recipe{Path: "/vm/disk0.img", Session: 77, Gen: 9, Chunks: entries}
	mem := director.MembershipInfo{Epoch: 5, Nodes: []director.NodeInfo{{ID: 0, Addr: "127.0.0.1:9000"}, {ID: 3, Addr: "unix:/tmp/n3.sock"}}}
	mig := director.Migration{ID: 2, Path: rec.Path, From: 0, To: 3, Start: 10, Count: 2,
		FPs: []fingerprint.Fingerprint{testFP(4), testFP(5)}}
	st := director.TenantStatus{
		Info:  tenant.Info{Name: "acme", Domain: "isolated", QuotaBytes: 1 << 30, Weight: 3},
		Usage: tenant.Usage{LiveBytes: 1, LogicalBytes: 2, StoredBytes: 3, RestoredBytes: 4, Backups: 5},
	}
	none := struct{}{}
	roundTrip(t, beginSession, sessionArgs{"client-a", "acme"}, 77)
	roundTrip(t, endSession, 77, none)
	roundTrip(t, swapRecipe, swapArgs{77, rec.Path, entries}, rec)
	roundTrip(t, getRecipe, rec.Path, rec)
	roundTrip(t, deleteRecipe, rec.Path, rec)
	roundTrip(t, members, none, mem)
	roundTrip(t, setMembers, membersArgs{4, mem.Nodes}, mem)
	roundTrip(t, beginMigration, mig, 2)
	roundTrip(t, endMigration, 2, none)
	roundTrip(t, pendingMigrations, none, []director.Migration{mig, {ID: 3, Path: "p", From: 1}})
	roundTrip(t, recipes, none, []director.Recipe{rec, {Path: "q", Session: 78, Gen: 1}})
	roundTrip(t, replaceRecipe, replaceArgs{rec.Path, 77, 9, entries}, none)
	roundTrip(t, createTenant, st.Info, none)
	roundTrip(t, tenants, none, []director.TenantStatus{st, {Info: tenant.Info{Name: "b"}}})
	roundTrip(t, tenantStatus, "acme", st)
	roundTrip(t, setTenantQuota, tenantArgs{name: "acme", a: 5 << 20}, none)
	roundTrip(t, setTenantWeight, tenantArgs{name: "acme", a: 7}, none)
	roundTrip(t, accountTransfer, tenantArgs{"acme", 6, 8}, none)
	if len(dirVerbs) != 18 {
		t.Fatalf("%d ops registered, want 18 (two verbs share an op?)", len(dirVerbs))
	}
	for op := range dirVerbs {
		if op < 32 {
			t.Fatalf("director op %d collides with the node's", op)
		}
	}
}

// TestDirectorDecodeTypedErrors: corrupt director messages fail with the
// wire package's sentinels, and a bit-flipped count cannot allocate.
func TestDirectorDecodeTypedErrors(t *testing.T) {
	var enc coder
	swapRecipe.args(&enc, &swapArgs{1, "/p", []director.ChunkEntry{{FP: testFP(1), Size: 1}}})
	decode := func(b []byte) error {
		_, err := swapRecipe.serve(context.Background(), director.New(), wire.NewReader(b))
		return err
	}
	if err := decode(enc.b[:len(enc.b)-2]); !errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("truncated: %v, want ErrTruncated or ErrMalformed", err)
	}
	if err := decode(append(enc.b, 1)); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("trailing byte: %v, want ErrMalformed", err)
	}
	huge := append([]byte(nil), enc.b...)
	copy(huge[8+4+2:], []byte{0xFF, 0xFF, 0xFF, 0x7F}) // the chunk count
	if err := decode(huge); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("absurd count: %v, want ErrMalformed", err)
	}
}
