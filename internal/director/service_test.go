package director

import (
	"context"
	"testing"

	"sigmadedupe/internal/fingerprint"
)

func TestServiceRoundTrip(t *testing.T) {
	d := New()
	svc, err := Serve(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	r, err := DialRemote(svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	id, _ := r.BeginSession(context.Background(), "remote-client", "")
	if id == 0 {
		t.Fatal("remote BeginSession returned 0")
	}
	chunks := []ChunkEntry{
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
	d := New()
	svc, err := Serve(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	r1, err := DialRemote(svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	r2, err := DialRemote(svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
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
