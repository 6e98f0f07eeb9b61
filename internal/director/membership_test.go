package director

import (
	"context"
	"errors"
	"testing"

	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/sderr"
)

func TestMembersJournalSurvivesRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	d, err := OpenAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := d.Members(ctx); m.Epoch != 0 {
		t.Fatalf("fresh director epoch = %d, want 0", m.Epoch)
	}
	if _, err := d.SetMembers(ctx, 0, []NodeInfo{{ID: 0, Addr: "a"}, {ID: 1, Addr: "b"}}); err != nil {
		t.Fatal(err)
	}
	m2, err := d.SetMembers(ctx, 1, []NodeInfo{{ID: 1, Addr: "b"}, {ID: 0, Addr: "a"}, {ID: 2, Addr: "c"}})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Epoch != 2 || len(m2.Nodes) != 3 || m2.Nodes[2].ID != 2 {
		t.Fatalf("epoch 2 = %+v", m2)
	}
	// The CAS: planning against a superseded epoch loses loudly.
	if _, err := d.SetMembers(ctx, 1, m2.Nodes); !errors.Is(err, sderr.ErrConflict) {
		t.Fatalf("stale-epoch SetMembers = %v, want ErrConflict", err)
	}

	var fp fingerprint.Fingerprint
	fp[0] = 7
	migID, err := d.BeginMigration(ctx, Migration{Path: "/x", From: 2, To: 0, Start: 4, Count: 1, FPs: []fingerprint.Fingerprint{fp}})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := d.BeginMigration(ctx, Migration{Path: "/y", From: 2, To: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EndMigration(ctx, id2); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the epoch and the one still-open transaction replay.
	d2, err := OpenAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	m, err := d2.Members(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 2 || len(m.Nodes) != 3 || m.Nodes[0].Addr != "a" {
		t.Fatalf("recovered membership = %+v", m)
	}
	pend, err := d2.PendingMigrations(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(pend) != 1 || pend[0].ID != migID || pend[0].Path != "/x" || pend[0].FPs[0] != fp {
		t.Fatalf("recovered pending migrations = %+v", pend)
	}
	if err := d2.EndMigration(ctx, migID); err != nil {
		t.Fatal(err)
	}
	if err := d2.EndMigration(ctx, migID); !errors.Is(err, sderr.ErrNotFound) {
		t.Fatalf("double EndMigration = %v, want ErrNotFound", err)
	}
}

func TestReplaceRecipeConflict(t *testing.T) {
	ctx := context.Background()
	d := New()
	s, _ := d.BeginSession(ctx, "c", "")
	chunks := []ChunkEntry{{Size: 4096, Node: 0}}
	if err := d.PutRecipe(ctx, s, "/f", chunks); err != nil {
		t.Fatal(err)
	}
	moved := []ChunkEntry{{Size: 4096, Node: 1}}
	if err := d.ReplaceRecipe(ctx, "/f", s, 1, moved); err != nil {
		t.Fatal(err)
	}
	r, err := d.GetRecipe(ctx, "/f")
	if err != nil || r.Chunks[0].Node != 1 || r.Session != s || r.Gen != 2 {
		t.Fatalf("replaced recipe = %+v (%v)", r, err)
	}
	// Wrong session, stale generation (a concurrent migration already
	// rewrote the recipe) and missing path all lose with a typed
	// conflict.
	if err := d.ReplaceRecipe(ctx, "/f", s+1, r.Gen, moved); !errors.Is(err, sderr.ErrConflict) {
		t.Fatalf("stale-session replace = %v, want ErrConflict", err)
	}
	if err := d.ReplaceRecipe(ctx, "/f", s, 1, moved); !errors.Is(err, sderr.ErrConflict) {
		t.Fatalf("stale-generation replace = %v, want ErrConflict", err)
	}
	if err := d.ReplaceRecipe(ctx, "/gone", s, 1, moved); !errors.Is(err, sderr.ErrConflict) {
		t.Fatalf("missing-path replace = %v, want ErrConflict", err)
	}
}
