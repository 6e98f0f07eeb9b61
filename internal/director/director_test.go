package director

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/tenant"
)

func TestSessionLifecycle(t *testing.T) {
	d := New()
	id, _ := d.BeginSession(context.Background(), "laptop", "")
	if id == 0 {
		t.Fatal("session ID should be non-zero")
	}
	s, err := d.GetSession(id)
	if err != nil {
		t.Fatal(err)
	}
	if s.Client != "laptop" || s.Started.IsZero() {
		t.Fatalf("session = %+v", s)
	}
	if !s.Finished.IsZero() {
		t.Fatal("session should not be finished yet")
	}
	if err := d.EndSession(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	s, _ = d.GetSession(id)
	if s.Finished.IsZero() {
		t.Fatal("EndSession should stamp Finished")
	}
	if err := d.EndSession(context.Background(), 999); !errors.Is(err, ErrNoSession) {
		t.Fatalf("EndSession(999) = %v, want ErrNoSession", err)
	}
}

func TestRecipeRoundTrip(t *testing.T) {
	d := New()
	id, _ := d.BeginSession(context.Background(), "c", "")
	chunks := []ChunkEntry{
		{FP: fingerprint.Sum([]byte("a")), Size: 4096, Node: 2},
		{FP: fingerprint.Sum([]byte("b")), Size: 100, Node: 0},
	}
	if err := d.PutRecipe(context.Background(), id, "/data/file1", chunks); err != nil {
		t.Fatal(err)
	}
	r, err := d.GetRecipe(context.Background(), "/data/file1")
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 4196 {
		t.Fatalf("recipe size = %d, want 4196", r.Size())
	}
	if len(r.Chunks) != 2 || r.Chunks[0].Node != 2 {
		t.Fatalf("recipe = %+v", r)
	}
	if _, err := d.GetRecipe(context.Background(), "/nope"); !errors.Is(err, ErrNoRecipe) {
		t.Fatalf("missing recipe err = %v", err)
	}
	if err := d.PutRecipe(context.Background(), 77, "/x", nil); !errors.Is(err, ErrNoSession) {
		t.Fatalf("PutRecipe bad session err = %v", err)
	}
}

// TestUniqueBytes: the exact-dedup size of a catalog counts every
// distinct fingerprint of its live recipes once — a duplicate within or
// across recipes and an R=2 entry's replica add nothing, a superseded or
// deleted generation counts nothing — and isolated tenants' salted
// fingerprints of the same content count once per tenant.
func TestUniqueBytes(t *testing.T) {
	ctx := context.Background()
	fp := func(s string) fingerprint.Fingerprint { return fingerprint.Sum([]byte(s)) }
	a, b, c, gone := fp("a"), fp("b"), fp("c"), fp("superseded")
	d := New()
	for _, tn := range []string{"t1", "t2"} {
		if err := d.CreateTenant(ctx, tenant.Info{Name: tn, Domain: tenant.DomainIsolated}); err != nil {
			t.Fatal(err)
		}
	}
	put := func(tn, name string, chunks ...ChunkEntry) {
		t.Helper()
		s, err := d.BeginSession(ctx, "c", tn)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.SwapRecipe(ctx, s, tenant.Key(tn, name), chunks); err != nil {
			t.Fatal(err)
		}
	}
	unique := func() int64 {
		t.Helper()
		recipes, err := d.Recipes(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return UniqueBytes(recipes)
	}

	put("", "/f", ChunkEntry{FP: a, Size: 100, Replica: -1}, ChunkEntry{FP: a, Size: 100, Replica: -1},
		ChunkEntry{FP: b, Size: 10, Node: 1, Replica: 2})
	put("", "/g", ChunkEntry{FP: b, Size: 10, Replica: -1}, ChunkEntry{FP: gone, Size: 1000, Replica: -1})
	put("", "/g", ChunkEntry{FP: b, Size: 10, Replica: -1}) // supersedes gone
	put("", "/h", ChunkEntry{FP: c, Size: 7, Replica: -1})
	if got := unique(); got != 117 {
		t.Fatalf("unique bytes = %d, want 117 (a + b + c)", got)
	}
	if _, err := d.DeleteRecipe(ctx, "/h"); err != nil {
		t.Fatal(err)
	}
	if got := unique(); got != 110 {
		t.Fatalf("unique bytes after delete = %d, want 110 (a + b)", got)
	}

	// The same content under two isolated tenants: two salted fingerprints.
	salted := func(tn string, fp fingerprint.Fingerprint) fingerprint.Fingerprint {
		salt := tenant.Salt(tn)
		for i := range fp {
			fp[i] ^= salt[i%len(salt)]
		}
		return fp
	}
	put("t1", "/f", ChunkEntry{FP: salted("t1", a), Size: 100, Replica: -1})
	put("t2", "/f", ChunkEntry{FP: salted("t2", a), Size: 100, Replica: -1})
	if got := unique(); got != 310 {
		t.Fatalf("unique bytes with two isolated tenants = %d, want 310", got)
	}
}

func TestRecipeSupersedes(t *testing.T) {
	d := New()
	s1, _ := d.BeginSession(context.Background(), "c", "")
	s2, _ := d.BeginSession(context.Background(), "c", "")
	d.PutRecipe(context.Background(), s1, "/f", []ChunkEntry{{Size: 1}})
	d.PutRecipe(context.Background(), s2, "/f", []ChunkEntry{{Size: 2}, {Size: 3}})
	r, _ := d.GetRecipe(context.Background(), "/f")
	if r.Session != s2 || len(r.Chunks) != 2 {
		t.Fatalf("latest recipe not returned: %+v", r)
	}
}

func TestRecipeIsolatedFromCallerMutation(t *testing.T) {
	d := New()
	id, _ := d.BeginSession(context.Background(), "c", "")
	chunks := []ChunkEntry{{Size: 10}}
	d.PutRecipe(context.Background(), id, "/f", chunks)
	chunks[0].Size = 999
	r, _ := d.GetRecipe(context.Background(), "/f")
	if r.Chunks[0].Size != 10 {
		t.Fatal("director must copy recipe chunks at the boundary")
	}
}

func TestFilesSorted(t *testing.T) {
	d := New()
	id, _ := d.BeginSession(context.Background(), "c", "")
	for _, p := range []string{"/b", "/a", "/c"} {
		d.PutRecipe(context.Background(), id, p, nil)
	}
	files := d.Files()
	if len(files) != 3 || files[0] != "/a" || files[2] != "/c" {
		t.Fatalf("Files() = %v", files)
	}
}

func TestSessionTimesUseClock(t *testing.T) {
	d := New()
	fixed := time.Date(2026, 6, 13, 12, 0, 0, 0, time.UTC)
	d.now = func() time.Time { return fixed }
	id, _ := d.BeginSession(context.Background(), "c", "")
	s, _ := d.GetSession(id)
	if !s.Started.Equal(fixed) {
		t.Fatal("injected clock not used")
	}
}

func TestConcurrentSessions(t *testing.T) {
	d := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, _ := d.BeginSession(context.Background(), "c", "")
			d.PutRecipe(context.Background(), id, "/f"+string(rune('a'+i)), []ChunkEntry{{Size: 1}})
			d.EndSession(context.Background(), id)
		}(i)
	}
	wg.Wait()
	if d.NumSessions() != 16 {
		t.Fatalf("NumSessions = %d, want 16", d.NumSessions())
	}
	if len(d.Files()) != 16 {
		t.Fatalf("Files = %d, want 16", len(d.Files()))
	}
}

// TestDurableRecipesSurviveReopen: a durable director's recipe catalog —
// puts and deletes — is rebuilt from the journal on reopen.
func TestDurableRecipesSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	sess, _ := d.BeginSession(context.Background(), "c", "")
	mkChunks := func(seed string) []ChunkEntry {
		return []ChunkEntry{
			{FP: fingerprint.Sum([]byte(seed + "1")), Size: 4096, Node: 0},
			{FP: fingerprint.Sum([]byte(seed + "2")), Size: 1024, Node: 1},
		}
	}
	if err := d.PutRecipe(context.Background(), sess, "/a", mkChunks("a")); err != nil {
		t.Fatal(err)
	}
	if err := d.PutRecipe(context.Background(), sess, "/b", mkChunks("b")); err != nil {
		t.Fatal(err)
	}
	deleted, err := d.DeleteRecipe(context.Background(), "/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted.Chunks) != 2 {
		t.Fatalf("deleted recipe has %d chunks, want 2", len(deleted.Chunks))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.GetRecipe(context.Background(), "/a"); !errors.Is(err, ErrNoRecipe) {
		t.Fatalf("deleted recipe resurrected across reopen: %v", err)
	}
	got, err := r.GetRecipe(context.Background(), "/b")
	if err != nil {
		t.Fatal(err)
	}
	want := mkChunks("b")
	if len(got.Chunks) != len(want) || got.Chunks[0] != want[0] || got.Chunks[1] != want[1] {
		t.Fatalf("recovered recipe = %+v, want %+v", got.Chunks, want)
	}
	if got.Session != sess {
		t.Fatalf("recovered recipe session = %d, want %d (provenance)", got.Session, sess)
	}
	// New sessions allocate past the journaled ones.
	if s2, _ := r.BeginSession(context.Background(), "c2", ""); s2 <= sess {
		t.Fatalf("reopened director reused session ID %d (prior %d)", s2, sess)
	}
}

// TestDeleteRecipeUnknown: deleting a recipe that does not exist fails
// with ErrNoRecipe and journals nothing.
func TestDeleteRecipeUnknown(t *testing.T) {
	d := New()
	if _, err := d.DeleteRecipe(context.Background(), "/ghost"); !errors.Is(err, ErrNoRecipe) {
		t.Fatalf("err = %v, want ErrNoRecipe", err)
	}
}
