package ingest_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sigmadedupe/internal/chunker"
	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/ingest"
	"sigmadedupe/internal/migrate"
	"sigmadedupe/internal/sderr"
	"sigmadedupe/internal/tenant"
)

// commitLog records the order in which recipes are swapped in.
type commitLog struct {
	director.Metadata
	mu    sync.Mutex
	order []string
}

func (c *commitLog) SwapRecipe(ctx context.Context, session uint64, path string, chunks []director.ChunkEntry) (director.Recipe, error) {
	rec, err := c.Metadata.SwapRecipe(ctx, session, path, chunks)
	if err == nil {
		c.mu.Lock()
		c.order = append(c.order, path)
		c.mu.Unlock()
	}
	return rec, err
}

func (c *commitLog) committed() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.order...)
}

// serialRefs is the serial reference of fixed 4KB chunking and SHA-1,
// sharing no code with the session: the chunk references of data in
// stream order, payloads included.
func serialRefs(t *testing.T, data []byte) []core.ChunkRef {
	t.Helper()
	ck, err := chunker.New(chunker.Fixed, bytes.NewReader(data), 4096)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := chunker.SplitAll(ck)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]core.ChunkRef, len(chunks))
	for i, ch := range chunks {
		refs[i] = core.ChunkRef{FP: fingerprint.SHA1.Sum(ch.Data), Size: ch.Len(), Data: ch.Data}
	}
	return refs
}

// TestCarryMatchesPerItemHashing is the differential of the carry — the
// hash batch small items share across Backup calls — against hashing
// each item alone: items of 1-40 chunks, a fifth of them copies of
// earlier ones, interleaved with items that take the piped path, with
// BackupRefs items, with Flush, and ended by Close without a Flush, give
// the serial reference's (fingerprint, size) recipe, restore
// byte-identical, commit in call order, and cut exactly the super-chunks
// that partitioning each item on its own cuts. Every Flush leaves every
// item before it committed; Close commits the carried rest, as it does a
// tail.
func TestCarryMatchesPerItemHashing(t *testing.T) {
	const scSize = 64 << 10
	eachTransport(t, func(t *testing.T, transport string) {
		r := newRig(t, transport, 2, rigOpt{})
		log := &commitLog{Metadata: r.dir}
		s := r.sessionOver(t, ingest.Config{SuperChunkSize: scSize}, log)
		rng := rand.New(rand.NewSource(51))
		var (
			names         []string
			contents      = make(map[string][]byte)
			small         [][]byte
			logical       int64
			superChunks   int64
			piped, byRefs int
		)
		partition := func(refs []core.ChunkRef) {
			part, err := core.NewPartitioner(scSize, fingerprint.SHA1, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, ref := range refs {
				if part.AddRef(ref) != nil {
					superChunks++
				}
			}
			if part.Flush() != nil {
				superChunks++
			}
		}
		for op := 0; op < 400; op++ {
			name := fmt.Sprintf("/op%03d", op)
			x := rng.Intn(100)
			if x < 5 {
				mustFlush(t, s)
				if got := len(log.committed()); got != len(names) {
					t.Fatalf("op %d: Flush left %d of %d items committed", op, got, len(names))
				}
				continue
			}
			var data []byte
			switch {
			case x < 12: // past the first batch and the first super-chunk: piped
				data = randBytes(int64(op), (40+rng.Intn(160))*4096-rng.Intn(4096))
				piped++
			case x < 20: // BackupRefs, below
				data = randBytes(int64(op), (1+rng.Intn(40))*4096-rng.Intn(4096))
			case x < 36 && len(small) > 0:
				data = small[rng.Intn(len(small))]
			default:
				data = randBytes(int64(op), (1+rng.Intn(40))*4096-rng.Intn(4096))
				small = append(small, data)
			}
			if x < 12 || x >= 20 {
				mustBackup(t, s, name, data)
			} else {
				byRefs++
				refs := serialRefs(t, data)
				err := s.BackupRefs(context.Background(), name, func(yield func([]core.ChunkRef) error) error {
					for len(refs) > 0 { // files of up to 8 chunks
						n := min(len(refs), 1+rng.Intn(8))
						if err := yield(refs[:n]); err != nil {
							return err
						}
						refs = refs[n:]
					}
					return nil
				})
				if err != nil {
					t.Fatalf("backup refs %s: %v", name, err)
				}
			}
			names = append(names, name)
			contents[name] = data
			logical += int64(len(data))
			partition(serialRefs(t, data))
		}
		if piped == 0 || byRefs == 0 {
			t.Fatalf("schedule has %d piped and %d BackupRefs items, want both", piped, byRefs)
		}
		s.Close()
		for _, nd := range r.nodes { // restores read sealed containers
			if err := nd.Flush(); err != nil {
				t.Fatal(err)
			}
		}

		if got := log.committed(); !slices.Equal(got, names) {
			t.Fatalf("commit order differs from call order:\n got  %v\n want %v", got, names)
		}
		for _, name := range names {
			want := serialRefs(t, contents[name])
			rec, err := r.dir.GetRecipe(context.Background(), name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(rec.Chunks) != len(want) {
				t.Fatalf("%s: %d recipe entries, reference has %d", name, len(rec.Chunks), len(want))
			}
			for i, e := range want {
				if got := rec.Chunks[i]; got.FP != e.FP || int(got.Size) != e.Size {
					t.Fatalf("%s entry %d: (%x, %d), reference (%x, %d)", name, i, got.FP, got.Size, e.FP, e.Size)
				}
			}
			if !bytes.Equal(r.restore(t, name), contents[name]) {
				t.Fatalf("%s does not restore byte-identical", name)
			}
		}
		if st := s.Stats(); st.LogicalBytes != logical || st.SuperChunks != superChunks || st.Files != int64(len(names)) {
			t.Fatalf("stats: %d logical bytes, %d super-chunks, %d files; per-item reference %d, %d, %d",
				st.LogicalBytes, st.SuperChunks, st.Files, logical, superChunks, len(names))
		}
	})
}

// TestCarriedItemOverQuotaFailsItsOwnBackup: the soft quota check runs
// when an item is chunked, not when the carry is consumed, so a small
// item that crosses the tenant's headroom fails its own Backup with the
// typed quota error — it never joins the carry — and the carried items
// before it commit.
func TestCarriedItemOverQuotaFailsItsOwnBackup(t *testing.T) {
	ctx := context.Background()
	r := newRig(t, "local", 2, rigOpt{})
	if err := r.dir.CreateTenant(ctx, tenant.Info{Name: "capped", QuotaBytes: 100 << 10, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	s := r.session(t, ingest.Config{Tenant: "capped"})
	// Four items of 6 chunks fit the 100KB headroom and stay carried (24
	// chunks, 96KB: short of a batch); the fifth crosses it, and would
	// still leave the carry short of a batch had it joined.
	fit := make([][]byte, 4)
	for i := range fit {
		fit[i] = randBytes(int64(70+i), 24<<10)
		if err := s.Backup(ctx, fmt.Sprintf("/fit%d", i), bytes.NewReader(fit[i])); err != nil {
			t.Fatal(err)
		}
	}
	err := s.Backup(ctx, "/over", bytes.NewReader(randBytes(74, 24<<10)))
	var berr *sderr.BackupError
	if !errors.Is(err, sderr.ErrQuotaExceeded) || !errors.As(err, &berr) || berr.Name != "/over" || berr.Stage != "quota" {
		t.Fatalf("over-quota small item = %v, want its own quota-stage BackupError wrapping ErrQuotaExceeded", err)
	}
	mustFlush(t, s)
	for i, data := range fit {
		rec, err := r.dir.GetRecipe(ctx, tenant.Key("capped", fmt.Sprintf("/fit%d", i)))
		if err != nil || rec.Size() != int64(len(data)) {
			t.Fatalf("carried item %d: recipe of %d bytes (%v), want %d", i, rec.Size(), err, len(data))
		}
	}
	if _, err := r.dir.GetRecipe(ctx, tenant.Key("capped", "/over")); !errors.Is(err, director.ErrNoRecipe) {
		t.Fatalf("the over-quota item is in the catalog: %v", err)
	}
}

// cancelAfter cancels a context once its reader has delivered n bytes.
type cancelAfter struct {
	r      io.Reader
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Read(p []byte) (int, error) {
	if c.n <= 0 {
		c.cancel()
	}
	k, err := c.r.Read(p[:min(len(p), max(c.n, 1))])
	c.n -= k
	return k, err
}

// TestCancelLaterCallKeepsCarriedItems: carried items run under their
// own, detached contexts. Canceling each one's ctx once its Backup has
// returned, failing a later call before it reads (canceled ctx) and
// canceling a later piped item mid-stream — after its first batch has
// drained the carry into the window — abort only those later calls; the
// carried items commit and restore. Over a transport that hangs, a drain
// waits for the window under its caller's ctx, not the carried items':
// a piped item whose first batch drains the carry, a Flush and a small
// item that must first finish the drain left part-done, each canceled
// while the window is full, return promptly with their own ctx's error
// and leave the carry in place, and its items commit once the nodes
// answer.
func TestCancelLaterCallKeepsCarriedItems(t *testing.T) {
	eachTransport(t, func(t *testing.T, transport string) {
		r := newRig(t, transport, 2, rigOpt{})
		s := r.session(t, ingest.Config{SuperChunkSize: 64 << 10})
		carried := make([][]byte, 5) // 15 chunks, 60KB: short of a batch
		for i := range carried {
			carried[i] = randBytes(int64(80+i), 12<<10)
			ctx, cancel := context.WithCancel(context.Background())
			if err := s.Backup(ctx, fmt.Sprintf("/carried%d", i), bytes.NewReader(carried[i])); err != nil {
				t.Fatal(err)
			}
			cancel()
		}
		canceled, cancel := context.WithCancel(context.Background())
		cancel()
		if err := s.Backup(canceled, "/refused", bytes.NewReader(randBytes(90, 8<<10))); !errors.Is(err, context.Canceled) {
			t.Fatalf("backup under a canceled ctx = %v, want context.Canceled", err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		big := &cancelAfter{r: bytes.NewReader(randBytes(91, 2<<20)), n: 512 << 10, cancel: cancel}
		if err := s.Backup(ctx, "/big", big); !errors.Is(err, context.Canceled) {
			t.Fatalf("backup canceled mid-stream = %v, want context.Canceled", err)
		}
		mustFlush(t, s)
		for i, data := range carried {
			if !bytes.Equal(r.restore(t, fmt.Sprintf("/carried%d", i)), data) {
				t.Fatalf("carried item %d does not restore after later calls were canceled", i)
			}
		}
		for _, name := range []string{"/refused", "/big"} {
			if _, err := r.dir.GetRecipe(context.Background(), name); !errors.Is(err, director.ErrNoRecipe) {
				t.Fatalf("canceled %s is in the catalog: %v", name, err)
			}
		}

		// The nodes hang: the window's four routes never return until open
		// is closed, which the cleanup does too, ahead of the session's Close.
		open := make(chan struct{})
		var once sync.Once
		unwedge := func() { once.Do(func() { close(open) }) }
		t.Cleanup(unwedge)
		for i, nd := range r.byID {
			r.byID[i] = wedged{nd, open}
		}
		stuck := make([][]byte, 2*ingest.DefaultInflight+2) // one chunk each: short of a batch
		for i := range stuck {
			stuck[i] = randBytes(int64(100+i), 4096)
			mustBackup(t, s, fmt.Sprintf("/stuck%d", i), stuck[i])
		}
		within := func(what string, call func(ctx context.Context) error) {
			t.Helper()
			ctx, cancel := context.WithCancel(context.Background())
			defer time.AfterFunc(50*time.Millisecond, cancel).Stop()
			start := time.Now()
			if err := call(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s over hung nodes = %v, want context.Canceled", what, err)
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("%s over hung nodes took %v to honor its ctx", what, elapsed)
			}
		}
		within("piped backup", func(ctx context.Context) error {
			return s.Backup(ctx, "/hung-big", bytes.NewReader(randBytes(92, 1<<20)))
		})
		within("flush", func(ctx context.Context) error { return s.Flush(ctx) })
		within("small backup", func(ctx context.Context) error {
			return s.Backup(ctx, "/hung-small", bytes.NewReader(randBytes(93, 4096)))
		})
		unwedge()
		mustFlush(t, s)
		for i, data := range stuck {
			if !bytes.Equal(r.restore(t, fmt.Sprintf("/stuck%d", i)), data) {
				t.Fatalf("carried item %d does not restore after the nodes answered", i)
			}
		}
		for _, name := range []string{"/hung-big", "/hung-small"} {
			if _, err := r.dir.GetRecipe(context.Background(), name); !errors.Is(err, director.ErrNoRecipe) {
				t.Fatalf("canceled %s is in the catalog: %v", name, err)
			}
		}
	})
}

// wedged is a node transport whose dedup passes wait, deaf to their
// context, until open is closed: a transport that hangs.
type wedged struct {
	migrate.Node
	open chan struct{}
}

func (w wedged) Dedup(ctx context.Context, stream string, sc *core.SuperChunk, hp core.Handprint, eager bool) ([]bool, error) {
	<-w.open
	return w.Node.Dedup(ctx, stream, sc, hp, eager)
}

// failsFP is a node transport whose dedup passes fail for a super-chunk
// holding one of fps.
type failsFP struct {
	migrate.Node
	fps map[fingerprint.Fingerprint]bool
}

var errRouteFails = errors.New("injected: route failed")

func (f failsFP) Dedup(ctx context.Context, stream string, sc *core.SuperChunk, hp core.Handprint, eager bool) ([]bool, error) {
	for _, ch := range sc.Chunks {
		if f.fps[ch.FP] {
			return nil, errRouteFails
		}
	}
	return f.Node.Dedup(ctx, stream, sc, hp, eager)
}

// TestCarriedFailureStaysWithItsItem: a route that fails inside a drain
// fails its own item and no other. Twenty one-chunk items wait in the
// carry until Flush, which drains them through a window of one, so the
// settling that admits each super-chunk finishes the items before it —
// the failed ones among them — while later ones still wait to be routed.
// With the routes of items 7 and 13 failing, Flush returns both items'
// store-stage errors, neither is in the catalog or keeps a reference,
// and the other eighteen commit with the serial reference's recipe and
// restore.
func TestCarriedFailureStaysWithItsItem(t *testing.T) {
	eachTransport(t, func(t *testing.T, transport string) {
		r := newRig(t, transport, 2, rigOpt{})
		s := r.session(t, ingest.Config{Inflight: 1})
		items := make([][]byte, 20)
		failing := map[int]bool{7: true, 13: true}
		fps := make(map[fingerprint.Fingerprint]bool)
		for i := range items {
			items[i] = randBytes(int64(110+i), 4096-i)
			if failing[i] {
				fps[serialRefs(t, items[i])[0].FP] = true
			}
		}
		for i, nd := range r.byID {
			r.byID[i] = failsFP{nd, fps}
		}
		var live int64
		for i, data := range items {
			mustBackup(t, s, fmt.Sprintf("/item%02d", i), data)
			if !failing[i] {
				live += int64(len(data))
			}
		}
		err := s.Flush(context.Background())
		var berr *sderr.BackupError
		if !errors.Is(err, errRouteFails) || !errors.As(err, &berr) || berr.Name != "/item07" || berr.Stage != "store" ||
			!strings.Contains(err.Error(), "/item13") {
			t.Fatalf("flush of a carry with two failing routes = %v, want the store-stage errors of /item07 and /item13", err)
		}
		mustFlush(t, s)
		for i, data := range items {
			name := fmt.Sprintf("/item%02d", i)
			rec, err := r.dir.GetRecipe(context.Background(), name)
			if failing[i] {
				if !errors.Is(err, director.ErrNoRecipe) {
					t.Fatalf("failed %s is in the catalog: %v", name, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s, carried behind a failed item, did not commit: %v", name, err)
			}
			want := serialRefs(t, data)
			if len(rec.Chunks) != len(want) || rec.Chunks[0].FP != want[0].FP || int(rec.Chunks[0].Size) != want[0].Size {
				t.Fatalf("%s: recipe %v, reference %v", name, rec.Chunks, want)
			}
			if !bytes.Equal(r.restore(t, name), data) {
				t.Fatalf("%s does not restore", name)
			}
		}
		if got := r.liveBytes(); got != live {
			t.Fatalf("live bytes %d, want %d: the committed items' alone", got, live)
		}
	})
}
