package ingest_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/ingest"
	"sigmadedupe/internal/migrate"
	"sigmadedupe/internal/router"
	"sigmadedupe/internal/rpc"
	"sigmadedupe/internal/sderr"
	"sigmadedupe/internal/store"
	"sigmadedupe/internal/tenant"
)

// transports are the two node transports every test below runs over:
// direct calls into in-process nodes, and the TCP protocol.
var transports = []string{"local", "rpc"}

// gate is a node transport that can be taken down (every ingest verb
// fails) and slowed (every verb waits, honoring ctx) from a test.
type gate struct {
	migrate.Node
	down  *atomic.Bool
	delay time.Duration
}

var errNodeDown = errors.New("injected: node down")

func (g gate) wait(ctx context.Context) error {
	if g.down.Load() {
		return errNodeDown
	}
	if g.delay > 0 {
		select {
		case <-time.After(g.delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

func (g gate) Bid(ctx context.Context, hp core.Handprint) (int, int64, error) {
	if err := g.wait(ctx); err != nil {
		return 0, 0, err
	}
	return g.Node.Bid(ctx, hp)
}

func (g gate) Dedup(ctx context.Context, stream string, sc *core.SuperChunk, hp core.Handprint, eager bool) ([]bool, error) {
	if err := g.wait(ctx); err != nil {
		return nil, err
	}
	return g.Node.Dedup(ctx, stream, sc, hp, eager)
}

// rig is a small cluster reached through one transport.
type rig struct {
	dir     *director.Director
	nodes   []*store.Engine
	down    []*atomic.Bool
	members core.Membership
	byID    []migrate.Node
}

type rigOpt struct {
	delay time.Duration
	srv   []rpc.ServerOption
}

func newRig(t testing.TB, transport string, n int, opt rigOpt) *rig {
	t.Helper()
	r := &rig{dir: director.New(), members: core.DenseMembership(n)}
	for i := 0; i < n; i++ {
		nd, err := store.New(store.Config{ID: i, KeepPayloads: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nd.Close() })
		var tr migrate.Node = migrate.Local(nd)
		if transport == "rpc" {
			srv, err := rpc.NewServer(nd, "127.0.0.1:0", opt.srv...)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			conn, err := rpc.DialContext(context.Background(), srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { conn.Close() })
			tr = conn
		}
		down := new(atomic.Bool)
		r.nodes, r.down = append(r.nodes, nd), append(r.down, down)
		r.byID = append(r.byID, gate{Node: tr, down: down, delay: opt.delay})
	}
	return r
}

func (r *rig) node(id int) (migrate.Node, bool) {
	if id < 0 || id >= len(r.byID) {
		return nil, false
	}
	return r.byID[id], true
}

// session opens a session over the rig: Sigma routing unless cfg names a
// router, bids through the transport-backed view.
func (r *rig) session(t testing.TB, cfg ingest.Config) *ingest.Session {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = "t"
	}
	if cfg.Router == nil {
		cfg.Router = &router.SigmaRouter{K: core.DefaultHandprintSize}
	}
	cfg.KeepPayloads = true
	cfg.Pin = func(ctx context.Context) (ingest.Epoch, error) {
		view := func() router.View { return migrate.NewView(ctx, r.members, r.node) }
		return ingest.Epoch{View: view, Node: r.node, Release: func() {}}, nil
	}
	s, err := ingest.New(context.Background(), cfg, r.dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func (r *rig) restore(t testing.TB, name string) []byte {
	t.Helper()
	var out bytes.Buffer
	if _, err := migrate.Restore(context.Background(), r.dir, r.node, tenant.Key(tenant.Default, name), ingest.DefaultInflight, &out); err != nil {
		t.Fatalf("restore %s: %v", name, err)
	}
	return out.Bytes()
}

func (r *rig) liveBytes() (n int64) {
	for _, nd := range r.nodes {
		n += nd.GCStats().LiveBytes
	}
	return n
}

func randBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func eachTransport(t *testing.T, fn func(t *testing.T, transport string)) {
	for _, tr := range transports {
		t.Run(tr, func(t *testing.T) { fn(t, tr) })
	}
}

func mustBackup(t testing.TB, s *ingest.Session, name string, data []byte) {
	t.Helper()
	if err := s.Backup(context.Background(), name, bytes.NewReader(data)); err != nil {
		t.Fatalf("backup %s: %v", name, err)
	}
}

func mustFlush(t testing.TB, s *ingest.Session) {
	t.Helper()
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTrip: files of every shape — many super-chunks, one chunk,
// empty — go through a 4-node cluster and restore byte-identically; the
// recipes record where each chunk went.
func TestRoundTrip(t *testing.T) {
	eachTransport(t, func(t *testing.T, transport string) {
		r := newRig(t, transport, 4, rigOpt{})
		s := r.session(t, ingest.Config{SuperChunkSize: 64 << 10})
		files := map[string][]byte{"/empty": {}, "/one-chunk": randBytes(1, 100)}
		for i := 0; i < 10; i++ {
			files[fmt.Sprintf("/tree/file%02d", i)] = randBytes(int64(10+i), 40<<10+i*1000)
		}
		files["/big"] = randBytes(2, 700<<10)
		for name, data := range files {
			mustBackup(t, s, name, data)
		}
		mustFlush(t, s)
		for name, data := range files {
			if got := r.restore(t, name); !bytes.Equal(got, data) {
				t.Fatalf("%s: restored %d bytes, backed up %d", name, len(got), len(data))
			}
		}
		if got := len(r.dir.Files()); got != len(files) {
			t.Fatalf("director has %d recipes, want %d", got, len(files))
		}
		rec, err := r.dir.GetRecipe(context.Background(), "/big")
		if err != nil || rec.Size() != 700<<10 {
			t.Fatalf("recipe of /big: size %d, %v", rec.Size(), err)
		}
		for i, e := range rec.Chunks {
			if e.Node < 0 || e.Node >= 4 {
				t.Fatalf("chunk %d routed to invalid node %d", i, e.Node)
			}
		}
		if rec, err := r.dir.GetRecipe(context.Background(), "/empty"); err != nil || len(rec.Chunks) != 0 {
			t.Fatalf("recipe of /empty: %d chunks, %v", len(rec.Chunks), err)
		}
		if st := s.Stats(); st.Files != int64(len(files)) || st.SuperChunks == 0 || st.AfterRoutingMsgs == 0 || st.BidsSent == 0 {
			t.Fatalf("stats not attributed: %+v", st)
		}
	})
}

// TestSourceDedupSavesBandwidth: a second generation of identical
// content is answered by the batched query; almost none of its payload
// is transferred.
func TestSourceDedupSavesBandwidth(t *testing.T) {
	eachTransport(t, func(t *testing.T, transport string) {
		r := newRig(t, transport, 2, rigOpt{})
		s := r.session(t, ingest.Config{SuperChunkSize: 32 << 10})
		content := randBytes(2, 512<<10)
		mustBackup(t, s, "/gen1", content)
		mustFlush(t, s) // the first generation is stored before the second one's queries run
		mustBackup(t, s, "/gen2", content)
		mustFlush(t, s)
		st := s.Stats()
		if st.LogicalBytes != 1<<20 || st.TransferredBytes != 512<<10 {
			t.Fatalf("logical %d transferred %d, want 1MiB presented and the first 512KiB sent", st.LogicalBytes, st.TransferredBytes)
		}
		if got := r.restore(t, "/gen2"); !bytes.Equal(got, content) {
			t.Fatal("deduplicated restore corrupted")
		}
	})
}

// slowFirstStore is a node transport that makes the cluster's first store
// — the original's — slow, and grows that node by a filler super-chunk
// first: by the time a copy bids, the node the original chose is no
// longer the least loaded, so a copy that finds no resemblance anywhere
// goes somewhere else.
type slowFirstStore struct {
	migrate.Node
	first  *atomic.Bool
	filler *core.SuperChunk
	delay  time.Duration
}

func (f slowFirstStore) Dedup(ctx context.Context, stream string, sc *core.SuperChunk, hp core.Handprint, eager bool) ([]bool, error) {
	if f.first.CompareAndSwap(false, true) {
		if _, err := f.Node.Dedup(ctx, "filler", f.filler, nil, true); err != nil {
			return nil, err
		}
		time.Sleep(f.delay)
	}
	return f.Node.Dedup(ctx, stream, sc, hp, eager)
}

// TestCopyOnHeelsOfOriginalDedupes: a copy backed up while its original's
// super-chunk is still in the window is routed only after the original
// is stored, so it finds it, lands on the same node and sends nothing.
// Without that ordering the copy bids against nodes that have not seen
// the original, lands on a less loaded one and is stored a second time.
func TestCopyOnHeelsOfOriginalDedupes(t *testing.T) {
	eachTransport(t, func(t *testing.T, transport string) {
		r := newRig(t, transport, 4, rigOpt{})
		fill := randBytes(71, 64<<10)
		filler := &core.SuperChunk{Chunks: []core.ChunkRef{{FP: fingerprint.Sum(fill), Size: len(fill), Data: fill}}}
		first := new(atomic.Bool)
		for i, nd := range r.byID {
			r.byID[i] = slowFirstStore{Node: nd, first: first, filler: filler, delay: 50 * time.Millisecond}
		}
		s := r.session(t, ingest.Config{SuperChunkSize: 1 << 20})
		content := randBytes(70, 128<<10) // one super-chunk, cut at the item boundary
		mustBackup(t, s, "/original", content)
		mustBackup(t, s, "/copy", content)
		mustFlush(t, s)
		if st := s.Stats(); st.SuperChunks != 2 || st.TransferredBytes != int64(len(content)) {
			t.Fatalf("%d super-chunks, %d bytes transferred; want 2 and %d: the copy did not dedup against its original",
				st.SuperChunks, st.TransferredBytes, len(content))
		}
		if got, want := r.liveBytes(), int64(len(content)+len(fill)); got != want {
			t.Fatalf("nodes hold %d live bytes, want %d (one copy of the content plus the filler)", got, want)
		}
		for _, name := range []string{"/original", "/copy"} {
			if !bytes.Equal(r.restore(t, name), content) {
				t.Fatalf("%s does not restore", name)
			}
		}
	})
}

// TestRebackupReleasesOldGeneration: backing a name up again releases
// the superseded recipe's references, so the old generation becomes
// reclaimable; deleting the name afterwards leaves nothing alive.
func TestRebackupReleasesOldGeneration(t *testing.T) {
	eachTransport(t, func(t *testing.T, transport string) {
		r := newRig(t, transport, 1, rigOpt{})
		s := r.session(t, ingest.Config{SuperChunkSize: 32 << 10})
		v1, v2 := randBytes(60, 128<<10), randBytes(61, 128<<10)
		mustBackup(t, s, "/data", v1)
		mustBackup(t, s, "/data", v2)
		mustFlush(t, s)
		nd := r.nodes[0]
		if gc := nd.GCStats(); gc.DeadBytes < int64(len(v1)) {
			t.Fatalf("DeadBytes after supersede = %d, want >= %d (v1's share)", gc.DeadBytes, len(v1))
		}
		if _, err := nd.Compact(context.Background(), 0.99); err != nil {
			t.Fatal(err)
		}
		if got := r.restore(t, "/data"); !bytes.Equal(got, v2) {
			t.Fatal("latest generation corrupted after superseded space was reclaimed")
		}
		if err := migrate.Delete(context.Background(), r.dir, r.node, "/data"); err != nil {
			t.Fatal(err)
		}
		if _, err := nd.Compact(context.Background(), 0.99); err != nil {
			t.Fatal(err)
		}
		if usage := nd.StorageUsage(); usage != 0 {
			t.Fatalf("storage after deleting every generation = %d, want 0", usage)
		}
	})
}

// TestFailedItemAbortsSessionStaysUsable: with the cluster down a backup
// fails on its own, typed with the item's name and the stage that
// failed; nothing is sticky — the next backup succeeds once the node is
// back — and the failed item stored nothing that stays referenced.
func TestFailedItemAbortsSessionStaysUsable(t *testing.T) {
	eachTransport(t, func(t *testing.T, transport string) {
		r := newRig(t, transport, 2, rigOpt{})
		s := r.session(t, ingest.Config{SuperChunkSize: 16 << 10})
		ok := randBytes(9, 64<<10)
		mustBackup(t, s, "/ok", ok)
		mustFlush(t, s)
		live := r.liveBytes()

		// One node down: part of the item is stored on the other before a
		// route reaches the dead one.
		r.down[1].Store(true)
		var berr *sderr.BackupError
		for i := 0; i < 2; i++ {
			err := s.Backup(context.Background(), "/dead", bytes.NewReader(randBytes(int64(20+i), 256<<10)))
			if !errors.Is(err, errNodeDown) || !errors.As(err, &berr) || berr.Name != "/dead" || berr.Stage != "route" {
				t.Fatalf("backup against a dead node = %v, want a route-stage BackupError of /dead", err)
			}
		}
		if got := r.liveBytes(); got != live {
			t.Fatalf("live bytes %d after two aborted backups, want %d: references stranded", got, live)
		}
		if _, err := r.dir.GetRecipe(context.Background(), "/dead"); !errors.Is(err, director.ErrNoRecipe) {
			t.Fatalf("aborted backup is in the catalog: %v", err)
		}

		r.down[1].Store(false)
		after := randBytes(30, 200<<10)
		mustBackup(t, s, "/after", after)
		mustFlush(t, s)
		if !bytes.Equal(r.restore(t, "/after"), after) || !bytes.Equal(r.restore(t, "/ok"), ok) {
			t.Fatal("backups around the failed one do not restore")
		}
	})
}

// replicaFails is a node transport whose replica passes store and then
// fail: every chunk holds a reference from the call that reports the error.
type replicaFails struct{ migrate.Node }

var errReplicaWrite = errors.New("injected: replica write failed")

func (f replicaFails) Dedup(ctx context.Context, stream string, sc *core.SuperChunk, hp core.Handprint, eager bool) ([]bool, error) {
	fresh, err := f.Node.Dedup(ctx, stream, sc, hp, eager)
	if err != nil || stream != migrate.Stream {
		return fresh, err
	}
	return make([]bool, len(sc.Chunks)), errReplicaWrite
}

// TestReplicaWriteFailureAbortsItem: at R=2 a super-chunk whose primary
// pass succeeds and whose replica pass fails fails its item at the store
// stage, and the abort releases the references of both copies, so no node
// keeps anything of the item; what committed before still restores.
func TestReplicaWriteFailureAbortsItem(t *testing.T) {
	eachTransport(t, func(t *testing.T, transport string) {
		ctx := context.Background()
		r := newRig(t, transport, 3, rigOpt{})
		s := r.session(t, ingest.Config{SuperChunkSize: 16 << 10, Replicas: 2})
		ok := randBytes(70, 64<<10)
		mustBackup(t, s, "/ok", ok)
		mustFlush(t, s)
		live := r.liveBytes()
		if live != 2*int64(len(ok)) {
			t.Fatalf("live bytes %d after one R=2 backup of %d bytes, want two copies", live, len(ok))
		}

		healthy := r.byID
		r.byID = nil
		for _, nd := range healthy {
			r.byID = append(r.byID, replicaFails{nd})
		}
		err := s.Backup(ctx, "/half", bytes.NewReader(randBytes(71, 128<<10)))
		if err == nil {
			err = s.Flush(ctx) // the failure surfaced with the item's tail
		}
		var berr *sderr.BackupError
		if !errors.Is(err, errReplicaWrite) || !errors.As(err, &berr) || berr.Name != "/half" || berr.Stage != "store" {
			t.Fatalf("backup whose replica writes fail = %v, want a store-stage BackupError of /half", err)
		}
		if got := r.liveBytes(); got != live {
			t.Fatalf("live bytes %d after the aborted backup, want %d: references stranded", got, live)
		}
		if _, err := r.dir.GetRecipe(ctx, "/half"); !errors.Is(err, director.ErrNoRecipe) {
			t.Fatalf("aborted backup is in the catalog: %v", err)
		}
		r.byID = healthy
		if !bytes.Equal(r.restore(t, "/ok"), ok) {
			t.Fatal("the committed backup does not restore")
		}
	})
}

// TestTailOutlivesCallerContext: an item commits once its tail is
// stored, even if the caller cancels the Backup call's context the
// moment the call returns (the defer-cancel idiom).
func TestTailOutlivesCallerContext(t *testing.T) {
	eachTransport(t, func(t *testing.T, transport string) {
		r := newRig(t, transport, 2, rigOpt{delay: 5 * time.Millisecond})
		s := r.session(t, ingest.Config{SuperChunkSize: 16 << 10})
		data := randBytes(7, 100<<10)
		ctx, cancel := context.WithCancel(context.Background())
		err := s.Backup(ctx, "/tail", bytes.NewReader(data))
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		mustFlush(t, s)
		if !bytes.Equal(r.restore(t, "/tail"), data) {
			t.Fatal("item whose caller canceled after return does not restore")
		}
	})
}

// TestSeverMidWindowSurfacesPromptly kills the cluster in the middle of
// a wide window — over rpc by severing the connection after a few
// responses, stranding every call in flight — and requires the backup to
// fail promptly instead of hanging on them, and a further backup to fail
// fast on its own.
func TestSeverMidWindowSurfacesPromptly(t *testing.T) {
	eachTransport(t, func(t *testing.T, transport string) {
		r := newRig(t, transport, 1, rigOpt{delay: 2 * time.Millisecond, srv: []rpc.ServerOption{rpc.WithSeverAfter(6)}})
		s := r.session(t, ingest.Config{SuperChunkSize: 8 << 10, Inflight: 8})
		if transport == "local" {
			time.AfterFunc(20*time.Millisecond, func() { r.down[0].Store(true) })
		}
		result := make(chan error, 1)
		go func() {
			err := s.Backup(context.Background(), "/doomed", bytes.NewReader(randBytes(77, 1<<20)))
			if err == nil {
				err = s.Flush(context.Background())
			}
			result <- err
		}()
		select {
		case err := <-result:
			if err == nil {
				t.Fatal("backup over a severed cluster reported success")
			}
		case <-time.After(30 * time.Second):
			t.Fatal("pipeline hung after the cluster was severed")
		}
		start := time.Now()
		err := s.Backup(context.Background(), "/after", bytes.NewReader(randBytes(78, 8<<10)))
		if err == nil {
			err = s.Flush(context.Background()) // a one-super-chunk item settles here
		}
		if err == nil {
			t.Fatal("backup against the severed cluster reported success")
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("post-sever backup took %v; should fail fast", elapsed)
		}
	})
}

// endless produces pseudo-random bytes forever: only cancellation can
// end a backup of it.
type endless struct{ rng *rand.Rand }

func (r *endless) Read(p []byte) (int, error) { return r.rng.Read(p) }

// TestCancelStopsWithinASuperChunk cancels a backup of an endless stream
// against a slow cluster: the call returns within about one super-chunk
// of work with context.Canceled in the chain, the item is gone, and the
// session backs up again.
func TestCancelStopsWithinASuperChunk(t *testing.T) {
	eachTransport(t, func(t *testing.T, transport string) {
		r := newRig(t, transport, 1, rigOpt{delay: 20 * time.Millisecond})
		s := r.session(t, ingest.Config{SuperChunkSize: 64 << 10})
		ctx, cancel := context.WithCancel(context.Background())
		result := make(chan error, 1)
		go func() { result <- s.Backup(ctx, "/endless", &endless{rand.New(rand.NewSource(99))}) }()
		time.Sleep(150 * time.Millisecond) // several super-chunks in flight
		canceledAt := time.Now()
		cancel()
		select {
		case err := <-result:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled backup = %v, want context.Canceled in the chain", err)
			}
			if elapsed := time.Since(canceledAt); elapsed > 2*time.Second {
				t.Fatalf("backup took %v to honor cancellation", elapsed)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("canceled backup never returned")
		}
		data := randBytes(5, 100<<10)
		mustBackup(t, s, "/after", data)
		mustFlush(t, s)
		if !bytes.Equal(r.restore(t, "/after"), data) {
			t.Fatal("backup after a canceled one does not restore")
		}
	})
}

// TestOnePipelineTwoTransports is the differential the twin pipelines
// never allowed: the same seeded multi-item input, at a window of one
// and one worker (so every routing decision sees the same cluster
// state), through a 4-node cluster on each transport yields identical
// recipes — node per entry — and identical stored bytes per node.
func TestOnePipelineTwoTransports(t *testing.T) {
	type outcome struct {
		recipes map[string][]director.ChunkEntry
		usage   []int64
	}
	run := func(transport string) outcome {
		r := newRig(t, transport, 4, rigOpt{})
		s := r.session(t, ingest.Config{SuperChunkSize: 32 << 10, Inflight: 1, Workers: 1})
		shared := randBytes(500, 96<<10)
		out := outcome{recipes: make(map[string][]director.ChunkEntry)}
		for i := 0; i < 12; i++ {
			name := fmt.Sprintf("/item%02d", i)
			data := append(append([]byte(nil), shared[:(i%4)*(24<<10)]...), randBytes(int64(501+i), 40<<10+i*3000)...)
			mustBackup(t, s, name, data)
		}
		mustFlush(t, s)
		for _, name := range r.dir.Files() {
			rec, err := r.dir.GetRecipe(context.Background(), name)
			if err != nil {
				t.Fatal(err)
			}
			out.recipes[name] = rec.Chunks
		}
		for _, nd := range r.nodes {
			out.usage = append(out.usage, nd.StorageUsage())
		}
		return out
	}
	local, wire := run("local"), run("rpc")
	if fmt.Sprint(local.usage) != fmt.Sprint(wire.usage) {
		t.Fatalf("stored bytes per node differ: local %v, rpc %v", local.usage, wire.usage)
	}
	if len(local.recipes) != 12 || len(wire.recipes) != 12 {
		t.Fatalf("recipes: local %d, rpc %d, want 12", len(local.recipes), len(wire.recipes))
	}
	for name, want := range local.recipes {
		got := wire.recipes[name]
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries over rpc, %d in process", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s entry %d: rpc %+v, local %+v", name, i, got[i], want[i])
			}
		}
	}
}
