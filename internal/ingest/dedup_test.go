package ingest_test

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/ingest"
	"sigmadedupe/internal/migrate"
	"sigmadedupe/internal/node"
	"sigmadedupe/internal/rpc"
	"sigmadedupe/internal/sderr"
)

// assertCatalogConsistent checks that the nodes hold exactly what the
// catalog implies: every node's reference count on every cataloged chunk
// equals its attributions there, and its live bytes are those chunks and
// nothing else — no reference the catalog does not account for.
func (r *rig) assertCatalogConsistent(t *testing.T) {
	t.Helper()
	recipes, err := r.dir.Recipes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var all []fingerprint.Fingerprint
	sizeOf := make(map[fingerprint.Fingerprint]int64)
	expected := make(map[int32]map[fingerprint.Fingerprint]int64)
	for _, rec := range recipes {
		for _, e := range rec.Chunks {
			if _, ok := sizeOf[e.FP]; !ok {
				sizeOf[e.FP] = int64(e.Size)
				all = append(all, e.FP)
			}
			for _, at := range []int32{e.Node, e.Replica} {
				if at < 0 {
					continue
				}
				if expected[at] == nil {
					expected[at] = make(map[fingerprint.Fingerprint]int64)
				}
				expected[at][e.FP]++
			}
		}
	}
	for id, nd := range r.nodes {
		got := nd.RefCounts(all)
		var live int64
		for i, fp := range all {
			want := expected[int32(id)][fp]
			if got[i] != want {
				t.Fatalf("node %d holds %d refs on chunk %s, the catalog implies %d", id, got[i], fp.Short(), want)
			}
			if want > 0 {
				live += sizeOf[fp]
			}
		}
		if gc := nd.GCStats(); gc.LiveBytes != live {
			t.Fatalf("node %d has %d live bytes, the catalog accounts for %d", id, gc.LiveBytes, live)
		}
	}
}

// churned is data with every step-th 4KB block rewritten: a next
// generation that resembles it everywhere and holds a few new chunks.
func churned(data []byte, seed int64, step int) []byte {
	out := append([]byte(nil), data...)
	for off := 0; off < len(out); off += step * 4096 {
		copy(out[off:off+4096], randBytes(seed+int64(off), 4096))
	}
	return out
}

var errSecondCall = errors.New("injected: the payload call was lost")

// firstCallOnly is a node transport that delivers the fingerprint-first
// call of a super-chunk's store and loses the second: when the node
// reports chunks missing, their payloads never arrive and the call fails
// — reporting, as the contract asks, the missing chunks as holding no
// reference. first is the transport's first round trip alone.
type firstCallOnly struct {
	migrate.Node
	first func(ctx context.Context, stream string, sc *core.SuperChunk, hp core.Handprint) ([]bool, error)
}

func (f firstCallOnly) Dedup(ctx context.Context, stream string, sc *core.SuperChunk, hp core.Handprint, eager bool) ([]bool, error) {
	if eager {
		return f.Node.Dedup(ctx, stream, sc, hp, eager)
	}
	fresh, err := f.first(ctx, stream, sc, hp)
	if err != nil {
		return fresh, err
	}
	for _, missing := range fresh {
		if missing {
			return fresh, errSecondCall
		}
	}
	return fresh, nil
}

// firstOver is the first round trip alone, in process or on the wire.
func firstOver(nd *node.Node, conn *rpc.Client) func(context.Context, string, *core.SuperChunk, core.Handprint) ([]bool, error) {
	return func(ctx context.Context, stream string, sc *core.SuperChunk, hp core.Handprint) ([]bool, error) {
		fps := &core.SuperChunk{Chunks: make([]core.ChunkRef, len(sc.Chunks))}
		for i, ch := range sc.Chunks {
			fps.Chunks[i] = core.ChunkRef{FP: ch.FP, Size: ch.Size}
		}
		if conn == nil {
			return nd.Dedup(stream, fps, hp, false)
		}
		req := rpc.Request{Op: rpc.OpDedup, Stream: stream, Handprint: hp}
		for _, ch := range fps.Chunks {
			req.Chunks = append(req.Chunks, rpc.ChunkWire{FP: ch.FP, Size: int32(ch.Size)})
		}
		resp, err := conn.Call(ctx, req)
		fresh := make([]bool, len(sc.Chunks))
		for i := range fresh {
			fresh[i] = i >= len(resp.Dup) || !resp.Dup[i]
		}
		return fresh, err
	}
}

// checkAbortedGeneration is what an item aborted between the two calls
// leaves behind: a typed store-stage error of the item, the previous
// generation in the catalog and restoring, the nodes holding exactly what
// the catalog implies — the first call's references released — and the
// session usable.
func checkAbortedGeneration(t *testing.T, r *rig, err error, v1 []byte, live int64) {
	t.Helper()
	var berr *sderr.BackupError
	if !errors.As(err, &berr) || berr.Name != "/data" || berr.Stage != "store" {
		t.Fatalf("backup that lost its payload call = %v, want a store-stage BackupError of /data", err)
	}
	if got := r.liveBytes(); got != live {
		t.Fatalf("live bytes %d after the aborted generation, want the previous generation's %d", got, live)
	}
	r.assertCatalogConsistent(t)
	if !bytes.Equal(r.restore(t, "/data"), v1) {
		t.Fatal("the previous generation does not restore after the abort")
	}
}

// TestAbortBetweenTheTwoCalls: a generation whose payload call is lost
// after the fingerprint-first call took the duplicates' references — by
// a transport that drops it, on both transports — fails with a typed
// error and releases exactly those references; the session backs the
// generation up once the transport heals.
func TestAbortBetweenTheTwoCalls(t *testing.T) {
	eachTransport(t, func(t *testing.T, transport string) {
		r := newRig(t, transport, 2, rigOpt{})
		s := r.session(t, ingest.Config{SuperChunkSize: 64 << 10})
		v1 := randBytes(40, 512<<10)
		mustBackup(t, s, "/data", v1)
		mustFlush(t, s)
		live := r.liveBytes()

		healthy := append([]migrate.Node(nil), r.byID...)
		for i, nd := range r.nodes {
			var conn *rpc.Client
			if transport == "rpc" {
				conn = healthy[i].(gate).Node.(*rpc.Client)
			}
			r.byID[i] = firstCallOnly{Node: healthy[i], first: firstOver(nd, conn)}
		}
		v2 := churned(v1, 41, 16)
		err := s.Backup(context.Background(), "/data", bytes.NewReader(v2))
		if err == nil {
			err = s.Flush(context.Background())
		}
		checkAbortedGeneration(t, r, err, v1, live)

		copy(r.byID, healthy)
		mustBackup(t, s, "/data", v2)
		mustFlush(t, s)
		if !bytes.Equal(r.restore(t, "/data"), v2) {
			t.Fatal("the generation does not restore once the transport healed")
		}
		r.assertCatalogConsistent(t)
	})
}

// split sends a node's stores over one connection and everything else —
// bids, releases, restores — over another.
type split struct {
	migrate.Node
	stores migrate.Node
}

func (s split) Dedup(ctx context.Context, stream string, sc *core.SuperChunk, hp core.Handprint, eager bool) ([]bool, error) {
	return s.stores.Dedup(ctx, stream, sc, hp, eager)
}

// TestSeverBetweenTheTwoCalls is the same abort over TCP for real: the
// node's store connection is severed right after the fingerprint-first
// reply (rpc.WithSeverAfter), so the payload call dies with the
// connection. A window of one keeps that reply the connection's first.
func TestSeverBetweenTheTwoCalls(t *testing.T) {
	r := newRig(t, "rpc", 1, rigOpt{})
	s := r.session(t, ingest.Config{SuperChunkSize: 64 << 10, Inflight: 1})
	v1 := randBytes(42, 512<<10)
	mustBackup(t, s, "/data", v1)
	mustFlush(t, s)
	live := r.liveBytes()

	srv, err := rpc.NewServer(r.nodes[0], "127.0.0.1:0", rpc.WithSeverAfter(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := rpc.DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	healthy := r.byID[0]
	r.byID[0] = split{Node: healthy, stores: conn}

	v2 := churned(v1, 43, 16) // the first super-chunk holds a new chunk
	err = s.Backup(context.Background(), "/data", bytes.NewReader(v2))
	if err == nil {
		err = s.Flush(context.Background())
	}
	checkAbortedGeneration(t, r, err, v1, live)

	r.byID[0] = healthy
	mustBackup(t, s, "/data", v2)
	mustFlush(t, s)
	if !bytes.Equal(r.restore(t, "/data"), v2) {
		t.Fatal("the generation does not restore over a healthy connection")
	}
}

// TestRebackupRacingDeleteAndCompaction: one session keeps re-backing up
// a name while another goroutine keeps deleting it and compacting every
// node at a live-ratio floor that collects anything dead. The duplicate
// verdict and the reference are one step at the node, so no backup can
// lose a chunk to the compactor between asking and storing (the race that
// used to fail stores with ErrChunkVanished); every backup succeeds and
// the last one restores byte-identical.
func TestRebackupRacingDeleteAndCompaction(t *testing.T) {
	eachTransport(t, func(t *testing.T, transport string) {
		r := newRig(t, transport, 2, rigOpt{})
		s := r.session(t, ingest.Config{SuperChunkSize: 32 << 10})
		content := randBytes(44, 384<<10)
		ctx := context.Background()
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := migrate.Delete(ctx, r.dir, r.node, "/a"); err != nil && !errors.Is(err, director.ErrNoRecipe) {
					t.Errorf("delete: %v", err)
					return
				}
				for _, nd := range r.nodes {
					if _, err := nd.Compact(ctx, 0.999); err != nil {
						t.Errorf("compact: %v", err)
						return
					}
				}
			}
		}()
		for i := 0; i < 25 && !t.Failed(); i++ {
			err := s.Backup(ctx, "/a", bytes.NewReader(content))
			if err == nil {
				err = s.Flush(ctx)
			}
			if err != nil {
				t.Errorf("re-backup %d: %v (vanished: %v)", i, err, errors.Is(err, sderr.ErrChunkVanished))
			}
		}
		close(done)
		wg.Wait()
		mustBackup(t, s, "/a", content)
		mustFlush(t, s)
		if !bytes.Equal(r.restore(t, "/a"), content) {
			t.Fatal("the last generation does not restore byte-identical")
		}
		r.assertCatalogConsistent(t)
	})
}

// TestDeadChunksResurrectWithoutTransfer: content whose backup was
// deleted but not yet compacted is still indexed on the nodes; backing it
// up again revives it by reference — no payload counts as transferred —
// and restores.
func TestDeadChunksResurrectWithoutTransfer(t *testing.T) {
	eachTransport(t, func(t *testing.T, transport string) {
		r := newRig(t, transport, 2, rigOpt{})
		s := r.session(t, ingest.Config{SuperChunkSize: 32 << 10})
		content := randBytes(45, 256<<10)
		mustBackup(t, s, "/a", content)
		mustFlush(t, s)
		if err := migrate.Delete(context.Background(), r.dir, r.node, "/a"); err != nil {
			t.Fatal(err)
		}
		if live := r.liveBytes(); live != 0 {
			t.Fatalf("%d live bytes after the delete, want 0", live)
		}
		before := s.Stats().TransferredBytes
		mustBackup(t, s, "/a", content)
		mustFlush(t, s)
		if sent := s.Stats().TransferredBytes - before; sent != 0 {
			t.Fatalf("re-backup of deleted, uncompacted content transferred %d bytes, want 0", sent)
		}
		if !bytes.Equal(r.restore(t, "/a"), content) {
			t.Fatal("resurrected content does not restore")
		}
		r.assertCatalogConsistent(t)
	})
}
