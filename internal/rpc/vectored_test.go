package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/sderr"
	"sigmadedupe/internal/store"
	"sigmadedupe/internal/wire"
)

// startServerAt is startServer on a chosen address form: "tcp" listens on
// loopback TCP, "unix" on a socket in the test's temporary directory.
func startServerAt(t testing.TB, network string, cfg store.Config) (*Server, *Client) {
	t.Helper()
	n, err := store.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr := "127.0.0.1:0"
	if network == "unix" {
		addr = "unix:" + filepath.Join(sockDir(t), "n.sock")
	}
	srv, err := NewServer(n, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

// sockDir is a temporary directory with a short name: t.TempDir embeds
// the test's name, and a socket path is limited to 108 bytes.
func sockDir(t testing.TB) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "sd")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

// makeSizedSC is makeSC with a chosen chunk size.
func makeSizedSC(seed int64, n, size int) *core.SuperChunk {
	rng := rand.New(rand.NewSource(seed))
	sc := &core.SuperChunk{}
	for i := 0; i < n; i++ {
		data := make([]byte, size)
		rng.Read(data)
		sc.Chunks = append(sc.Chunks, core.ChunkRef{FP: fingerprint.Sum(data), Size: size, Data: data})
	}
	return sc
}

// storeSealed stores sc on stream "s" and flushes, so its chunks are
// readable.
func storeSealed(t testing.TB, c *Client, sc *core.SuperChunk) {
	t.Helper()
	if err := c.Store(context.Background(), "s", sc, true); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func fpsOf(scs ...*core.SuperChunk) (fps []fingerprint.Fingerprint, want [][]byte) {
	for _, sc := range scs {
		for _, ch := range sc.Chunks {
			fps = append(fps, ch.FP)
			want = append(want, ch.Data)
		}
	}
	return fps, want
}

// TestVectoredReplyReadBatch restores through Client.ReadBatch a reply of
// more payloads than one writev takes (1024 iovecs), over both socket
// kinds, next to a reply small enough to take the buffered path.
func TestVectoredReplyReadBatch(t *testing.T) {
	for _, network := range []string{"tcp", "unix"} {
		t.Run(network, func(t *testing.T) {
			_, c := startServerAt(t, network, store.Config{KeepPayloads: true})
			big := makeSizedSC(1, 1500, 200) // 300 KB in 1500 payloads
			small := makeSizedSC(2, 4, 200)
			storeSealed(t, c, big)
			storeSealed(t, c, small)
			for _, sc := range []*core.SuperChunk{big, small, big} {
				fps, want := fpsOf(sc)
				batch, err := c.ReadBatch(context.Background(), fps)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if !bytes.Equal(batch.Data[i], want[i]) {
						t.Fatalf("payload %d of %d differs", i, len(want))
					}
				}
				batch.Release()
			}
		})
	}
}

// TestReadBatchErroredReplyShipsNoPayloads: a read that fails part-way
// answers with the typed error alone, not with the payloads gathered
// before the failure.
func TestReadBatchErroredReplyShipsNoPayloads(t *testing.T) {
	srv, c := startServerAt(t, "tcp", store.Config{KeepPayloads: true})
	sc := makeSC(3, 32) // 128 KB: past vectoredMin had it been sent
	storeSealed(t, c, sc)
	fps, _ := fpsOf(sc)
	fps = append(fps, fingerprint.Sum([]byte("never stored")))

	if _, err := c.ReadBatch(context.Background(), fps); !errors.Is(err, sderr.ErrNotFound) {
		t.Fatalf("ReadBatch with a missing chunk: %v, want ErrNotFound", err)
	}

	conn, br := rawDial(t, srv.Addr(), wire.ProtoNode)
	x := coder{b: appendRequestHeader(nil, 1, readBatch.op, 0)}
	x.fps(&fps)
	if err := wire.WriteFrame(conn, x.b); err != nil {
		t.Fatal(err)
	}
	body, err := wire.ReadFrame(br, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(body)
	r.U8()
	r.U64()
	msg := r.String()
	var rep readReply
	readBatch.result(&coder{r: r}, &rep)
	if msg == "" || r.Err() != nil || len(rep.chunks) != 0 || len(body) >= 1024 {
		t.Fatalf("errored reply: err %q (decode %v), %d chunks, %d bytes; want an error, no chunks, under 1 KB",
			msg, r.Err(), len(rep.chunks), len(body))
	}
}

// failConn passes budget bytes of writes through, then fails every write
// (the one that crosses the line part-way) while reads keep working: a
// reply torn mid-frame on a connection that otherwise looks alive.
type failConn struct {
	net.Conn
	budget atomic.Int64
}

func (c *failConn) Write(p []byte) (int, error) {
	left := c.budget.Add(-int64(len(p)))
	if left >= 0 {
		return c.Conn.Write(p)
	}
	n := max(0, int(left)+len(p))
	if n > 0 {
		n, _ = c.Conn.Write(p[:n])
	}
	return n, errors.New("injected write failure")
}

type failListener struct {
	net.Listener
	budget int64
}

func (l failListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	fc := &failConn{Conn: conn}
	fc.budget.Store(l.budget)
	return fc, nil
}

// severingProxy forwards everything from the client to the server but,
// on the first connection, only the first budget bytes the other way,
// then stops reading and closes both sides: a peer that goes away
// mid-reply with the server's write blocked on a full socket buffer.
// Later connections (the client's redial) are forwarded whole.
func severingProxy(t *testing.T, server string, budget int64) string {
	t.Helper()
	ln, err := net.Listen("unix", filepath.Join(sockDir(t), "p.sock"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for first := true; ; first = false {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			network, address := splitAddr(server)
			up, err := net.Dial(network, address)
			if err != nil {
				down.Close()
				return
			}
			go func(first bool) {
				defer down.Close()
				defer up.Close()
				go io.Copy(up, down)
				if !first {
					io.Copy(down, up)
					return
				}
				io.CopyN(down, up, budget)
				time.Sleep(50 * time.Millisecond) // let the server's write fill the socket buffer
			}(first)
		}
	}()
	return "unix:" + ln.Addr().String()
}

// TestVectoredReplyWriteErrorSeversConnection: a reply write that fails
// half-way must not be survivable. The server closes the connection, so
// every call in flight on it fails promptly (none hangs waiting for the
// rest of a frame that will never come, none is answered out of a torn
// stream) and Server.Close returns.
func TestVectoredReplyWriteErrorSeversConnection(t *testing.T) {
	const calls, replyBytes = 8, 1 << 20
	run := func(t *testing.T, srv *Server, dialAddr string) {
		seed, err := DialContext(context.Background(), srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		sc := makeSizedSC(5, replyBytes/8192, 8192)
		storeSealed(t, seed, sc)
		seed.Close()
		fps, want := fpsOf(sc)

		c, err := DialContext(context.Background(), dialAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		var wg sync.WaitGroup
		errs := make([]error, calls)
		for i := 0; i < calls; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				batch, err := c.ReadBatch(ctx, fps)
				if err == nil {
					for k := range want {
						if !bytes.Equal(batch.Data[k], want[k]) {
							err = fmt.Errorf("call %d: payload %d corrupted", i, k)
							t.Error(err)
							break
						}
					}
					batch.Release()
				}
				errs[i] = err
			}(i)
		}
		wg.Wait()
		failed := 0
		for _, err := range errs {
			if errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("in-flight call hung on the torn connection: %v", err)
			}
			if err != nil {
				failed++
			}
		}
		if failed == 0 {
			t.Fatal("no call failed: the write failure was not injected")
		}
		// The torn connection is not reused: a later call redials and is
		// answered whole, never out of the rest of the torn frame.
		batch, err := c.ReadBatch(ctx, fps[:1])
		if err != nil || !bytes.Equal(batch.Data[0], want[0]) {
			t.Fatalf("call after the torn reply: %v, want a redial and the right payload", err)
		}
		batch.Release()
		closed := make(chan struct{})
		go func() {
			srv.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(20 * time.Second):
			t.Fatal("Server.Close hung after a failed reply write")
		}
	}

	t.Run("write fails, reads stay open", func(t *testing.T) {
		nd, err := store.New(store.Config{KeepPayloads: true})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		// NewServer with the listener wrapped; the budget lets the seeding
		// connection's acks and the first replies through.
		srv := serve(&Server{target: nd, proto: wire.ProtoNode}, failListener{ln, 2*replyBytes + replyBytes/2}, nil)
		t.Cleanup(func() { srv.Close() })
		run(t, srv, srv.Addr())
	})

	t.Run("peer stops reading and closes mid-reply", func(t *testing.T) {
		srv, _ := startServerAt(t, "unix", store.Config{KeepPayloads: true})
		run(t, srv, severingProxy(t, srv.Addr(), replyBytes+replyBytes/2))
	})
}

// TestRestoreAliasingUnderAppendAndCompact holds the aliasing contract of
// the vectored reply to account: replies alias container memory (resident
// payloads on a RAM node, read-cache regions or fresh read buffers on a
// durable one) while another connection appends to the same stream and
// Compact(0.999) keeps rewriting and retiring the very containers the
// replies point into. Every restore must come back byte-identical.
func TestRestoreAliasingUnderAppendAndCompact(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func(dir string) store.Config
	}{
		{"ram", func(string) store.Config { return store.Config{KeepPayloads: true} }},
		{"durable", func(dir string) store.Config { return store.Config{KeepPayloads: true, Dir: dir} }},
		// ReadCacheBytes 0 selects the default budget; 1 byte admits no
		// region, so every read is a fresh buffer nothing else retains.
		{"durable, no read cache", func(dir string) store.Config {
			return store.Config{KeepPayloads: true, Dir: dir, ReadCacheBytes: 1}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(t.TempDir())
			cfg.ContainerCapacity = 256 << 10
			srv, c := startServerAt(t, "unix", cfg)
			ctx := context.Background()

			// The item and a garbage twin share every container; dropping
			// the twin leaves each container half dead.
			var item, twin []*core.SuperChunk
			for i := int64(0); i < 8; i++ {
				item, twin = append(item, makeSC(100+i, 64)), append(twin, makeSC(200+i, 64))
				for _, sc := range []*core.SuperChunk{item[i], twin[i]} {
					if err := c.Store(ctx, "s", sc, true); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := c.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			fps, want := fpsOf(item...)
			dead, _ := fpsOf(twin...)

			stop := make(chan struct{})
			var bg sync.WaitGroup
			background := func(f func(c *Client, round int64) error) {
				bc, err := DialContext(context.Background(), srv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				bg.Add(1)
				go func() {
					defer bg.Done()
					defer bc.Close()
					for round := int64(0); ; round++ {
						select {
						case <-stop:
							return
						default:
						}
						if err := f(bc, round); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			// Appender: new chunks on the item's stream, each round's
			// dropped again so the next compaction has work in the
			// containers the item's chunks were just moved to.
			background(func(bc *Client, round int64) error {
				sc := makeSC(1000+round, 16)
				if err := bc.Store(ctx, "s", sc, true); err != nil {
					return err
				}
				if err := bc.Flush(ctx); err != nil {
					return err
				}
				fps, _ := fpsOf(sc)
				return bc.DecRef(ctx, fps, ones(len(fps)))
			})
			background(func(bc *Client, _ int64) error {
				_, err := bc.Compact(ctx, 0.999)
				return err
			})

			for round := 0; round < 30; round++ {
				if round == 1 {
					// From here on the item's containers are half dead.
					if err := c.DecRef(ctx, dead, ones(len(dead))); err != nil {
						t.Fatal(err)
					}
				}
				batch, err := c.ReadBatch(ctx, fps)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if !bytes.Equal(batch.Data[i], want[i]) {
						t.Fatalf("round %d: payload %d differs", round, i)
					}
				}
				batch.Release()
			}
			close(stop)
			bg.Wait()
			if res, _, err := c.GCStats(ctx); err != nil || res.RetiredContainers == 0 {
				t.Fatalf("no container was retired under the restores (err %v): the test did not exercise the race", err)
			}
		})
	}
}

func ones(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// BenchmarkReadBatchReply is the reply path alone: one connection to a
// RAM node, one 2 MB ReadBatch per iteration, so MB/s is the cost of
// getting restored bytes from container memory to the caller and B/op is
// what both ends allocate for it. With -benchtime 1x the iteration is the
// first reply on a fresh connection, which is where a per-connection
// encode scratch pays for its growth.
func BenchmarkReadBatchReply(b *testing.B) {
	for _, network := range []string{"tcp", "unix"} {
		for _, size := range []int{8192, 4096} {
			b.Run(fmt.Sprintf("%s/%dKB", network, size>>10), func(b *testing.B) {
				_, c := startServerAt(b, network, store.Config{KeepPayloads: true})
				sc := makeSizedSC(11, (2<<20)/size, size)
				storeSealed(b, c, sc)
				fps, _ := fpsOf(sc)
				ctx := context.Background()
				b.SetBytes(2 << 20)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					batch, err := c.ReadBatch(ctx, fps)
					if err != nil {
						b.Fatal(err)
					}
					batch.Release()
				}
			})
		}
	}
}
