package rpc

import (
	"bufio"
	"context"
	"errors"
	"net"
	"runtime"
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

func startServer(t *testing.T, cfg store.Config) (*Server, *Client) {
	t.Helper()
	return startServerAt(t, "tcp", cfg)
}

func makeSC(seed int64, n int) *core.SuperChunk { return makeSizedSC(seed, n, 4096) }

func TestBidQueryStoreCycle(t *testing.T) {
	_, c := startServer(t, store.Config{KeepPayloads: true})
	sc := makeSC(1, 16)
	hp := sc.Handprint(8)

	count, usage, err := c.Bid(context.Background(), hp)
	if err != nil {
		t.Fatal(err)
	}
	if count != 0 || usage != 0 {
		t.Fatalf("empty node bid = (%d,%d)", count, usage)
	}

	dup, err := c.Query(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dup {
		if d {
			t.Fatal("empty node reported duplicates")
		}
	}

	if err := c.Store(context.Background(), "s", sc, true); err != nil {
		t.Fatal(err)
	}
	count, usage, err = c.Bid(context.Background(), hp)
	if err != nil {
		t.Fatal(err)
	}
	if count != len(hp) {
		t.Fatalf("bid after store = %d, want %d", count, len(hp))
	}
	if usage != 16*4096 {
		t.Fatalf("usage = %d, want %d", usage, 16*4096)
	}

	dup, err = c.Query(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dup {
		if !d {
			t.Fatalf("chunk %d not reported duplicate after store", i)
		}
	}
}

func TestPipelinedConcurrentCalls(t *testing.T) {
	srv, c := startServer(t, store.Config{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				sc := makeSC(int64(w*1000+i), 4)
				if err := c.Store(context.Background(), "s"+string(rune('0'+w)), sc, false); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := c.Bid(context.Background(), sc.Handprint(4)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if stats := srv.Node().Stats(); stats.SuperChunks != 160 {
		t.Fatalf("SuperChunks = %d, want 160", stats.SuperChunks)
	}
}

func TestServerCloseUnblocksClient(t *testing.T) {
	srv, c := startServer(t, store.Config{})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Bid(context.Background(), core.Handprint{fingerprint.Sum([]byte("x"))}); err == nil {
		t.Fatal("call against closed server should fail")
	}
}

func TestMultipleClients(t *testing.T) {
	srv, c1 := startServer(t, store.Config{})
	c2, err := DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	sc := makeSC(4, 4)
	if err := c1.Store(context.Background(), "a", sc, false); err != nil {
		t.Fatal(err)
	}
	// Rebuild the same super-chunk so handprint state is independent.
	dup, err := c2.Query(context.Background(), makeSC(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dup {
		if !d {
			t.Fatalf("client2 chunk %d should be duplicate", i)
		}
	}
}

// TestSeverMidWindowFailsAllInflightCalls is the RPC fault-injection
// exercise: the server dies (WithSeverAfter) while a window of pipelined
// calls is in flight. Every in-flight call must surface a connection
// error promptly — none may hang on a response that will never come.
func TestSeverMidWindowFailsAllInflightCalls(t *testing.T) {
	const calls = 32
	const survive = 5
	nd, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The handler delay holds the whole window in flight so the sever
	// strands calls that were already sent, not just unsent ones.
	srv, err := NewServer(nd, "127.0.0.1:0",
		WithHandlerDelay(20*time.Millisecond), WithSeverAfter(survive))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc := makeSC(int64(9000+i), 4)
			_, _, errs[i] = c.Bid(context.Background(), sc.Handprint(4))
		}(i)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight calls hung after the server severed the connection")
	}
	okCount, errCount := 0, 0
	for _, err := range errs {
		if err != nil {
			errCount++
		} else {
			okCount++
		}
	}
	if okCount > survive {
		t.Fatalf("%d calls succeeded after a sever at %d responses", okCount, survive)
	}
	if errCount < calls-survive {
		t.Fatalf("only %d of %d stranded calls surfaced errors", errCount, calls-survive)
	}
	// The connection is failed for good: later calls fail fast, not hang.
	start := time.Now()
	if _, _, err := c.Bid(context.Background(), core.Handprint{fingerprint.Sum([]byte("post"))}); err == nil {
		t.Fatal("call on a severed connection should fail")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("post-sever call took %v; should fail fast", elapsed)
	}
}

func TestRemoteErrorPropagates(t *testing.T) {
	_, c := startServer(t, store.Config{}) // no payloads: restore unsupported
	sc := makeSC(5, 2)
	if err := c.Store(context.Background(), "s", sc, false); err != nil {
		t.Fatal(err)
	}
	c.Flush(context.Background())
	if _, err := c.ReadBatch(context.Background(), sc.Fingerprints()[:1]); err == nil {
		t.Fatal("restore without payloads should surface a remote error")
	}
}

// TestCancelMidWindowAbortsInflightCalls is the context twin of the
// sever test: a full window of pipelined calls is held in flight by the
// handler delay, then the shared context is canceled. Every in-flight
// call must return promptly with context.Canceled — none may wait out
// its response — and the connection must remain usable for fresh calls.
func TestCancelMidWindowAbortsInflightCalls(t *testing.T) {
	const calls = 24
	nd, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(nd, "127.0.0.1:0", WithHandlerDelay(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make([]error, calls)
	start := time.Now()
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc := makeSC(int64(7000+i), 4)
			_, _, errs[i] = c.Bid(ctx, sc.Handprint(4))
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the window take flight
	cancel()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight calls hung after their context was canceled")
	}
	// Cancellation beat the 200ms handler delay: every call aborted
	// early instead of waiting for its response.
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("canceled calls took %v; should abandon the wait immediately", elapsed)
	}
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("call %d error = %v, want context.Canceled", i, err)
		}
	}
	// The transport survives: a fresh context works on the same conn.
	if _, _, err := c.Bid(context.Background(), core.Handprint{fingerprint.Sum([]byte("fresh"))}); err != nil {
		t.Fatalf("call after cancellation failed: %v", err)
	}
}

// TestWireDeadlinePropagatesToServer: a context deadline travels on the
// wire and the server answers with a deadline error instead of doing the
// work once the budget is spent.
func TestWireDeadlinePropagatesToServer(t *testing.T) {
	nd, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(nd, "127.0.0.1:0", WithHandlerDelay(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, _, err = c.Bid(ctx, core.Handprint{fingerprint.Sum([]byte("slow"))})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline-bounded call = %v, want context.DeadlineExceeded", err)
	}
	// The node did no work for the expired call (the handler checked its
	// context after the delay): super-chunk counters stay zero.
	if st := nd.Stats(); st.SuperChunks != 0 {
		t.Fatalf("server did work for an expired call: %+v", st)
	}
}

// TestTornSendClosesConnection: a send the caller's deadline cuts off
// part-way leaves a torn frame on the stream. The connection must close
// with it, so the next call redials instead of going out behind the torn
// frame, where the server would read it as the frame's remainder (and,
// with the peer still not reading, block behind it until its deadline).
func TestTornSendClosesConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// A raw peer: the first connection stops reading after the handshake;
	// later ones answer every request with an empty success.
	var accepted atomic.Int32
	var mu sync.Mutex
	var peers []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, nc := range peers {
			nc.Close()
		}
	})
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			peers = append(peers, nc)
			mu.Unlock()
			br := bufio.NewReader(nc)
			if _, err := wire.ReadHandshake(br, wire.ProtoNode); err != nil {
				return
			}
			wire.WriteHandshake(nc, wire.ProtoNode)
			if accepted.Add(1) == 1 {
				continue
			}
			go func() {
				for {
					body, err := wire.ReadFrame(br, maxFrame)
					if err != nil {
						return
					}
					id, _, _, err := decodeRequestHeader(wire.NewReader(body))
					wire.PutBuf(body)
					if err != nil || wire.WriteFrame(nc, appendResponseHeader(nil, id, "")) != nil {
						return
					}
				}
			}()
		}
	}()
	c, err := DialContext(context.Background(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	// 16 MB against a peer that reads nothing: the socket buffers take a
	// few frames, and the deadline cuts the send that blocks part-way.
	payload := make([]byte, 1<<20)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := call(c, ctx, dedupMissing, scArgs{chunks: []core.ChunkRef{{Size: 1 << 20, Data: payload}}}); err == nil {
				t.Error("a call to a peer that never answers succeeded")
			}
		}()
	}
	wg.Wait()
	cancel()
	ctx, cancel = context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	// The stores went down with the connection, unsealed: the first seal
	// says so at once, and the next is answered over a redialed connection.
	if err := c.Flush(ctx); !errors.Is(err, sderr.ErrUnavailable) {
		t.Fatalf("flush after a torn send = %v (after %v), want ErrUnavailable", err, time.Since(start))
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatalf("flush after a torn send: %v (after %v)", err, time.Since(start))
	}
	if n := accepted.Load(); n != 2 {
		t.Fatalf("peer accepted %d connections, want 2 (one redial)", n)
	}
}

// TestLostStoresFailNextSeal: a seal answers for the client's stores
// since the last seal. Once the connection that carried unsealed ones is
// lost — its peer restarted, with nothing of them — the next Flush or
// MigrateCommit fails with ErrUnavailable instead of reporting them
// durable, and the one after is answered. Stores sealed before the loss
// fail nothing.
func TestLostStoresFailNextSeal(t *testing.T) {
	ctx := context.Background()
	srv, c := startServer(t, store.Config{})
	addr := srv.Addr()
	restart := func() {
		t.Helper()
		srv.Close()
		n, err := store.New(store.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if srv, err = NewServer(n, addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		for { // until the client has seen its connection end
			c.mu.Lock()
			gone := c.cn == nil
			c.mu.Unlock()
			if gone {
				return
			}
			runtime.Gosched()
		}
	}
	if err := c.Store(ctx, "s", makeSC(1, 4), true); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	restart()
	if err := c.Flush(ctx); err != nil {
		t.Fatalf("flush after losing only sealed stores: %v", err)
	}
	seals := map[string]func() error{
		"Flush":         func() error { return c.Flush(ctx) },
		"MigrateCommit": func() error { return c.MigrateCommit(ctx, "m") },
	}
	for name, seal := range seals {
		if err := c.Store(ctx, "s", makeSC(2, 4), true); err != nil {
			t.Fatal(err)
		}
		restart()
		if err := seal(); !errors.Is(err, sderr.ErrUnavailable) {
			t.Fatalf("%s after losing unsealed stores = %v, want ErrUnavailable", name, err)
		}
		if err := seal(); err != nil {
			t.Fatalf("%s after the failed one: %v", name, err)
		}
	}
}
