package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// TestGroupCtxCancelFailsGroup: canceling the bound context must cancel
// the group (stages unblock via Done) and Wait must report ctx.Err().
func TestGroupCtxCancelFailsGroup(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGroupCtx(ctx)
	started := make(chan struct{})
	g.Go(func() error {
		close(started)
		<-g.Done() // blocks until cancellation reaches the group
		return nil
	})
	<-started
	cancel()
	if err := g.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
}

// TestGroupCtxCleanCompletion: a group bound to a never-canceled context
// completes cleanly and does not leak its watcher (Wait retires it).
func TestGroupCtxCleanCompletion(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := NewGroupCtx(ctx)
	g.Go(func() error { return nil })
	if err := g.Wait(); err != nil {
		t.Fatalf("Wait = %v, want nil", err)
	}
}

func TestMapPreservesOrder(t *testing.T) {
	g := NewGroup()
	in := Produce(g, 8, func(yield func(int) bool) error {
		for i := 0; i < 1000; i++ {
			if !yield(i) {
				return nil
			}
		}
		return nil
	})
	rng := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, 1000)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(100)) * time.Microsecond
	}
	out := Map(g, in, 8, 16, func(i int) (int, error) {
		time.Sleep(delays[i]) // scramble completion order
		return i * 2, nil
	})
	next := 0
	for v := range out {
		if v != next*2 {
			t.Fatalf("out of order: got %d at position %d", v, next)
		}
		next++
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if next != 1000 {
		t.Fatalf("emitted %d results, want 1000", next)
	}
}

func TestMapPropagatesFirstError(t *testing.T) {
	g := NewGroup()
	boom := errors.New("boom")
	in := Produce(g, 4, func(yield func(int) bool) error {
		for i := 0; ; i++ { // unbounded: only cancellation stops it
			if !yield(i) {
				return nil
			}
		}
	})
	out := Map(g, in, 4, 8, func(i int) (int, error) {
		if i == 37 {
			return 0, boom
		}
		return i, nil
	})
	for range out {
	}
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want boom", err)
	}
}

func TestMapConsumerAbandonViaFail(t *testing.T) {
	// A consumer that stops reading mid-stream must be able to unblock the
	// whole pipeline by failing the group.
	g := NewGroup()
	in := Produce(g, 2, func(yield func(int) bool) error {
		for i := 0; ; i++ {
			if !yield(i) {
				return nil
			}
		}
	})
	out := Map(g, in, 2, 4, func(i int) (int, error) { return i, nil })
	stop := errors.New("stop")
	n := 0
	for range out {
		n++
		if n == 10 {
			g.Fail(stop)
			break
		}
	}
	if err := g.Wait(); !errors.Is(err, stop) {
		t.Fatalf("Wait = %v, want stop", err)
	}
}

func TestProducerErrorCancels(t *testing.T) {
	g := NewGroup()
	bad := errors.New("read error")
	in := Produce(g, 2, func(yield func(int) bool) error {
		yield(1)
		return bad
	})
	out := Map(g, in, 2, 4, func(i int) (int, error) { return i, nil })
	for range out {
	}
	if err := g.Wait(); !errors.Is(err, bad) {
		t.Fatalf("Wait = %v, want read error", err)
	}
}

func TestMapBoundedConcurrency(t *testing.T) {
	g := NewGroup()
	in := Produce(g, 64, func(yield func(int) bool) error {
		for i := 0; i < 200; i++ {
			if !yield(i) {
				return nil
			}
		}
		return nil
	})
	var cur, peak atomic.Int64
	out := Map(g, in, 3, 6, func(i int) (int, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(50 * time.Microsecond)
		cur.Add(-1)
		return i, nil
	})
	for range out {
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d exceeds 3 workers", p)
	}
}

func TestGroupFirstErrorWins(t *testing.T) {
	g := NewGroup()
	first := errors.New("first")
	g.Fail(first)
	g.Fail(errors.New("second"))
	g.Go(func() error { return fmt.Errorf("third") })
	if err := g.Wait(); !errors.Is(err, first) {
		t.Fatalf("Wait = %v, want first", err)
	}
	select {
	case <-g.Done():
	default:
		t.Fatal("Done must be closed after Fail")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Workers < 1 || c.Depth < 2 {
		t.Fatalf("bad defaults: %+v", c)
	}
	c = Config{Workers: 3}.WithDefaults()
	if c.Workers != 3 || c.Depth != 6 {
		t.Fatalf("bad derived depth: %+v", c)
	}
}
