// Package pipeline provides the bounded-channel concurrency primitives
// behind the Σ-Dedupe ingest path. The paper's prototype is explicitly a
// pipelined, parallel backup engine (§3.1): every backup stream owns a
// pipeline of stages — read → chunk → fingerprint → super-chunk partition
// → route/transfer — and fingerprint queries are batched and asynchronous
// so computation overlaps network transfer.
//
// Three primitives compose into that pipeline:
//
//   - Group: goroutine lifecycle with first-error propagation and clean
//     cancellation. Every stage runs under one Group; the first stage to
//     fail cancels the rest, and Wait returns that first error.
//   - Map: an ordered parallel map over a channel. A pool of workers
//     transforms items concurrently while a bounded reorder window
//     delivers results strictly in input order — exactly what chunk
//     fingerprinting needs, since super-chunk partitioning and file
//     recipes depend on stream order.
//   - Produce: a generator feeding a bounded channel, stopped by the
//     group's cancellation.
//
// All stage channels are bounded, so an arbitrarily large input stream is
// processed with memory proportional to Workers + window sizes, never to
// the stream length.
package pipeline

import (
	"context"
	"runtime"
	"sync"
)

// DefaultWorkers returns the default fingerprint-pool size: one worker
// per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Config carries the concurrency knobs of the fingerprint stage.
type Config struct {
	// Workers is the fingerprint worker-pool size (default GOMAXPROCS).
	Workers int
	// Depth is the per-stage channel depth (default 2×Workers).
	Depth int
}

// WithDefaults fills zero fields with their defaults.
func (c Config) WithDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = DefaultWorkers()
	}
	if c.Depth <= 0 {
		c.Depth = 2 * c.Workers
	}
	return c
}

// Group runs the goroutines of one pipeline with first-error semantics:
// the first goroutine to return a non-nil error (or an explicit Fail)
// records the error and cancels the group; Wait blocks for all goroutines
// and returns that first error. A zero Group is not usable; call NewGroup
// or NewGroupCtx.
type Group struct {
	done chan struct{}
	// stop is closed by the first Wait to retire the context watcher of a
	// group that completed cleanly (done never closes on success).
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu  sync.Mutex
	err error
}

// NewGroup returns an empty running group with no external cancellation.
func NewGroup() *Group {
	return &Group{done: make(chan struct{}), stop: make(chan struct{})}
}

// NewGroupCtx returns a group bound to ctx: when ctx is canceled the
// group fails with ctx.Err(), so every stage selecting on Done unblocks
// and Wait reports the cancellation. This is how a caller's
// context.Context reaches every goroutine of a backup pipeline.
func NewGroupCtx(ctx context.Context) *Group {
	g := NewGroup()
	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				g.Fail(ctx.Err())
			case <-g.done:
			case <-g.stop:
			}
		}()
	}
	return g
}

// Done returns a channel closed when the group is cancelled. Stage loops
// select on it so a failure anywhere unblocks every channel send/receive.
func (g *Group) Done() <-chan struct{} { return g.done }

// Fail records err as the group error (first failure wins) and cancels
// the group. A nil err is ignored.
func (g *Group) Fail(err error) {
	if err == nil {
		return
	}
	g.mu.Lock()
	if g.err == nil {
		g.err = err
		close(g.done)
	}
	g.mu.Unlock()
}

// Go runs fn in a new goroutine; a non-nil return cancels the group.
func (g *Group) Go(fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.Fail(fn())
	}()
}

// Err returns the group error so far (nil while healthy).
func (g *Group) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// Wait blocks until every goroutine started with Go has returned, then
// reports the first error (nil on clean completion).
func (g *Group) Wait() error {
	g.wg.Wait()
	g.stopOnce.Do(func() { close(g.stop) })
	return g.Err()
}

// Map transforms items arriving on in with a pool of workers goroutines,
// delivering results on the returned channel in input order. The reorder
// queue and the output buffer each hold up to window items, so at most
// ~2×window+workers items are past the input side but not yet consumed —
// bounded, but size window accordingly when results pin large payloads.
// The output channel is closed when the input is drained or the group is
// cancelled; on cancellation the stage simply stops, and the caller
// learns the cause from Group.Wait.
//
// fn must be safe for concurrent use. An fn error cancels the group.
func Map[I, O any](g *Group, in <-chan I, workers, window int, fn func(I) (O, error)) <-chan O {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if window < workers {
		window = workers
	}
	type job struct {
		item I
		out  chan O
	}
	jobs := make(chan job)
	// order carries each item's 1-slot result channel in input order; its
	// capacity is the reorder window.
	order := make(chan chan O, window)

	// Dispatcher: pair every input item with a result slot.
	g.Go(func() error {
		defer close(jobs)
		defer close(order)
		for {
			var item I
			var ok bool
			select {
			case item, ok = <-in:
				if !ok {
					return nil
				}
			case <-g.Done():
				return nil
			}
			slot := make(chan O, 1)
			select {
			case order <- slot:
			case <-g.Done():
				return nil
			}
			select {
			case jobs <- job{item: item, out: slot}:
			case <-g.Done():
				return nil
			}
		}
	})

	// Worker pool.
	for w := 0; w < workers; w++ {
		g.Go(func() error {
			for j := range jobs {
				o, err := fn(j.item)
				if err != nil {
					return err
				}
				j.out <- o // 1-slot buffer: never blocks
			}
			return nil
		})
	}

	// Emitter: restore input order.
	out := make(chan O, window)
	g.Go(func() error {
		defer close(out)
		for slot := range order {
			var o O
			select {
			case o = <-slot:
			case <-g.Done():
				return nil
			}
			select {
			case out <- o:
			case <-g.Done():
				return nil
			}
		}
		return nil
	})
	return out
}

// Produce runs gen in a group goroutine, feeding a bounded channel via
// the yield function it is handed. yield returns false when the group is
// cancelled and the producer should stop. The channel is closed when gen
// returns; a non-nil gen error cancels the group.
func Produce[T any](g *Group, depth int, gen func(yield func(T) bool) error) <-chan T {
	if depth < 1 {
		depth = 1
	}
	ch := make(chan T, depth)
	g.Go(func() error {
		defer close(ch)
		return gen(func(v T) bool {
			select {
			case ch <- v:
				return true
			case <-g.Done():
				return false
			}
		})
	})
	return ch
}
