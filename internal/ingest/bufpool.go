package ingest

import (
	"sync"
	"sync/atomic"
)

// freeList is a stack of recycled values: the chunk payload buffers of
// bufPool, the batches of feed. It keeps everything it is given, which
// needs no cap: the population only grows when get finds the stack empty,
// so free plus handed-out never exceeds the most that were ever out at
// once — the window plus the hash stage (see hashBatchBytes) — and a
// drained burst is there for the next one instead of being re-allocated.
// A mutex-guarded stack, not a sync.Pool: Put into a sync.Pool boxes a
// slice header, one heap allocation per released chunk — exactly the
// per-chunk churn the pool exists to kill.
type freeList[T any] struct {
	mu   sync.Mutex
	free []T
}

// get pops a value; the zero value when there is none.
func (l *freeList[T]) get() (v T) {
	l.mu.Lock()
	if last := len(l.free) - 1; last >= 0 {
		var zero T
		v, l.free[last] = l.free[last], zero
		l.free = l.free[:last]
	}
	l.mu.Unlock()
	return v
}

func (l *freeList[T]) put(v T) {
	l.mu.Lock()
	l.free = append(l.free, v)
	l.mu.Unlock()
}

// bufPool recycles chunk payload buffers between the chunker (which
// fills them) and apply (which runs after the super-chunk has left the
// in-flight window and its payloads crossed the wire). With the pool in
// place a backup's live chunk-buffer allocation is the window plus the
// hash stage regardless of stream length; the alloc/reuse counters are
// the session's proof (allocs plateau there while reuses grow with the
// stream).
type bufPool struct {
	free   freeList[[]byte]
	bufCap int          // capacity every pooled buffer is provisioned with
	allocs atomic.Int64 // buffers newly made (pool miss)
	reuses atomic.Int64 // buffers served from the pool
}

// alloc implements chunker.Allocator: a slice of length n, drawn from
// the pool when possible.
func (p *bufPool) alloc(n int) []byte {
	if n <= p.bufCap {
		if b := p.free.get(); b != nil {
			p.reuses.Add(1)
			return b[:n]
		}
	}
	p.allocs.Add(1)
	if n > p.bufCap {
		return make([]byte, n)
	}
	return make([]byte, n, p.bufCap)
}

// release returns a chunk buffer for reuse once nothing references it.
// Buffers that lost their provisioned capacity are dropped for the GC.
func (p *bufPool) release(b []byte) {
	if cap(b) >= p.bufCap {
		p.free.put(b)
	}
}
