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

// getN pops up to n values onto dst under one lock.
func (l *freeList[T]) getN(dst []T, n int) []T {
	l.mu.Lock()
	from := max(len(l.free)-n, 0)
	dst = append(dst, l.free[from:]...)
	clear(l.free[from:])
	l.free = l.free[:from]
	l.mu.Unlock()
	return dst
}

func (l *freeList[T]) put(v T) {
	l.mu.Lock()
	l.free = append(l.free, v)
	l.mu.Unlock()
}

// putAll pushes every value of vs under one lock.
func (l *freeList[T]) putAll(vs []T) {
	l.mu.Lock()
	l.free = append(l.free, vs...)
	l.mu.Unlock()
}

// bufPool recycles chunk payload buffers between the chunker (which
// fills them) and apply (which runs after the super-chunk has left the
// in-flight window and its payloads crossed the wire). With the pool in
// place a backup's live chunk-buffer allocation is the window plus the
// hash stage regardless of stream length; the alloc/reuse counters are
// the session's proof (allocs plateau there while reuses grow with the
// stream). Buffers move in runs, one lock each: the chunker takes up to a
// batch's worth at a time into a private stock, and a super-chunk's come
// back together.
type bufPool struct {
	free   freeList[[]byte]
	bufCap int // capacity every pooled buffer is provisioned with
	// stock is the chunker's private run of recycled buffers, refilled
	// from free up to refill at a time. Only the goroutine running the
	// session's chunker — one at a time — touches it.
	stock  [][]byte
	refill int
	allocs atomic.Int64 // buffers newly made (pool miss)
	// reuses counts buffers served from the pool, as the chunker draws
	// them into its stock: an atomic add per chunk fenced the chunker's
	// copy into the previous buffer, 5 % of timed ingest.
	reuses atomic.Int64
}

// alloc implements chunker.Allocator: a slice of length n, drawn from
// the pool when possible.
func (p *bufPool) alloc(n int) []byte {
	if n <= p.bufCap {
		if len(p.stock) == 0 {
			p.stock = p.free.getN(p.stock, p.refill)
			p.reuses.Add(int64(len(p.stock)))
		}
		if last := len(p.stock) - 1; last >= 0 {
			b := p.stock[last]
			p.stock[last] = nil
			p.stock = p.stock[:last]
			return b[:n]
		}
	}
	p.allocs.Add(1)
	if n > p.bufCap {
		return make([]byte, n)
	}
	return make([]byte, n, p.bufCap)
}

// unused takes back a buffer alloc handed out that the chunker did not
// fill — the one drawn at the end of every stream — onto the chunker's
// stock, so a stream of one-chunk items does not make a buffer per item.
func (p *bufPool) unused(b []byte) {
	if cap(b) >= p.bufCap {
		p.stock = append(p.stock, b)
	}
}

// releaseAll returns chunk buffers for reuse, under one lock, once
// nothing references them; bufs is overwritten. Buffers that lost their
// provisioned capacity are dropped for the GC.
func (p *bufPool) releaseAll(bufs [][]byte) {
	keep := bufs[:0]
	for _, b := range bufs {
		if cap(b) >= p.bufCap {
			keep = append(keep, b)
		}
	}
	p.free.putAll(keep)
}
