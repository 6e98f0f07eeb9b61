package ingest

import (
	"sync"
	"sync/atomic"
)

// bufPool recycles chunk payload buffers between the chunker (which
// fills them) and apply (which runs after the super-chunk has left the
// in-flight window and its payloads crossed the wire). With the pool in
// place a backup's live chunk-buffer allocation is O(InflightSuperChunks)
// regardless of stream length; the alloc/reuse counters are the
// session's proof of that cliff (allocs plateau at roughly the window
// size while reuses grow with the stream).
//
// The free list is a mutex-guarded stack, not a sync.Pool: Put into a
// sync.Pool boxes the slice header, costing one heap allocation per
// released chunk — exactly the per-chunk churn the pool exists to kill.
type bufPool struct {
	mu     sync.Mutex
	free   [][]byte
	bufCap int          // capacity every pooled buffer is provisioned with
	allocs atomic.Int64 // buffers newly made (pool miss)
	reuses atomic.Int64 // buffers served from the pool
}

// bufPoolRetain bounds the free stack. The steady-state population is
// the in-flight window's worth of chunks; anything beyond that is churn
// from a draining burst and can go to the GC.
const bufPoolRetain = 1024

// alloc implements chunker.Allocator: a slice of length n, drawn from
// the pool when possible.
func (p *bufPool) alloc(n int) []byte {
	if n <= p.bufCap {
		p.mu.Lock()
		if last := len(p.free) - 1; last >= 0 {
			b := p.free[last]
			p.free[last] = nil
			p.free = p.free[:last]
			p.mu.Unlock()
			p.reuses.Add(1)
			return b[:n]
		}
		p.mu.Unlock()
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
	if cap(b) < p.bufCap {
		return
	}
	p.mu.Lock()
	if len(p.free) < bufPoolRetain {
		p.free = append(p.free, b[:0])
	}
	p.mu.Unlock()
}
