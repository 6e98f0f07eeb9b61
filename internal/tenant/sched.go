package tenant

import (
	"container/heap"
	"context"
	"sync"
)

// weightFunc resolves a tenant's current fair-share weight. It is
// consulted when a request is tagged (at Acquire), so weight changes
// apply to subsequent super-chunks of a running session. It is called
// with the scheduler lock held and must not block.
type weightFunc func(tenant string) int

// Scheduler is a weighted-fair byte-token scheduler sitting in front of
// the in-flight super-chunk window. Concurrent sessions Acquire before
// submitting a super-chunk and release when the node round-trip
// completes; when demand exceeds CapacityBytes, grants go to the waiter
// with the minimum virtual start time — start-time fair queuing. Every
// request is tagged when it arrives: its start tag is the later of
// global virtual time and the tenant's tag clock, and the tag clock then
// advances by bytes/weight. Tagging at arrival serializes a tenant's
// outstanding requests in virtual time, so the grant order interleaves
// tenants chunk by chunk instead of bursting through one tenant's
// backlog; tenants therefore split the in-flight byte budget (and so
// node bandwidth) proportionally to weight, rather than racing.
//
// A Scheduler with CapacityBytes <= 0 admits everything immediately;
// both backends create one unconditionally, so single-tenant paths pay
// only an uncontended mutex.
type Scheduler struct {
	weight weightFunc

	mu       sync.Mutex
	capacity int64
	inflight int64
	vnow     float64
	// vtag is the per-tenant virtual tag clock: the finish tag of the
	// tenant's most recently tagged request. An idle tenant's clock is
	// behind vnow, so it re-enters at the current front instead of
	// burning saved-up credit.
	vtag  map[string]float64
	queue waitQueue
	seq   uint64
}

type waiter struct {
	tenant string
	bytes  int64
	vstart float64
	seq    uint64 // FIFO tie-break
	ready  chan struct{}
	index  int
}

type waitQueue []*waiter

func (q waitQueue) Len() int { return len(q) }
func (q waitQueue) Less(i, j int) bool {
	if q[i].vstart != q[j].vstart {
		return q[i].vstart < q[j].vstart
	}
	return q[i].seq < q[j].seq
}
func (q waitQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}
func (q *waitQueue) Push(x any) {
	w := x.(*waiter)
	w.index = len(*q)
	*q = append(*q, w)
}
func (q *waitQueue) Pop() any {
	old := *q
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.index = -1
	*q = old[:n-1]
	return w
}

// NewScheduler builds a scheduler with the given in-flight byte budget
// (<= 0 disables throttling) and weight source (nil means weight 1 for
// everyone).
func NewScheduler(capacityBytes int64, weight weightFunc) *Scheduler {
	if weight == nil {
		weight = func(string) int { return 1 }
	}
	return &Scheduler{
		weight:   weight,
		capacity: capacityBytes,
		vtag:     make(map[string]float64),
	}
}

// Acquire blocks until the scheduler grants bytes of in-flight budget
// to the tenant, or ctx is done. On success it returns a release
// function which MUST be called exactly once when the super-chunk's
// node round-trip completes.
func (s *Scheduler) Acquire(ctx context.Context, tenant string, bytes int64) (release func(), err error) {
	if bytes < 1 {
		bytes = 1
	}
	s.mu.Lock()
	if s.capacity <= 0 || (s.inflight+bytes <= s.capacity && s.queue.Len() == 0) ||
		s.inflight == 0 {
		// Uncontended, unlimited, or the window is empty (an oversized
		// super-chunk must not deadlock): grant immediately.
		vstart := s.tagLocked(tenant, bytes)
		s.vnow = vstart
		s.inflight += bytes
		s.mu.Unlock()
		return func() { s.release(bytes) }, nil
	}
	w := &waiter{
		tenant: tenant,
		bytes:  bytes,
		vstart: s.tagLocked(tenant, bytes),
		seq:    s.seq,
		ready:  make(chan struct{}),
	}
	s.seq++
	heap.Push(&s.queue, w)
	s.mu.Unlock()

	select {
	case <-w.ready:
		return func() { s.release(bytes) }, nil
	case <-ctx.Done():
		s.mu.Lock()
		if w.index >= 0 {
			heap.Remove(&s.queue, w.index)
			// The tenant's tag clock keeps the abandoned charge: refunding
			// it would require re-tagging every later request, and the
			// clock resets to vnow anyway once the tenant goes idle.
			s.mu.Unlock()
			return nil, ctx.Err()
		}
		// Raced with a grant: the budget is ours, hand it straight back.
		s.mu.Unlock()
		s.release(bytes)
		return nil, ctx.Err()
	}
}

// tagLocked assigns the SFQ start tag for the tenant's next request and
// advances the tenant's tag clock by bytes/weight, serializing the
// tenant's outstanding requests in virtual time.
func (s *Scheduler) tagLocked(tenant string, bytes int64) float64 {
	vstart := s.vnow
	if t, ok := s.vtag[tenant]; ok && t > vstart {
		vstart = t
	}
	wt := s.weight(tenant)
	if wt < 1 {
		wt = 1
	}
	s.vtag[tenant] = vstart + float64(bytes)/float64(wt)
	return vstart
}

func (s *Scheduler) release(bytes int64) {
	s.mu.Lock()
	s.inflight -= bytes
	if s.inflight < 0 {
		s.inflight = 0
	}
	var grants []*waiter
	for s.queue.Len() > 0 {
		next := s.queue[0]
		if s.inflight > 0 && s.inflight+next.bytes > s.capacity {
			break
		}
		heap.Pop(&s.queue)
		// Virtual time is the start tag of the request entering service.
		if next.vstart > s.vnow {
			s.vnow = next.vstart
		}
		s.inflight += next.bytes
		grants = append(grants, next)
	}
	s.mu.Unlock()
	for _, w := range grants {
		close(w.ready)
	}
}
