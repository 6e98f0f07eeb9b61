package store

import (
	"container/list"
	"fmt"
	"sync"

	"sigmadedupe/internal/fingerprint"
)

// fpEntry is one cached container's fingerprint set.
type fpEntry struct {
	cid uint64
	fps []fingerprint.Fingerprint
}

// fpCache is the chunk-fingerprint cache (paper §3.3): an LRU cache, at
// container granularity, of the chunk fingerprints of recently accessed
// containers.
//
// When a representative fingerprint matches in the similarity index, the
// whole fingerprint set of the mapped container is prefetched here, so the
// subsequent chunk-by-chunk duplicate test for the super-chunk is served
// from RAM. The cache is a doubly-linked list indexed by a hash table, with
// LRU replacement, exactly as described in the paper. It is safe for
// concurrent use by multiple deduplication streams.
type fpCache struct {
	mu       sync.Mutex
	capacity int // max containers
	ll       *list.List
	byCID    map[uint64]*list.Element
	// byFP maps each cached fingerprint to the container it was most
	// recently prefetched with.
	byFP map[fingerprint.Fingerprint]uint64

	hits   uint64
	misses uint64
}

// newFPCache creates a cache holding at most capacity containers.
func newFPCache(capacity int) (*fpCache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("fingerprint cache: capacity %d must be positive", capacity)
	}
	return &fpCache{
		capacity: capacity,
		ll:       list.New(),
		byCID:    make(map[uint64]*list.Element),
		byFP:     make(map[fingerprint.Fingerprint]uint64),
	}, nil
}

// addContainer prefetches a container's fingerprints into the cache,
// evicting the least-recently-used container if needed. Re-adding a cached
// container refreshes its LRU position.
func (c *fpCache) addContainer(cid uint64, fps []fingerprint.Fingerprint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byCID[cid]; ok {
		// Refresh LRU position and, when a newer fingerprint set is
		// supplied (an open container that has grown since the last
		// prefetch), merge the new fingerprints into the entry.
		c.ll.MoveToFront(el)
		if e, isEntry := el.Value.(*fpEntry); isEntry && len(fps) > len(e.fps) {
			for _, fp := range fps[len(e.fps):] {
				c.byFP[fp] = cid
			}
			cp := make([]fingerprint.Fingerprint, len(fps))
			copy(cp, fps)
			e.fps = cp
		}
		return
	}
	for c.ll.Len() >= c.capacity {
		c.evictLocked()
	}
	cp := make([]fingerprint.Fingerprint, len(fps))
	copy(cp, fps)
	el := c.ll.PushFront(&fpEntry{cid: cid, fps: cp})
	c.byCID[cid] = el
	for _, fp := range cp {
		c.byFP[fp] = cid
	}
}

// cached reports whether the container is cached and, if so, how many of
// its fingerprints the entry holds — where a refresh of a growing open
// container resumes (extend). No LRU state or counter is touched.
func (c *fpCache) cached(cid uint64) (n int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byCID[cid]
	if !ok {
		return 0, false
	}
	return len(el.Value.(*fpEntry).fps), true
}

// extend refreshes a cached container that has grown since it was
// cached: fps are its fingerprints from position from on (what cached
// reported), and only those beyond the entry's current length are added.
// It reports false, doing nothing, when the container is no longer cached or
// fps starts past the entry's end.
func (c *fpCache) extend(cid uint64, from int, fps []fingerprint.Fingerprint) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byCID[cid]
	if !ok {
		return false
	}
	e := el.Value.(*fpEntry)
	if from > len(e.fps) {
		return false
	}
	c.ll.MoveToFront(el)
	if skip := len(e.fps) - from; skip < len(fps) {
		for _, fp := range fps[skip:] {
			c.byFP[fp] = cid
		}
		e.fps = append(e.fps, fps[skip:]...)
	}
	return true
}

// evictLocked removes the LRU container and unindexes its fingerprints.
func (c *fpCache) evictLocked() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	e, ok := el.Value.(*fpEntry)
	if !ok {
		return
	}
	c.ll.Remove(el)
	delete(c.byCID, e.cid)
	for _, fp := range e.fps {
		// A fingerprint may have been re-indexed by a newer container;
		// only remove it if it still points at the evicted one.
		if c.byFP[fp] == e.cid {
			delete(c.byFP, fp)
		}
	}
}

// lookup reports whether fp is cached and, if so, which container holds
// it, refreshing that container's LRU position.
func (c *fpCache) lookup(fp fingerprint.Fingerprint) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cid, ok := c.byFP[fp]
	if !ok {
		c.misses++
		return 0, false
	}
	if el, live := c.byCID[cid]; live {
		c.ll.MoveToFront(el)
	}
	c.hits++
	return cid, true
}

// hitRate returns hits/(hits+misses), or 0 before any lookups.
func (c *fpCache) hitRate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
