// Package container implements the self-describing container abstraction
// used for locality-preserved chunk storage (paper §3.3, after Zhu et al.'s
// DDFS design). A container packs the unique chunks of one data stream in
// arrival order; its metadata section lists each chunk's fingerprint,
// offset and length so that a single container read primes the
// chunk-fingerprint cache with an entire locality unit.
//
// The Manager supports parallel container management: each data stream
// owns a dedicated open container guarded by its own lock, so concurrent
// streams append without contending on one global mutex; a new container
// is opened when the stream's fills, and all disk accesses happen at
// container granularity. Sealed containers are immutable. When a spill
// directory is configured, sealed containers are persisted in the SDC1
// format (CRC32-protected, see Encode) and a byte-budgeted region cache
// retains the container ranges restore actually touched, so a batched
// restore reads each container file once, sequentially, instead of once
// per chunk.
package container

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/sderr"
)

// DefaultCapacity is the default container payload capacity. 4MB is the
// conventional container size in DDFS-style systems.
const DefaultCapacity = 4 << 20

// DefaultReadCacheBytes is the default byte budget of the read-region
// cache that retains container ranges read back from disk (64MB, the
// same bound the old 16-container loaded-container LRU gave).
const DefaultReadCacheBytes = 64 << 20

// readAheadBytes is how far past a single missed chunk ReadChunk extends
// its disk read, admitting the following region on the theory that a
// restore walking a recipe will want the neighbouring chunks of the same
// container next (locality-preserved layout, paper §3.3).
const readAheadBytes = 1 << 20

// readGapMax is the largest hole between two wanted chunks that a
// batched read bridges with one positioned read rather than splitting
// into two. It assumes container files are page-cache or SSD resident,
// where there is no seek to save: a bridged byte costs a zeroed
// allocation, a copy out of the page cache and a slot in the region
// cache, while a second read costs one syscall on the file the batch
// already holds open. 16KB — a few chunks — is where the two meet.
const readGapMax = 16 << 10

// ChunkMeta is one entry of a container's metadata section.
type ChunkMeta struct {
	FP     fingerprint.Fingerprint
	Offset uint32
	Length uint32
}

// Loc addresses a stored chunk: container ID plus position.
type Loc struct {
	CID    uint64
	Offset uint32
	Length uint32
}

// Container is a sealed or open storage unit.
type Container struct {
	ID   uint64
	Meta []ChunkMeta
	Data []byte // nil when the manager runs in metadata-only mode
	// bytes is the logical payload size even when Data is not retained.
	bytes int
}

// Len returns the number of chunks in the container.
func (c *Container) Len() int { return len(c.Meta) }

// Bytes returns the payload size in bytes.
func (c *Container) Bytes() int { return c.bytes }

// ErrNotFound reports a missing container or chunk. It wraps the
// system-wide sderr.ErrNotFound, so callers may dispatch on either.
var ErrNotFound = fmt.Errorf("container: %w", sderr.ErrNotFound)

// ErrCorrupt reports a container file that failed its CRC32 integrity
// check or whose structure contradicts its header. Wraps
// sderr.ErrCorrupt.
var ErrCorrupt = fmt.Errorf("container: %w", sderr.ErrCorrupt)

// SealRecord describes one sealed container, passed to the seal hook so a
// storage engine can journal the seal (e.g. into a recovery manifest).
type SealRecord struct {
	CID    uint64
	File   string // base name of the spilled file; "" when RAM-only
	Chunks int
	Bytes  int64
	CRC    uint32 // CRC32 (IEEE) of the spilled file; 0 when RAM-only
}

// openStream is one stream's open container plus the lock that serializes
// appends and seals on that stream. Distinct streams never share a lock.
type openStream struct {
	mu sync.Mutex
	c  *Container // nil between seal and the next append
}

// Manager allocates, fills, seals, persists and reads containers. All
// methods are safe for concurrent use; appends on distinct streams
// proceed in parallel.
type Manager struct {
	capacity    int
	keepData    bool
	dir         string // when non-empty, sealed containers are spilled here
	cacheBudget int64
	onSeal      func(SealRecord) error

	nextID atomic.Uint64

	// mu guards the four maps below. Stream locks (openStream.mu) are
	// always acquired before mu, never while holding it.
	mu        sync.RWMutex
	open      map[string]*openStream
	openByCID map[uint64]*openStream // open containers indexed by CID
	sealed    map[uint64]*Container  // metadata always resident
	onDisk    map[uint64]bool

	// The read-region cache: a byte-budgeted LRU of container payload
	// ranges read back from disk. Only the ranges a restore actually
	// touched are admitted, so a few hot containers cannot be evicted by
	// one cold scan the way whole-container retention allowed. Region
	// buffers are immutable once inserted; ReadChunk and ReadChunks hand
	// out sub-slices of them without copying.
	rcMu     sync.Mutex
	rcLL     *list.List // of *region; front = most recently used
	rcIx     map[uint64][]*list.Element
	rcUsed   int64
	rcHits   atomic.Uint64
	rcMisses atomic.Uint64
	rcEvicts atomic.Uint64

	readIOs   atomic.Uint64
	writeIOs  atomic.Uint64
	diskLoads atomic.Uint64
	readBytes atomic.Uint64 // payload bytes range reads took from spill files
	bytes     atomic.Int64
}

// region is one cached payload range [off, end) of a spilled container.
type region struct {
	cid      uint64
	off, end int
	data     []byte
}

// Option configures a Manager.
type Option func(*Manager)

// WithCapacity sets the container payload capacity in bytes.
func WithCapacity(n int) Option { return func(m *Manager) { m.capacity = n } }

// WithPayloads retains chunk payloads in memory (needed for restore paths
// and the real prototype; trace-driven simulation runs metadata-only).
func WithPayloads() Option { return func(m *Manager) { m.keepData = true } }

// WithDir spills sealed containers to files under dir, reading them back
// on demand. Implies payload retention for correctness of reads.
func WithDir(dir string) Option {
	return func(m *Manager) {
		m.dir = dir
		m.keepData = true
	}
}

// WithReadCache sets the byte budget of the read-region cache that
// retains container ranges read back from disk (0 disables retention;
// default DefaultReadCacheBytes).
func WithReadCache(n int64) Option { return func(m *Manager) { m.cacheBudget = n } }

// WithSealHook registers fn to be invoked after every successful seal,
// with the seal already durable (file written) but before the sealing
// append/Seal call returns. A hook error fails that call.
func WithSealHook(fn func(SealRecord) error) Option {
	return func(m *Manager) { m.onSeal = fn }
}

// NewManager creates a container manager.
func NewManager(opts ...Option) (*Manager, error) {
	m := &Manager{
		capacity:    DefaultCapacity,
		cacheBudget: DefaultReadCacheBytes,
		open:        make(map[string]*openStream),
		openByCID:   make(map[uint64]*openStream),
		sealed:      make(map[uint64]*Container),
		onDisk:      make(map[uint64]bool),
		rcLL:        list.New(),
		rcIx:        make(map[uint64][]*list.Element),
	}
	for _, o := range opts {
		o(m)
	}
	if m.capacity <= 0 {
		return nil, fmt.Errorf("container: capacity %d must be positive", m.capacity)
	}
	if m.dir != "" {
		if err := os.MkdirAll(m.dir, 0o755); err != nil {
			return nil, fmt.Errorf("container: create dir: %w", err)
		}
	}
	return m, nil
}

// streamState returns the stream's lock+container slot, creating it on
// first use. The slot outlives individual containers.
func (m *Manager) streamState(stream string) *openStream {
	m.mu.RLock()
	s := m.open[stream]
	m.mu.RUnlock()
	if s != nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s = m.open[stream]; s == nil {
		s = &openStream{}
		m.open[stream] = s
	}
	return s
}

// Append stores one unique chunk for the given stream, returning its
// location. The chunk payload may be nil in metadata-only mode, in which
// case size carries the chunk length. A stream's open container is sealed
// automatically when appending would exceed capacity. Appends on distinct
// streams run in parallel.
func (m *Manager) Append(stream string, fp fingerprint.Fingerprint, data []byte, size int) (Loc, error) {
	if data != nil {
		size = len(data)
	}
	if size <= 0 {
		return Loc{}, fmt.Errorf("container: chunk size %d must be positive", size)
	}
	if size > m.capacity {
		return Loc{}, fmt.Errorf("container: chunk size %d exceeds capacity %d", size, m.capacity)
	}
	s := m.streamState(stream)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.c != nil && s.c.bytes+size > m.capacity {
		if err := m.sealStream(s); err != nil {
			return Loc{}, err
		}
	}
	if s.c == nil {
		c := &Container{ID: m.nextID.Add(1)}
		if m.keepData {
			c.Data = make([]byte, 0, m.capacity)
		}
		s.c = c
		m.mu.Lock()
		m.openByCID[c.ID] = s
		m.mu.Unlock()
	}
	c := s.c
	loc := Loc{CID: c.ID, Offset: uint32(c.bytes), Length: uint32(size)}
	c.Meta = append(c.Meta, ChunkMeta{FP: fp, Offset: loc.Offset, Length: loc.Length})
	if m.keepData && data != nil {
		c.Data = append(c.Data, data...)
	}
	c.bytes += size
	m.bytes.Add(int64(size))
	return loc, nil
}

// Seal closes the stream's open container, making it readable via Get.
// Sealing an idle stream is a no-op.
func (m *Manager) Seal(stream string) error {
	m.mu.RLock()
	s := m.open[stream]
	m.mu.RUnlock()
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return m.sealStream(s)
}

// SealAll closes every open container (end of backup session).
func (m *Manager) SealAll() error {
	m.mu.RLock()
	streams := make([]*openStream, 0, len(m.open))
	for _, s := range m.open {
		streams = append(streams, s)
	}
	m.mu.RUnlock()
	for _, s := range streams {
		s.mu.Lock()
		err := m.sealStream(s)
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// sealStream seals s's open container. Caller holds s.mu. The spill (when
// configured) happens under the stream lock only, so other streams keep
// appending while this one writes its container file. Commit order is
// spill+fsync → seal hook (manifest record) → publish: a hook failure
// leaves the container open and the caller's operation failed, so a
// sealed-but-unjournaled container can never survive a later Flush.
func (m *Manager) sealStream(s *openStream) error {
	c := s.c
	if c == nil {
		return nil
	}
	rec := SealRecord{CID: c.ID, Chunks: len(c.Meta), Bytes: int64(c.bytes)}
	if m.dir != "" {
		crc, err := m.spill(c)
		if err != nil {
			return err
		}
		rec.File = FileName(c.ID)
		rec.CRC = crc
	}
	if m.onSeal != nil {
		if err := m.onSeal(rec); err != nil {
			return fmt.Errorf("container: seal hook for %d: %w", c.ID, err)
		}
	}
	if m.dir != "" {
		// Keep metadata resident; drop the payload to bound RAM. Done
		// before publishing into sealed so no reader sees it half-dropped.
		c.Data = nil
	}
	s.c = nil
	m.mu.Lock()
	delete(m.openByCID, c.ID)
	m.sealed[c.ID] = c
	if m.dir != "" {
		m.onDisk[c.ID] = true
	}
	m.mu.Unlock()
	m.writeIOs.Add(1)
	return nil
}

// Get returns a sealed container. Each call counts one container read I/O,
// the unit of disk access in the locality-preserved caching design.
// Spilled containers are read back in full (one disk load, CRC-verified)
// on every call and NOT retained: this is the non-caching read path used
// by background scans — chiefly the compactor — so a cold full-container
// sweep cannot evict restore's region-cache working set. Restore goes
// through ReadChunk/ReadChunks, which do cache.
func (m *Manager) Get(cid uint64) (*Container, error) {
	m.mu.RLock()
	c, ok := m.sealed[cid]
	disk := m.onDisk[cid]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: container %d", ErrNotFound, cid)
	}
	m.readIOs.Add(1)
	if !disk || c.Data != nil {
		return c, nil
	}
	return m.load(cid)
}

// cacheGet returns a cached slice covering [off, end) of cid's payload,
// refreshing the covering region's LRU position.
func (m *Manager) cacheGet(cid uint64, off, end int) ([]byte, bool) {
	if m.cacheBudget <= 0 {
		return nil, false
	}
	m.rcMu.Lock()
	defer m.rcMu.Unlock()
	for _, el := range m.rcIx[cid] {
		r := el.Value.(*region)
		if r.off <= off && end <= r.end {
			m.rcLL.MoveToFront(el)
			return r.data[off-r.off : end-r.off], true
		}
	}
	return nil, false
}

// cacheAdmit retains data as the payload range [off, off+len(data)) of
// cid, evicting least-recently-used regions past the byte budget. The
// buffer must be freshly allocated and is owned by the cache (and by any
// aliases already handed out) from here on.
func (m *Manager) cacheAdmit(cid uint64, off int, data []byte) {
	n := int64(len(data))
	if m.cacheBudget <= 0 || n == 0 || n > m.cacheBudget {
		return
	}
	m.rcMu.Lock()
	defer m.rcMu.Unlock()
	for m.rcUsed+n > m.cacheBudget {
		back := m.rcLL.Back()
		if back == nil {
			break
		}
		m.evictLocked(back)
	}
	r := &region{cid: cid, off: off, end: off + len(data), data: data}
	m.rcIx[cid] = append(m.rcIx[cid], m.rcLL.PushFront(r))
	m.rcUsed += n
}

// evictLocked removes one region (rcMu held).
func (m *Manager) evictLocked(el *list.Element) {
	r := m.rcLL.Remove(el).(*region)
	m.rcUsed -= int64(len(r.data))
	m.rcEvicts.Add(1)
	els := m.rcIx[r.cid]
	for i, e := range els {
		if e == el {
			els[i] = els[len(els)-1]
			els = els[:len(els)-1]
			break
		}
	}
	if len(els) == 0 {
		delete(m.rcIx, r.cid)
	} else {
		m.rcIx[r.cid] = els
	}
}

// cacheDrop discards every cached region of cid (container retired).
func (m *Manager) cacheDrop(cid uint64) {
	m.rcMu.Lock()
	defer m.rcMu.Unlock()
	for _, el := range m.rcIx[cid] {
		r := m.rcLL.Remove(el).(*region)
		m.rcUsed -= int64(len(r.data))
	}
	delete(m.rcIx, cid)
}

// CacheStats reports the read-region cache counters. ReadBytes is what
// the misses read from spill files — the wanted bytes plus bridged gaps
// and read-ahead — so ReadBytes over the bytes a restore wrote is its
// read amplification.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	UsedBytes int64
	Budget    int64
	ReadBytes uint64
}

// ReadCacheStats snapshots the read-region cache counters.
func (m *Manager) ReadCacheStats() CacheStats {
	m.rcMu.Lock()
	used := m.rcUsed
	m.rcMu.Unlock()
	return CacheStats{
		Hits:      m.rcHits.Load(),
		Misses:    m.rcMisses.Load(),
		Evictions: m.rcEvicts.Load(),
		UsedBytes: used,
		Budget:    m.cacheBudget,
		ReadBytes: m.readBytes.Load(),
	}
}

// Metadata returns only the metadata section of a container. For sealed
// containers this counts as one read I/O (the prefetch path reads the
// metadata section from disk, §3.3); open containers are found via the
// CID index and served from RAM for free, since their metadata is still
// resident.
func (m *Manager) Metadata(cid uint64) ([]ChunkMeta, error) {
	m.mu.RLock()
	c, sealedOK := m.sealed[cid]
	var s *openStream
	if !sealedOK {
		s = m.openByCID[cid]
	}
	m.mu.RUnlock()
	if sealedOK {
		m.readIOs.Add(1)
		return copyMeta(c.Meta), nil
	}
	if s != nil {
		s.mu.Lock()
		if s.c != nil && s.c.ID == cid {
			out := copyMeta(s.c.Meta)
			s.mu.Unlock()
			return out, nil
		}
		s.mu.Unlock()
		// Sealed between our index lookup and taking the stream lock.
		m.mu.RLock()
		c, sealedOK = m.sealed[cid]
		m.mu.RUnlock()
		if sealedOK {
			m.readIOs.Add(1)
			return copyMeta(c.Meta), nil
		}
	}
	return nil, fmt.Errorf("%w: container %d", ErrNotFound, cid)
}

// FingerprintsFrom returns the fingerprints of a container's metadata
// section from position from on — the prefetch path's view, charged like
// Metadata when it returns any. A refresh of a cached copy asks only for
// what was appended since, instead of copying the whole section again.
func (m *Manager) FingerprintsFrom(cid uint64, from int) ([]fingerprint.Fingerprint, error) {
	fps := func(meta []ChunkMeta) []fingerprint.Fingerprint {
		if from >= len(meta) {
			return nil
		}
		out := make([]fingerprint.Fingerprint, len(meta)-from)
		for i := range out {
			out[i] = meta[from+i].FP
		}
		return out
	}
	m.mu.RLock()
	c, sealedOK := m.sealed[cid]
	s := m.openByCID[cid]
	m.mu.RUnlock()
	if !sealedOK && s != nil {
		s.mu.Lock()
		if s.c != nil && s.c.ID == cid {
			out := fps(s.c.Meta)
			s.mu.Unlock()
			return out, nil
		}
		s.mu.Unlock()
		// Sealed between our index lookup and taking the stream lock.
		m.mu.RLock()
		c, sealedOK = m.sealed[cid]
		m.mu.RUnlock()
	}
	if !sealedOK {
		return nil, fmt.Errorf("%w: container %d", ErrNotFound, cid)
	}
	out := fps(c.Meta)
	if len(out) > 0 {
		m.readIOs.Add(1)
	}
	return out, nil
}

func copyMeta(meta []ChunkMeta) []ChunkMeta {
	out := make([]ChunkMeta, len(meta))
	copy(out, meta)
	return out
}

// readable resolves cid for a payload read, reporting whether its payload
// lives on disk. A container still open is read too, as Metadata reads
// it: under its stream lock, as a container whose payload is what has
// been appended so far — an alias of the open container's memory, which
// stays valid after the seal, since an open container's payload is
// allocated at capacity and never reallocated, and appends only write
// past what was read.
func (m *Manager) readable(cid uint64) (*Container, bool, error) {
	m.mu.RLock()
	c, ok := m.sealed[cid]
	disk := m.onDisk[cid]
	s := m.openByCID[cid]
	m.mu.RUnlock()
	if !ok && s != nil {
		s.mu.Lock()
		if s.c != nil && s.c.ID == cid {
			open := &Container{ID: cid, Data: s.c.Data, bytes: s.c.bytes}
			s.mu.Unlock()
			return open, false, nil
		}
		s.mu.Unlock()
		// Sealed between the index lookup and taking the stream lock.
		m.mu.RLock()
		c, ok = m.sealed[cid]
		disk = m.onDisk[cid]
		m.mu.RUnlock()
	}
	if !ok {
		return nil, false, fmt.Errorf("%w: container %d", ErrNotFound, cid)
	}
	return c, disk, nil
}

// dataStart returns the file offset of c's payload section in its SDC1
// spill file (fixed header plus the metadata table, which is always
// resident, so spilled chunk ranges can be read with one positioned read
// and no decode).
func dataStart(c *Container) int64 { return int64(20 + len(c.Meta)*28) }

// rangeReader reads payload ranges of one spilled container, opening
// its file on the first read and keeping it open for the rest of a
// batch. Range reads skip the whole-file CRC check — integrity-critical
// paths (recovery, compaction) still go through Get/load, which verify.
type rangeReader struct {
	m *Manager
	c *Container
	f *os.File
}

// read reads [off, end) of the payload with one positioned read.
func (r *rangeReader) read(off, end int) ([]byte, error) {
	if r.f == nil {
		f, err := os.Open(r.m.path(r.c.ID))
		if err != nil {
			return nil, fmt.Errorf("container: read %d: %w", r.c.ID, err)
		}
		r.f = f
	}
	buf := make([]byte, end-off)
	if _, err := r.f.ReadAt(buf, dataStart(r.c)+int64(off)); err != nil {
		return nil, fmt.Errorf("container: read %d [%d:%d): %w", r.c.ID, off, end, err)
	}
	r.m.diskLoads.Add(1)
	r.m.readBytes.Add(uint64(end - off))
	return buf, nil
}

func (r *rangeReader) close() {
	if r.f != nil {
		r.f.Close()
	}
}

// ReadChunk fetches one chunk payload by location, from a sealed
// container or an open one. Only valid when payloads are retained (in
// memory or on disk). The returned slice aliases manager-owned memory
// (the resident payload, an open container's, or a cached region) and
// must not be modified; callers that need ownership copy it.
func (m *Manager) ReadChunk(loc Loc) ([]byte, error) {
	c, disk, err := m.readable(loc.CID)
	if err != nil {
		return nil, err
	}
	m.readIOs.Add(1)
	off, end := int(loc.Offset), int(loc.Offset)+int(loc.Length)
	if !disk || c.Data != nil {
		if c.Data == nil {
			return nil, fmt.Errorf("container %d: payloads not retained", loc.CID)
		}
		if end > len(c.Data) {
			return nil, fmt.Errorf("%w: chunk at %d+%d in container %d (%d bytes)",
				ErrNotFound, loc.Offset, loc.Length, loc.CID, len(c.Data))
		}
		return c.Data[off:end], nil
	}
	if end > c.bytes {
		return nil, fmt.Errorf("%w: chunk at %d+%d in container %d (%d bytes)",
			ErrNotFound, loc.Offset, loc.Length, loc.CID, c.bytes)
	}
	if b, ok := m.cacheGet(loc.CID, off, end); ok {
		m.rcHits.Add(1)
		return b, nil
	}
	m.rcMisses.Add(1)
	// Miss: read ahead past the chunk so the neighbouring region of this
	// container is resident for the next recipe entries.
	aEnd := end
	if m.cacheBudget > 0 {
		if aEnd = off + readAheadBytes; aEnd < end {
			aEnd = end
		}
		if aEnd > c.bytes {
			aEnd = c.bytes
		}
	}
	rr := rangeReader{m: m, c: c}
	defer rr.close()
	data, err := rr.read(off, aEnd)
	if err != nil {
		return nil, err
	}
	m.cacheAdmit(loc.CID, off, data)
	return data[:end-off], nil
}

// ReadChunks fetches a batch of chunk payloads from one container, in
// the given order. Locations must be sorted by offset; adjacent wants
// separated by at most readGapMax are coalesced into one run, served by
// the region cache or by one positioned read of the container file,
// which the batch opens once. An open container is read as ReadChunk
// reads it. Returned slices alias manager-owned memory exactly like
// ReadChunk's.
func (m *Manager) ReadChunks(cid uint64, locs []Loc) ([][]byte, error) {
	if len(locs) == 0 {
		return nil, nil
	}
	c, disk, err := m.readable(cid)
	if err != nil {
		return nil, err
	}
	m.readIOs.Add(1)
	out := make([][]byte, len(locs))
	if !disk || c.Data != nil {
		if c.Data == nil {
			return nil, fmt.Errorf("container %d: payloads not retained", cid)
		}
		for i, loc := range locs {
			end := int(loc.Offset) + int(loc.Length)
			if end > len(c.Data) {
				return nil, fmt.Errorf("%w: chunk at %d+%d in container %d (%d bytes)",
					ErrNotFound, loc.Offset, loc.Length, cid, len(c.Data))
			}
			out[i] = c.Data[loc.Offset:end]
		}
		return out, nil
	}
	for i, loc := range locs {
		if i > 0 && loc.Offset < locs[i-1].Offset {
			return nil, fmt.Errorf("container %d: batch locations not sorted", cid)
		}
		if int(loc.Offset)+int(loc.Length) > c.bytes {
			return nil, fmt.Errorf("%w: chunk at %d+%d in container %d (%d bytes)",
				ErrNotFound, loc.Offset, loc.Length, cid, c.bytes)
		}
	}
	// Coalesce the sorted wants into sequential runs and serve each run
	// through the region cache with one disk read on miss.
	rr := rangeReader{m: m, c: c}
	defer rr.close()
	for s := 0; s < len(locs); {
		t := s
		runEnd := int(locs[s].Offset) + int(locs[s].Length)
		for t+1 < len(locs) && int(locs[t+1].Offset)-runEnd <= readGapMax {
			t++
			if e := int(locs[t].Offset) + int(locs[t].Length); e > runEnd {
				runEnd = e
			}
		}
		runOff := int(locs[s].Offset)
		data, ok := m.cacheGet(cid, runOff, runEnd)
		if ok {
			m.rcHits.Add(1)
		} else {
			m.rcMisses.Add(1)
			if data, err = rr.read(runOff, runEnd); err != nil {
				return nil, err
			}
			m.cacheAdmit(cid, runOff, data)
		}
		for k := s; k <= t; k++ {
			off := int(locs[k].Offset) - runOff
			out[k] = data[off : off+int(locs[k].Length)]
		}
		s = t + 1
	}
	return out, nil
}

// AdoptSealed registers a recovered container as sealed, crediting its
// bytes and advancing the ID allocator past it. Used by storage-engine
// recovery; the container must be fully decoded (metadata resident).
func (m *Manager) AdoptSealed(c *Container, spilled bool) {
	m.mu.Lock()
	m.sealed[c.ID] = c
	if spilled {
		m.onDisk[c.ID] = true
	}
	m.mu.Unlock()
	m.bytes.Add(int64(c.bytes))
	m.AdvanceID(c.ID)
}

// AdvanceID moves the container ID allocator past cid. Recovery calls it
// for every journaled container — including retired ones whose files are
// gone — so a new session can never re-allocate an ID that already
// appears in the manifest.
func (m *Manager) AdvanceID(cid uint64) {
	for {
		cur := m.nextID.Load()
		if cid <= cur || m.nextID.CompareAndSwap(cur, cid) {
			break
		}
	}
}

// Retire removes a sealed container from the manager and deletes its
// spill file: the compaction endgame, after every surviving chunk has
// been copied out and the retire record is durable. Retiring an unknown
// or open container is an error. The caller is responsible for having
// journaled the retirement first — Retire itself is not atomic against a
// crash, which is why recovery replays retire records before adopting
// seals.
func (m *Manager) Retire(cid uint64) error {
	m.mu.Lock()
	c, ok := m.sealed[cid]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: retire container %d", ErrNotFound, cid)
	}
	disk := m.onDisk[cid]
	delete(m.sealed, cid)
	delete(m.onDisk, cid)
	m.mu.Unlock()

	m.cacheDrop(cid)

	m.bytes.Add(-int64(c.bytes))
	if disk {
		if err := os.Remove(m.path(cid)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("container: retire %d: %w", cid, err)
		}
	}
	return nil
}

// sealedInfo describes one sealed container for GC scans.
type sealedInfo struct {
	CID    uint64
	Bytes  int64
	Chunks int
	OnDisk bool
}

// SealedContainers snapshots the sealed-container directory (CID, payload
// size, chunk count, disk residency), sorted by CID. The compactor uses it
// to pick low-live-ratio rewrite candidates.
func (m *Manager) SealedContainers() []sealedInfo {
	m.mu.RLock()
	out := make([]sealedInfo, 0, len(m.sealed))
	for cid, c := range m.sealed {
		out = append(out, sealedInfo{CID: cid, Bytes: int64(c.bytes), Chunks: len(c.Meta), OnDisk: m.onDisk[cid]})
	}
	m.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].CID < out[j].CID })
	return out
}

// Stats reports cumulative I/O counters and stored bytes.
func (m *Manager) Stats() (readIOs, writeIOs uint64, storedBytes int64) {
	return m.readIOs.Load(), m.writeIOs.Load(), m.bytes.Load()
}

// DiskLoads reports how many disk reads of container payloads actually
// happened (readIOs counts container-granularity accesses; this counts
// the subset that went to disk — full loads plus region-cache misses).
func (m *Manager) DiskLoads() uint64 { return m.diskLoads.Load() }

// IsSealed reports whether cid refers to a sealed container. An unknown
// cid (including open containers) reports false.
func (m *Manager) IsSealed(cid uint64) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.sealed[cid]
	return ok
}

// NumSealed returns the number of sealed containers.
func (m *Manager) NumSealed() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.sealed)
}

// StoredBytes returns the total physical payload bytes appended.
func (m *Manager) StoredBytes() int64 { return m.bytes.Load() }

// FileName returns the base name of the spill file for cid.
func FileName(cid uint64) string {
	return fmt.Sprintf("container-%08d.bin", cid)
}

func (m *Manager) path(cid uint64) string {
	return filepath.Join(m.dir, FileName(cid))
}

// spill serializes a sealed container to disk, returning the file's CRC.
// The file is fsynced before return: the manifest seal record that
// commits this container must never name a file whose pages could still
// be lost to a crash.
func (m *Manager) spill(c *Container) (uint32, error) {
	buf := Encode(c)
	f, err := os.OpenFile(m.path(c.ID), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("container: spill %d: %w", c.ID, err)
	}
	if _, err := f.Write(buf); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return 0, fmt.Errorf("container: spill %d: %w", c.ID, err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("container: spill %d: %w", c.ID, err)
	}
	return binary.BigEndian.Uint32(buf[len(buf)-4:]), nil
}

// load reads a spilled container back from disk.
func (m *Manager) load(cid uint64) (*Container, error) {
	raw, err := os.ReadFile(m.path(cid))
	if err != nil {
		return nil, fmt.Errorf("container: load %d: %w", cid, err)
	}
	m.diskLoads.Add(1)
	c, err := decodeContainer(raw)
	if err != nil {
		return nil, fmt.Errorf("container: load %d: %w", cid, err)
	}
	return c, nil
}

// Encode serializes a container in the SDC1 on-disk format:
//
//	header:  magic "SDC1" | id u64 | nmeta u32 | ndata u32
//	meta:    nmeta × (fp[20] | offset u32 | length u32)
//	data:    ndata bytes
//	footer:  crc32 u32 (IEEE, over header+meta+data)
func Encode(c *Container) []byte {
	buf := make([]byte, 0, 24+len(c.Meta)*28+len(c.Data))
	buf = append(buf, 'S', 'D', 'C', '1')
	buf = binary.BigEndian.AppendUint64(buf, c.ID)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(c.Meta)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(c.Data)))
	for _, cm := range c.Meta {
		buf = append(buf, cm.FP[:]...)
		buf = binary.BigEndian.AppendUint32(buf, cm.Offset)
		buf = binary.BigEndian.AppendUint32(buf, cm.Length)
	}
	buf = append(buf, c.Data...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// decodeContainer parses a serialized container, verifying its CRC32 footer.
func decodeContainer(raw []byte) (*Container, error) { return decode(raw, true) }

// DecodeMeta parses and CRC-verifies a serialized container without
// retaining its payload — the recovery path's decode, where metadata is
// rebuilt into the indexes and the payload stays on disk.
func DecodeMeta(raw []byte) (*Container, error) { return decode(raw, false) }

func decode(raw []byte, keepPayload bool) (*Container, error) {
	if len(raw) < 4 || string(raw[:4]) != "SDC1" {
		return nil, errors.New("container: bad magic")
	}
	if len(raw) < 24 {
		return nil, fmt.Errorf("%w: truncated header (%d bytes)", ErrCorrupt, len(raw))
	}
	id := binary.BigEndian.Uint64(raw[4:])
	nmeta := int(binary.BigEndian.Uint32(raw[12:]))
	ndata := int(binary.BigEndian.Uint32(raw[16:]))
	want := 20 + nmeta*28 + ndata + 4
	if len(raw) != want {
		return nil, fmt.Errorf("%w: size %d, want %d", ErrCorrupt, len(raw), want)
	}
	sum := crc32.ChecksumIEEE(raw[:len(raw)-4])
	if got := binary.BigEndian.Uint32(raw[len(raw)-4:]); got != sum {
		return nil, fmt.Errorf("%w: CRC32 %08x on disk, computed %08x", ErrCorrupt, got, sum)
	}
	c := &Container{ID: id, Meta: make([]ChunkMeta, nmeta)}
	p := 20
	metaBytes := 0
	for i := 0; i < nmeta; i++ {
		var cm ChunkMeta
		copy(cm.FP[:], raw[p:p+20])
		cm.Offset = binary.BigEndian.Uint32(raw[p+20:])
		cm.Length = binary.BigEndian.Uint32(raw[p+24:])
		c.Meta[i] = cm
		metaBytes += int(cm.Length)
		p += 28
	}
	if ndata > 0 {
		if keepPayload {
			c.Data = append([]byte(nil), raw[p:p+ndata]...)
		}
		c.bytes = ndata
	} else {
		// Metadata-only containers carry no payload; the logical size is
		// the sum of the chunk lengths.
		c.bytes = metaBytes
	}
	return c, nil
}
