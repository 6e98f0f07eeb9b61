// Package store implements a Σ-Dedupe deduplication server node, the
// per-node storage engine: the similarity index, chunk-fingerprint cache,
// on-disk chunk index and container manager composed behind a single
// transactional "lookup-or-append super-chunk" API (paper §3.3, Fig. 3).
//
// Concurrency. The engine replaces the historical node-wide store mutex
// with fingerprint-sharded lock striping: the non-atomic
// lookup-then-append sequence for one chunk runs under the shard lock of
// that chunk's fingerprint, so two streams racing to store the same new
// chunk serialize on its shard (the loser finds the winner's chunk-index
// insert and takes the duplicate verdict), while chunks with different
// fingerprints — the overwhelming majority — dedupe fully in parallel.
// Each stream additionally owns its open container (package container),
// so appends do not contend either.
//
// Durability. With a Dir configured the engine is a restartable store:
// sealed containers are spilled in the CRC32-protected SDC1 format and
// journaled in an append-only manifest together with the representative-
// fingerprint entries of the similarity index. New with Config.Recover
// replays the manifest, reading each container file once (CRC-verified)
// and retaining only its metadata, to rebuild the chunk index, similarity
// index and container directory — a full stop/restart/restore lifecycle.
// Chunks in containers not yet sealed at shutdown are not durable; Flush
// (or Close) seals everything.
package store

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sigmadedupe/internal/container"
	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/sderr"
	"sigmadedupe/internal/simindex"
)

// stripesPerProc sizes the engine's two lock-stripe sets — the
// similarity index's and the lookup-or-append path's shards — as a
// multiple of GOMAXPROCS. Stripes spread concurrent lock acquisitions,
// and GOMAXPROCS bounds how many run at once; more stripes than that
// only add cold lock lines to every bid and every engine's set-up
// (ROADMAP item 12 has the sweep behind the multiple).
const stripesPerProc = 4

// lockStripes returns the stripe count of one engine: stripesPerProc ×
// GOMAXPROCS, rounded up to a power of two so a fingerprint masks onto
// its stripe.
func lockStripes() int {
	return 1 << bits.Len(uint(stripesPerProc*runtime.GOMAXPROCS(0)-1))
}

// defaultCompactThreshold is the live-ratio floor below which the
// compactor rewrites a sealed container: at 0.5, a container is rewritten
// once more than half of its payload bytes are dead.
const defaultCompactThreshold = 0.5

// errChunkVanished reports an eager store (StoreSuperChunk, StoreMissing,
// Dedup with eager set) of a brand-new chunk without its payload on a
// payload-keeping engine: a caller's QuerySuperChunk verdict raced a
// deletion+compaction that collected the chunk in between. The store
// fails cleanly instead of storing an unrestorable chunk. Dedup's
// fingerprint-first pass cannot lose this race — its verdict is the
// reference. Wraps sderr.ErrChunkVanished.
var errChunkVanished = fmt.Errorf("store: %w", sderr.ErrChunkVanished)

// Config parameterizes a storage engine.
type Config struct {
	// ID is the node's cluster identity; error messages name it.
	ID int
	// HandprintSize is k, the representative fingerprints per super-chunk.
	HandprintSize int
	// CacheContainers is the chunk-fingerprint cache capacity in
	// containers.
	CacheContainers int
	// ContainerCapacity is the container payload capacity in bytes.
	ContainerCapacity int
	// DisableChunkIndex turns off the traditional chunk index, leaving
	// only similarity-index + cache dedup (approximate; Fig. 5b mode).
	DisableChunkIndex bool
	// KeepPayloads retains chunk payloads for restore support.
	KeepPayloads bool
	// Dir, when set, makes the engine durable: sealed containers are
	// spilled there and a manifest journals recovery state.
	Dir string
	// ReadCacheBytes is the byte budget of the read-region cache that
	// serves restore reads of spilled containers (replaces the old
	// whole-container LRU). Zero selects the default.
	ReadCacheBytes int64
	// CompactEvery, when positive, runs a background compactor that
	// periodically rewrites sealed containers whose live-chunk ratio has
	// dropped below CompactThreshold. Zero leaves compaction manual
	// (Compact).
	CompactEvery time.Duration
	// CompactThreshold is the live-ratio floor below which a sealed
	// container is rewritten (default defaultCompactThreshold).
	CompactThreshold float64
	// Recover re-opens the engine from Dir, replaying the manifest to
	// restore its pre-shutdown state. Requires Dir.
	Recover bool
}

func (c Config) withDefaults() Config {
	if c.HandprintSize <= 0 {
		c.HandprintSize = core.DefaultHandprintSize
	}
	if c.CacheContainers <= 0 {
		c.CacheContainers = 256
	}
	if c.ContainerCapacity <= 0 {
		c.ContainerCapacity = container.DefaultCapacity
	}
	if c.ReadCacheBytes <= 0 {
		c.ReadCacheBytes = container.DefaultReadCacheBytes
	}
	if c.CompactThreshold <= 0 || c.CompactThreshold >= 1 {
		c.CompactThreshold = defaultCompactThreshold
	}
	return c
}

// engineStats is a snapshot of the engine's deduplication counters.
type engineStats struct {
	LogicalBytes  int64  // bytes presented for backup
	PhysicalBytes int64  // unique bytes actually stored
	LogicalChunks int64  // chunks presented
	UniqueChunks  int64  // chunks stored
	SuperChunks   int64  // super-chunks processed
	CacheHits     uint64 // duplicate verdicts served from the fp cache
	DiskIndexHits uint64 // duplicate verdicts served from the chunk index
	Prefetches    uint64 // container metadata prefetches
}

// DedupRatio returns logical/physical (∞-free: returns 0 when nothing is
// stored).
func (s engineStats) DedupRatio() float64 {
	if s.PhysicalBytes == 0 {
		return 0
	}
	return float64(s.LogicalBytes) / float64(s.PhysicalBytes)
}

// result describes the outcome of storing one super-chunk.
type result struct {
	UniqueChunks int
	DupChunks    int
	UniqueBytes  int64
	DupBytes     int64
}

// shard is one lock stripe of the store path, padded to its own cache
// line to limit false sharing between adjacent stripes. Besides the
// lock it owns the chunk refcounts of its fingerprint stripe: every
// reference a stored super-chunk takes on a chunk and every recipe-driven
// decref of that chunk mutate the count under the same lock that
// serializes the chunk's lookup-or-append, so liveness decisions and
// store verdicts can never interleave.
type shard struct {
	mu   sync.Mutex
	refs map[fingerprint.Fingerprint]int64
	// touch records the engine-wide sequence number of the last time a
	// stored super-chunk took a reference on each chunk. Compaction sorts
	// a container's survivors by it (capping): chunks the most recent
	// backup generations touched last are co-located in recipe order, so
	// an aged restore reads them back sequentially.
	touch map[fingerprint.Fingerprint]uint64
	_     [48]byte
}

// Engine is a per-node storage engine. All methods are safe for
// concurrent use by multiple backup streams.
type Engine struct {
	cfg        Config
	sim        *simindex.Index
	cache      *fpCache
	cidx       *chunkIndex // nil when disabled
	containers *container.Manager
	man        *manifest // nil when not durable

	shards    []shard
	shardMask uint64

	// touchSeq is the engine-wide recency clock behind shard.touch.
	touchSeq atomic.Uint64

	superChunks   atomic.Int64
	logicalBytes  atomic.Int64
	physicalBytes atomic.Int64
	logicalChunks atomic.Int64
	uniqueChunks  atomic.Int64
	cacheHits     atomic.Uint64
	diskIndexHits atomic.Uint64
	prefetches    atomic.Uint64

	// GC state. dead holds per-container dead payload bytes (chunk copies
	// no backup references any more); gcMu guards it and is always
	// acquired after a shard lock, never before. decrefMu serializes
	// DeleteBackup-driven decrefs so validation and journal append cannot
	// interleave between two deletions. compactMu serializes compaction
	// runs (background ticker vs manual Compact).
	gcMu     sync.Mutex
	dead     map[uint64]int64
	decrefMu sync.Mutex

	compactMu         sync.Mutex
	retiredContainers atomic.Int64
	reclaimedBytes    atomic.Int64
	copiedBytes       atomic.Int64
	compactRuns       atomic.Int64
	// compactErrors / lastCompactErr record background compaction
	// failures, which would otherwise vanish silently: the ticker loop
	// has no caller to return to. Guarded by compactErrMu.
	compactErrMu   sync.Mutex
	compactErrors  int64
	lastCompactErr string
	// compactFault, when set (tests), is invoked at each named stage of a
	// container's compaction; an error aborts mid-flight, emulating a
	// crash at that point.
	compactFault  func(stage CompactStage, cid uint64) error
	compactStop   chan struct{}
	compactCancel context.CancelFunc
	compactWG     sync.WaitGroup

	// readRaceHook, when set (tests), runs after each chunk-index lookup
	// on the restore read path — the point where a concurrent compaction
	// can retire the looked-up container before the read reaches it. It
	// makes the lookup→read race window deterministic.
	readRaceHook func()

	// bins holds Extreme Binning per-representative chunk-fingerprint
	// sets, used only when the node serves the EB baseline.
	binsMu sync.Mutex
	bins   map[fingerprint.Fingerprint]map[fingerprint.Fingerprint]struct{}
}

// newEngine builds the index structures (no container manager yet).
func newEngine(cfg Config) (*Engine, error) {
	stripes := lockStripes()
	sim, err := simindex.New(stripes)
	if err != nil {
		return nil, fmt.Errorf("store node %d: %w", cfg.ID, err)
	}
	cache, err := newFPCache(cfg.CacheContainers)
	if err != nil {
		return nil, fmt.Errorf("store node %d: %w", cfg.ID, err)
	}
	var cidx *chunkIndex
	if !cfg.DisableChunkIndex {
		cidx = newChunkIndex()
	}
	e := &Engine{
		cfg:       cfg,
		sim:       sim,
		cache:     cache,
		cidx:      cidx,
		shards:    make([]shard, stripes),
		shardMask: uint64(stripes - 1),
		dead:      make(map[uint64]int64),
	}
	for i := range e.shards {
		e.shards[i].refs = make(map[fingerprint.Fingerprint]int64)
		e.shards[i].touch = make(map[fingerprint.Fingerprint]uint64)
	}
	return e, nil
}

// gcEnabled reports whether chunk refcounting (and with it deletion and
// compaction) is active. GC anchors liveness to the full chunk index;
// the approximate similarity-only mode has no authoritative record of
// what is stored, so deletion is unsupported there.
func (e *Engine) gcEnabled() bool { return e.cidx != nil }

func (e *Engine) managerOpts() []container.Option {
	opts := []container.Option{
		container.WithCapacity(e.cfg.ContainerCapacity),
		container.WithReadCache(e.cfg.ReadCacheBytes),
	}
	if e.cfg.KeepPayloads {
		opts = append(opts, container.WithPayloads())
	}
	if e.cfg.Dir != "" {
		opts = append(opts, container.WithDir(e.cfg.Dir))
		opts = append(opts, container.WithSealHook(func(rec container.SealRecord) error {
			return e.man.appendSeal(rec)
		}))
	}
	return opts
}

// New creates a storage engine. With cfg.Dir set the engine is durable
// from the first seal.
//
// With cfg.Recover set, New re-opens the engine from cfg.Dir by replaying
// its manifest: sealed containers are re-read (metadata and CRC verified)
// to rebuild the chunk index and container directory, and journaled
// representative-fingerprint entries rebuild the similarity index. A
// container failing its CRC32 check aborts the open with an error
// wrapping container.ErrCorrupt. An empty or absent manifest yields a
// fresh engine.
//
// Without Recover, a Dir that already holds durable state is refused:
// silently starting fresh would re-allocate container IDs from 1 and
// overwrite the previous session's files — recover it, or remove the
// directory to discard it.
func New(cfg Config) (*Engine, error) {
	switch {
	case cfg.Recover && cfg.Dir == "":
		return nil, fmt.Errorf("store node %d: Recover requires a durable Dir", cfg.ID)
	case !cfg.Recover && cfg.Dir != "":
		if fi, err := os.Stat(filepath.Join(cfg.Dir, ManifestName)); err == nil && fi.Size() > 0 {
			return nil, fmt.Errorf(
				"store node %d: %s already holds durable state; open with Recover or remove the directory",
				cfg.ID, cfg.Dir)
		}
	}
	cfg = cfg.withDefaults()
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	var recs []record
	if cfg.Dir != "" {
		if e.man, recs, err = openManifest(cfg.Dir); err != nil {
			return nil, fmt.Errorf("store node %d: %w", cfg.ID, err)
		}
	}
	if e.containers, err = container.NewManager(e.managerOpts()...); err != nil {
		return nil, fmt.Errorf("store node %d: %w", cfg.ID, err)
	}
	// The background compactor starts only after replay.
	if err := e.replay(recs); err != nil {
		e.man.close()
		return nil, fmt.Errorf("store node %d: %w", cfg.ID, err)
	}
	e.startCompactor()
	return e, nil
}

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// Manager exposes the container manager (stats inspection and tests).
func (e *Engine) Manager() *container.Manager { return e.containers }

// NumSealedContainers returns the engine's sealed-container count.
func (e *Engine) NumSealedContainers() int { return e.containers.NumSealed() }

// Engine returns e itself. bench/ compiles against it through the
// internal/node alias; ROADMAP 17(b) deletes it.
func (e *Engine) Engine() *Engine { return e }

func (e *Engine) shardFor(fp fingerprint.Fingerprint) *shard {
	return &e.shards[fp.Uint64()&e.shardMask]
}

// prefetch pulls the fingerprint sets of the named containers into the
// chunk-fingerprint cache.
func (e *Engine) prefetch(cids []uint64) {
	for _, cid := range cids {
		// A refresh copies only what was appended since the cached copy:
		// an open container keeps growing (read from RAM, free), and one
		// cached while open may have sealed with more. A complete copy of
		// a sealed container stays valid — it is immutable.
		have, cached := e.cache.cached(cid)
		sealed := e.containers.IsSealed(cid)
		fps, err := e.containers.FingerprintsFrom(cid, have)
		if err != nil {
			continue // container may have been lost; skip
		}
		if cached && sealed && len(fps) == 0 {
			continue
		}
		if !cached {
			e.cache.addContainer(cid, fps)
		} else if !e.cache.extend(cid, have, fps) {
			// Evicted since Cached looked: fetch the whole set again.
			if fps, err = e.containers.FingerprintsFrom(cid, 0); err != nil {
				continue
			}
			e.cache.addContainer(cid, fps)
		}
		e.prefetches.Add(1)
	}
}

// maxHandprint bounds the handprint a caller may hand Dedup and
// StoreMissing — far above any k the system configures (the sensitivity
// study stops at 32), small enough that a hostile request cannot make the
// node index an unbounded list.
const maxHandprint = 256

// validHandprint checks a caller-supplied handprint: at most maxHandprint
// fingerprints in strictly ascending order, which the pass's prefix
// filter and binary search rely on. Wraps sderr.ErrMalformed.
func validHandprint(hp core.Handprint) error {
	if len(hp) > maxHandprint {
		return fmt.Errorf("store: handprint of %d fingerprints exceeds %d: %w", len(hp), maxHandprint, sderr.ErrMalformed)
	}
	for i := 1; i < len(hp); i++ {
		if !hp[i-1].Less(hp[i]) {
			return fmt.Errorf("store: handprint entry %d is not above entry %d: %w", i, i-1, sderr.ErrMalformed)
		}
	}
	return nil
}

// passMode is what a store pass does with a chunk the engine lacks and
// that carries no payload, and whether the pass presents the super-chunk.
type passMode int

const (
	// passFirst is the fingerprint-first pass: such a chunk is reported
	// missing and left untouched, for a passMissing call to deliver.
	passFirst passMode = iota
	// passEager: the payloads travel with the call, so such a chunk is
	// stored without one on a metadata-only engine and fails with
	// errChunkVanished on a payload-keeping one.
	passEager
	// passMissing delivers what a passFirst pass reported missing, under
	// the eager rule; that pass already presented the super-chunk.
	passMissing
)

// verdict is the outcome of one chunk's lookup-or-append.
type verdict uint8

const (
	held     verdict = iota // the engine holds the chunk; a reference was taken
	appended                // stored from this call's payload; a reference was taken
	missing                 // lacking and payload-less in a passFirst pass; untouched
)

// Dedup deduplicates one routed super-chunk in a single pass: the
// similarity-index prefetch, then every chunk's verdict and reference
// under its fingerprint shard lock — a chunk the engine holds gains a
// reference, a chunk with a payload it lacks is appended. hp is the
// handprint the super-chunk was routed by, indexed as is (nil: computed
// here with the configured k). With eager false a payload-less chunk the
// engine lacks is reported missing instead — the fingerprint-first half
// of the wire protocol — and StoreMissing delivers it.
//
// fresh[i] reports that chunk i was not held before: appended now, or
// missing. On error fresh[i] reports instead that chunk i holds no
// reference from this call, so an abort releases exactly the others.
func (e *Engine) Dedup(stream string, sc *core.SuperChunk, hp core.Handprint, eager bool) (fresh []bool, err error) {
	mode := passFirst
	if eager {
		mode = passEager
	}
	_, fresh, err = e.pass(stream, sc, hp, mode)
	return fresh, err
}

// StoreMissing delivers, with their payloads, the chunks a fingerprint-
// first Dedup of the same super-chunk reported missing — each is appended,
// or deduplicated if another stream stored it in between. hp is the
// handprint that Dedup was given. The super-chunk is not presented again:
// Dedup counted it. fresh follows Dedup's contract.
func (e *Engine) StoreMissing(stream string, sc *core.SuperChunk, hp core.Handprint) (fresh []bool, err error) {
	_, fresh, err = e.pass(stream, sc, hp, passMissing)
	return fresh, err
}

// StoreSuperChunk deduplicates and stores one routed super-chunk arriving
// on the given stream with every payload it needs: Dedup with the eager
// rule and the handprint computed here, reporting sizes — for the
// benchmark's traced replay (with QuerySuperChunk) and tests.
func (e *Engine) StoreSuperChunk(stream string, sc *core.SuperChunk) (result, error) {
	res, _, err := e.pass(stream, sc, nil, passEager)
	return res, err
}

// pass is the store path behind Dedup, StoreMissing and StoreSuperChunk:
// similarity-index lookup and container prefetch, then per-chunk
// lookup-or-append, then the handprint's index entries and the journal.
// Whatever belongs to the whole super-chunk runs once: the handprint is
// taken as given, the recency ticks are reserved as one block, and the
// intra-super-chunk map exists only once something was appended.
func (e *Engine) pass(stream string, sc *core.SuperChunk, hp core.Handprint, mode passMode) (res result, fresh []bool, err error) {
	// verdicts[:done] are the chunks decided; fresh is read off them.
	verdicts := make([]verdict, len(sc.Chunks))
	done := 0
	freshOf := func() []bool {
		fresh := make([]bool, len(sc.Chunks))
		for i := range fresh {
			if err != nil {
				fresh[i] = i >= done || verdicts[i] == missing
			} else {
				fresh[i] = verdicts[i] != held
			}
		}
		return fresh
	}
	if hp == nil {
		hp = sc.Handprint(e.cfg.HandprintSize)
	} else if err = validHandprint(hp); err != nil {
		err = fmt.Errorf("store node %d: %w", e.cfg.ID, err)
		return res, freshOf(), err
	}

	// Step 1–2: similarity index lookup and container prefetch.
	e.prefetch(e.sim.LookupContainers(hp))

	// Step 3–4: chunk-level dedup against cache, then disk index.
	// Chunks appended earlier in this same pass (intra-super-chunk
	// duplicates) must be detected even in similarity-only mode.
	var local map[fingerprint.Fingerprint]uint64
	// rfpCID[j] is the container holding hp[j] once a chunk found it
	// (container IDs start at 1).
	rfpCID := make([]uint64, len(hp))
	// No fingerprint sorting after hp's last entry can be one of its
	// entries: the prefix test rejects nearly every chunk without a search.
	var hpMax uint64
	if len(hp) > 0 {
		hpMax = hp[len(hp)-1].Uint64()
	}
	var tick uint64
	if e.gcEnabled() {
		n := uint64(len(sc.Chunks))
		tick = e.touchSeq.Add(n) - n
	}
	for i, ch := range sc.Chunks {
		v, cid, lerr := e.lookupOrAppend(stream, ch, local, tick+uint64(i)+1, mode)
		if lerr != nil {
			err = lerr
			break
		}
		verdicts[i] = v
		done++
		switch v {
		case held:
			res.DupChunks++
			res.DupBytes += int64(ch.Size)
		case appended:
			res.UniqueChunks++
			res.UniqueBytes += int64(ch.Size)
			if local == nil {
				local = make(map[fingerprint.Fingerprint]uint64, len(sc.Chunks)-i)
			}
			local[ch.FP] = cid
		case missing:
			continue
		}
		if ch.FP.Uint64() <= hpMax {
			if j := handprintIndex(hp, ch.FP); j >= 0 {
				rfpCID[j] = cid
			}
		}
	}

	// Journal the chunk references this pass took (each chunk occurrence
	// is one reference; intra-super-chunk duplicates count each time,
	// mirroring the recipe entries a deletion will decref) — on error too:
	// the caller's abort decrefs them, and replay must find what it drops.
	if e.man != nil && e.gcEnabled() {
		refs := make([]fingerprint.Fingerprint, 0, done)
		for i, ch := range sc.Chunks[:done] {
			if verdicts[i] != missing {
				refs = append(refs, ch.FP)
			}
		}
		if len(refs) > 0 {
			refFPs, refNs := core.AggregateRefs(refs)
			if jerr := e.man.bufferRefs(refFPs, refNs); jerr != nil && err == nil {
				err = fmt.Errorf("store node %d: %w", e.cfg.ID, jerr)
			}
		}
	}
	if err != nil {
		return res, freshOf(), err
	}

	// Index the handprint for future routing bids and prefetches, and
	// journal the entries so recovery can rebuild the similarity index.
	var fps []fingerprint.Fingerprint
	var cids []uint64
	for j, rfp := range hp {
		if cid := rfpCID[j]; cid != 0 {
			e.sim.Insert(rfp, cid)
			fps = append(fps, rfp)
			cids = append(cids, cid)
		}
	}
	if e.man != nil && len(fps) > 0 {
		if err = e.man.bufferRFPs(fps, cids); err != nil {
			err = fmt.Errorf("store node %d: %w", e.cfg.ID, err)
			return res, freshOf(), err
		}
	}

	e.superChunkDone(res, sc, mode)
	return res, freshOf(), nil
}

// handprintIndex is the position of fp in the sorted handprint hp, or -1.
func handprintIndex(hp core.Handprint, fp fingerprint.Fingerprint) int {
	j := sort.Search(len(hp), func(j int) bool { return !hp[j].Less(fp) })
	if j < len(hp) && hp[j] == fp {
		return j
	}
	return -1
}

// lookupOrAppend is the transactional core of the store path: decide
// whether fp is a duplicate and, when it is not, append it — atomically
// with respect to every other store of the same fingerprint, by holding
// that fingerprint's shard lock across the decision and the reference or
// the append. Verdict order: intra-super-chunk map, fingerprint cache,
// then on-disk chunk index (with container prefetch on hit, which is what
// preserves locality for the following chunks). local maps what this pass
// appended so far (nil before its first append); tick is the recency
// sequence number a reference taken here records.
func (e *Engine) lookupOrAppend(stream string, ch core.ChunkRef, local map[fingerprint.Fingerprint]uint64, tick uint64, mode passMode) (verdict, uint64, error) {
	gc := e.gcEnabled()
	sh := e.shardFor(ch.FP)
	if cid, ok := local[ch.FP]; ok {
		if gc {
			sh.mu.Lock()
			sh.refs[ch.FP]++
			sh.touch[ch.FP] = tick
			sh.mu.Unlock()
		}
		return held, cid, nil
	}
	sh.mu.Lock()
	v, cid, err := e.decideLocked(stream, ch, sh, tick, mode)
	sh.mu.Unlock()
	return v, cid, err
}

// decideLocked is lookupOrAppend past the intra-super-chunk map, under
// the shard lock sh.
func (e *Engine) decideLocked(stream string, ch core.ChunkRef, sh *shard, tick uint64, mode passMode) (verdict, uint64, error) {
	gc := e.gcEnabled()
	// A cache hit is only a trustworthy duplicate verdict while the chunk
	// is referenced: once its refcount reaches zero the compactor may
	// collect it at any moment, so the authoritative chunk index decides.
	if cid, ok := e.cache.lookup(ch.FP); ok && (!gc || sh.refs[ch.FP] > 0) {
		e.cacheHits.Add(1)
		if gc {
			sh.refs[ch.FP]++
			sh.touch[ch.FP] = tick
		}
		return held, cid, nil
	}
	if e.cidx != nil {
		if loc, ok := e.cidx.lookup(ch.FP); ok {
			e.diskIndexHits.Add(1)
			// DDFS-style: a disk-index hit prefetches the whole container
			// so the stream's following chunks hit the cache.
			e.prefetch([]uint64{loc.CID})
			if gc {
				if sh.refs[ch.FP] == 0 {
					// Resurrection: a dead chunk regains its first
					// reference; its container copy is live again. The
					// verdict and the reference share this lock, so the
					// compactor either saw the chunk dead and dropped its
					// index entry first, or sees it live from now on.
					e.gcMu.Lock()
					if e.dead[loc.CID] > 0 {
						e.dead[loc.CID] -= int64(loc.Length)
						if e.dead[loc.CID] <= 0 {
							delete(e.dead, loc.CID)
						}
					}
					e.gcMu.Unlock()
				}
				sh.refs[ch.FP]++
				sh.touch[ch.FP] = tick
			}
			return held, loc.CID, nil
		}
	}
	if ch.Data == nil {
		if mode == passFirst {
			return missing, 0, nil
		}
		if e.cfg.KeepPayloads {
			// A payload-keeping engine received a brand-new chunk without
			// its payload: a caller that checked for duplicates with
			// QuerySuperChunk raced a deletion+compaction that collected the
			// chunk in between. Failing the store keeps the backup honest;
			// storing a payload-less chunk would corrupt its restore.
			// (Trace-driven engines, which never carry payloads, are exempt
			// — they only ever measure dedup state.)
			return missing, 0, fmt.Errorf("store node %d: chunk %s: %w", e.cfg.ID, ch.FP.Short(), errChunkVanished)
		}
	}
	loc, err := e.containers.Append(stream, ch.FP, ch.Data, ch.Size)
	if err != nil {
		return missing, 0, fmt.Errorf("store node %d: store chunk: %w", e.cfg.ID, err)
	}
	if e.cidx != nil {
		e.cidx.insert(ch.FP, loc)
	}
	if gc {
		sh.refs[ch.FP]++
		sh.touch[ch.FP] = tick
	}
	return appended, loc.CID, nil
}

// superChunkDone counts a completed pass. A passMissing pass adds only
// what it appended: the passFirst pass before it presented the whole
// super-chunk, missing chunks included.
func (e *Engine) superChunkDone(res result, sc *core.SuperChunk, mode passMode) {
	if mode != passMissing {
		e.superChunks.Add(1)
		e.logicalBytes.Add(sc.Size())
		e.logicalChunks.Add(int64(len(sc.Chunks)))
	}
	e.physicalBytes.Add(res.UniqueBytes)
	e.uniqueChunks.Add(int64(res.UniqueChunks))
}

// StoreFileInBin implements Extreme Binning's bin-scoped approximate
// deduplication (Bhagwat et al., MASCOTS'09): the file's chunks are
// deduplicated only against the bin identified by the file's
// representative (minimum) fingerprint — not against the engine's full
// chunk index. Duplicates that live in other bins are missed; that
// approximation is EB's defining tradeoff (paper Fig. 8).
func (e *Engine) StoreFileInBin(stream string, binKey fingerprint.Fingerprint, sc *core.SuperChunk) (result, error) {
	e.binsMu.Lock()
	if e.bins == nil {
		e.bins = make(map[fingerprint.Fingerprint]map[fingerprint.Fingerprint]struct{})
	}
	bin, ok := e.bins[binKey]
	if !ok {
		bin = make(map[fingerprint.Fingerprint]struct{})
		e.bins[binKey] = bin
	}
	e.binsMu.Unlock()

	var res result
	for _, ch := range sc.Chunks {
		e.binsMu.Lock()
		_, dup := bin[ch.FP]
		if !dup {
			bin[ch.FP] = struct{}{}
		}
		e.binsMu.Unlock()
		if dup {
			res.DupChunks++
			res.DupBytes += int64(ch.Size)
			continue
		}
		if _, err := e.containers.Append(stream, ch.FP, ch.Data, ch.Size); err != nil {
			return res, fmt.Errorf("store node %d: store bin chunk: %w", e.cfg.ID, err)
		}
		res.UniqueChunks++
		res.UniqueBytes += int64(ch.Size)
	}
	e.superChunkDone(res, sc, passEager)
	return res, nil
}

// QuerySuperChunk answers a source-dedup batched fingerprint query: for
// each chunk of the super-chunk, report whether it is already stored. The
// engine performs the same similarity-index prefetch as StoreSuperChunk
// but mutates no dedup state — so a verdict can go stale before the store
// that acts on it. The ingest path uses Dedup, whose verdict is the
// reference; this is kept for the benchmark's traced replay until it is
// deleted (ROADMAP item 7(c)).
func (e *Engine) QuerySuperChunk(sc *core.SuperChunk) []bool {
	hp := sc.Handprint(e.cfg.HandprintSize)
	e.prefetch(e.sim.LookupContainers(hp))
	out := make([]bool, len(sc.Chunks))
	for i, ch := range sc.Chunks {
		dup := false
		if _, ok := e.cache.lookup(ch.FP); ok {
			dup = true
		} else if e.cidx != nil {
			if _, ok := e.cidx.lookup(ch.FP); ok {
				dup = true
			}
		}
		// A dead chunk (zero references) may be collected before the
		// client's store arrives; reporting it as absent makes the client
		// resend its payload, which the store path then either resurrects
		// (duplicate verdict) or appends fresh.
		if dup && e.gcEnabled() {
			sh := e.shardFor(ch.FP)
			sh.mu.Lock()
			dup = sh.refs[ch.FP] > 0
			sh.mu.Unlock()
		}
		out[i] = dup
	}
	return out
}

// maxStaleLocReads bounds consecutive read attempts at one chunk-index
// location that keeps failing without the index repointing — the genuine
// "chunk is gone" verdict, as opposed to the transient "compaction moved
// it" one.
const maxStaleLocReads = 2

// ReadChunk fetches a stored chunk payload (restore path). Requires
// KeepPayloads or Dir. A restore racing the compactor can look a chunk
// up just before its container is rewritten; the read re-resolves
// through the chunk index and follows the relocation — repeatedly, since
// the rewritten container can itself be retired by the next pass before
// this read gets to it (the double-retire race). Only a location the
// index refuses to change after repeated failures is a real error;
// following a changed location is always progress, so the loop
// terminates with the compactor's last rewrite.
func (e *Engine) ReadChunk(fp fingerprint.Fingerprint) ([]byte, error) {
	if e.cidx == nil {
		return nil, fmt.Errorf("store node %d: restore requires the chunk index", e.cfg.ID)
	}
	var lastErr error
	var lastLoc container.Loc
	stale := 0
	for {
		loc, ok := e.cidx.locate(fp)
		if !ok {
			return nil, fmt.Errorf("store node %d: chunk %s: %w", e.cfg.ID, fp.Short(), container.ErrNotFound)
		}
		if lastErr != nil {
			if loc == lastLoc {
				stale++
				if stale >= maxStaleLocReads {
					return nil, fmt.Errorf("store node %d: %w", e.cfg.ID, lastErr)
				}
			} else {
				stale = 0
			}
		}
		lastLoc = loc
		if e.readRaceHook != nil {
			e.readRaceHook()
		}
		data, err := e.containers.ReadChunk(loc)
		if err == nil {
			return data, nil
		}
		if !errors.Is(err, container.ErrNotFound) && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("store node %d: %w", e.cfg.ID, err)
		}
		lastErr = err
	}
}

// ReadChunkBatch fetches many chunk payloads in one call — the node side
// of the batched restore path. The fingerprints are located in the chunk
// index (no Bloom probe: a recipe names stored chunks), grouped by
// container and sorted by offset, so each container is read once,
// sequentially, no matter how the recipe scattered its chunks. Results
// come back in container read order: idx[i] is the position in fps that
// out[i] answers. A container moved by a concurrent compaction mid-batch
// degrades those chunks to the per-chunk retry of ReadChunk rather than
// failing the batch.
func (e *Engine) ReadChunkBatch(fps []fingerprint.Fingerprint) (out [][]byte, idx []int, err error) {
	if e.cidx == nil {
		return nil, nil, fmt.Errorf("store node %d: restore requires the chunk index", e.cfg.ID)
	}
	type want struct {
		loc container.Loc
		i   int
	}
	wants := make([]want, len(fps))
	for i, fp := range fps {
		loc, ok := e.cidx.locate(fp)
		if !ok {
			return nil, nil, fmt.Errorf("store node %d: chunk %s: %w", e.cfg.ID, fp.Short(), container.ErrNotFound)
		}
		wants[i] = want{loc, i}
	}
	if e.readRaceHook != nil {
		e.readRaceHook()
	}
	slices.SortFunc(wants, func(a, b want) int {
		if c := cmp.Compare(a.loc.CID, b.loc.CID); c != 0 {
			return c
		}
		return cmp.Compare(a.loc.Offset, b.loc.Offset)
	})
	out = make([][]byte, 0, len(wants))
	idx = make([]int, 0, len(wants))
	locs := make([]container.Loc, 0, len(wants)) // one container's share at a time
	for s := 0; s < len(wants); {
		cid := wants[s].loc.CID
		t := s
		for t < len(wants) && wants[t].loc.CID == cid {
			t++
		}
		locs = locs[:0]
		for k := s; k < t; k++ {
			locs = append(locs, wants[k].loc)
		}
		datas, rerr := e.containers.ReadChunks(cid, locs)
		if rerr != nil {
			if !errors.Is(rerr, container.ErrNotFound) && !errors.Is(rerr, os.ErrNotExist) {
				return nil, nil, fmt.Errorf("store node %d: %w", e.cfg.ID, rerr)
			}
			// The container vanished under us (compaction retired it):
			// fall back to per-chunk reads, which re-resolve through the
			// chunk index.
			for k := s; k < t; k++ {
				data, cerr := e.ReadChunk(fps[wants[k].i])
				if cerr != nil {
					return nil, nil, cerr
				}
				out = append(out, data)
				idx = append(idx, wants[k].i)
			}
			s = t
			continue
		}
		for k, data := range datas {
			out = append(out, data)
			idx = append(idx, wants[s+k].i)
		}
		s = t
	}
	return out, idx, nil
}

// ReadCacheStats snapshots the container read-region cache counters.
func (e *Engine) ReadCacheStats() container.CacheStats {
	return e.containers.ReadCacheStats()
}

// CountHandprintMatches reports how many representative fingerprints of
// hp are present in the similarity index (routing bid, Algorithm 1). The
// bid summary answers first: it has no false negatives, so a handprint
// it rules out scores zero without touching a stripe — most bids at a
// wide cluster's nodes, which hold none of a given super-chunk. A
// concurrent Insert is visible to the summary just after its stripe, a
// window CountMatches alone already has.
func (e *Engine) CountHandprintMatches(hp core.Handprint) int {
	if !e.sim.SummaryMayContainAny(hp) {
		return 0
	}
	return e.sim.CountMatches(hp)
}

// SummaryMayContain reports whether any RFP of hp may be present in this
// node's similarity index, per its bid summary — a constant-size check
// routers use to skip candidates that are guaranteed to bid zero. False
// means CountHandprintMatches(hp) == 0.
func (e *Engine) SummaryMayContain(hp core.Handprint) bool {
	return e.sim.SummaryMayContainAny(hp)
}

// BidSummaryStats reports the bid summary's footprint and rebuild count.
func (e *Engine) BidSummaryStats() (sizeBytes int, rebuilds uint64) {
	return e.sim.Summary().SizeBytes(), e.sim.Summary().Rebuilds()
}

// CountStoredChunks reports how many of the given chunk fingerprints are
// already stored — the sampled chunk-index bid of EMC-style Stateful
// routing. Charged against the chunk index like any other lookup.
func (e *Engine) CountStoredChunks(fps []fingerprint.Fingerprint) int {
	if e.cidx == nil {
		return 0
	}
	count := 0
	for _, fp := range fps {
		if _, ok := e.cidx.lookup(fp); ok {
			count++
		}
	}
	return count
}

// StorageUsage returns physical storage usage in bytes.
func (e *Engine) StorageUsage() int64 { return e.containers.StoredBytes() }

// SimIndexSize returns the similarity index entry count.
func (e *Engine) SimIndexSize() int { return e.sim.Len() }

// CacheHitRate returns the chunk-fingerprint cache hit rate.
func (e *Engine) CacheHitRate() float64 { return e.cache.hitRate() }

// DiskIndexStats returns the chunk index disk-I/O counters (zeroes when
// the index is disabled).
func (e *Engine) DiskIndexStats() (diskReads, bloomSkips uint64) {
	if e.cidx == nil {
		return 0, 0
	}
	r, s, _ := e.cidx.stats()
	return r, s
}

// Stats returns a snapshot of the engine's counters. After a recovery
// PhysicalBytes and UniqueChunks reflect the restored containers and the
// logical bytes and chunks those of the backups they hold (their chunk
// references, with GC enabled), while the cache and index hits restart
// from zero.
func (e *Engine) Stats() engineStats {
	return engineStats{
		LogicalBytes:  e.logicalBytes.Load(),
		PhysicalBytes: e.physicalBytes.Load(),
		LogicalChunks: e.logicalChunks.Load(),
		UniqueChunks:  e.uniqueChunks.Load(),
		SuperChunks:   e.superChunks.Load(),
		CacheHits:     e.cacheHits.Load(),
		DiskIndexHits: e.diskIndexHits.Load(),
		Prefetches:    e.prefetches.Load(),
	}
}

// Flush seals all open containers (end of a backup session). In durable
// mode everything stored before a successful Flush is recoverable —
// including its chunk refcounts: the manifest is fsynced even when no
// container sealed (a fully-duplicate backup stores no new data but
// still takes references that a crash must not forget).
func (e *Engine) Flush() error {
	if err := e.containers.SealAll(); err != nil {
		return err
	}
	if e.man != nil {
		return e.man.sync()
	}
	return nil
}

// SealStream seals one stream's open container (a no-op when the
// stream has nothing open) and fsyncs the manifest — the targeted
// durability commit of a migration: everything the stream stored,
// including its journaled chunk references, survives a restart, while
// other streams' open containers keep filling undisturbed.
func (e *Engine) SealStream(stream string) error {
	if err := e.containers.Seal(stream); err != nil {
		return err
	}
	if e.man != nil {
		return e.man.sync()
	}
	return nil
}

// Close stops the background compactor, flushes the engine and releases
// the manifest. A closed durable engine can be reopened with Config.Recover.
func (e *Engine) Close() error {
	e.stopCompactor()
	err := e.Flush()
	if e.man != nil {
		if cerr := e.man.close(); err == nil {
			err = cerr
		}
	}
	return err
}

// DecRef releases backup references on chunks: fps[i] loses ns[i]
// references (the recipe entries of a deleted backup, grouped by
// fingerprint). The decrement batch is journaled fsynced before it is
// applied — the durable commit point of the deletion on this node. A
// chunk whose last reference goes is not erased immediately; it becomes
// dead weight in its container until the compactor rewrites or retires
// the container.
//
// Decrefing more references than a chunk holds, or a chunk this engine
// never stored, fails loudly without journaling or applying anything:
// it means the caller's recipes and this store disagree, and guessing
// would eventually free live chunks.
func (e *Engine) DecRef(fps []fingerprint.Fingerprint, ns []int64) error {
	if !e.gcEnabled() {
		return fmt.Errorf("store node %d: deletion requires the chunk index", e.cfg.ID)
	}
	if len(ns) != len(fps) {
		return fmt.Errorf("store node %d: decref: %d fingerprints, %d counts", e.cfg.ID, len(fps), len(ns))
	}
	e.decrefMu.Lock()
	defer e.decrefMu.Unlock()
	// Validate the whole batch first. Concurrent stores can only add
	// references, and concurrent DecRefs are serialized by decrefMu, so a
	// batch that validates here cannot under-run when applied below.
	for i, fp := range fps {
		if ns[i] <= 0 {
			return fmt.Errorf("store node %d: decref: non-positive count %d for %s", e.cfg.ID, ns[i], fp.Short())
		}
		sh := e.shardFor(fp)
		sh.mu.Lock()
		have := sh.refs[fp]
		sh.mu.Unlock()
		if have < ns[i] {
			return fmt.Errorf("store node %d: decref: chunk %s has %d references, asked to drop %d",
				e.cfg.ID, fp.Short(), have, ns[i])
		}
	}
	if e.man != nil {
		if err := e.man.appendDecref(fps, ns); err != nil {
			return fmt.Errorf("store node %d: %w", e.cfg.ID, err)
		}
	}
	for i, fp := range fps {
		sh := e.shardFor(fp)
		sh.mu.Lock()
		sh.refs[fp] -= ns[i]
		if sh.refs[fp] <= 0 {
			delete(sh.refs, fp)
			delete(sh.touch, fp)
			if loc, ok := e.cidx.peek(fp); ok {
				e.gcMu.Lock()
				e.dead[loc.CID] += int64(loc.Length)
				e.gcMu.Unlock()
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// GCStats is a snapshot of the deletion/compaction subsystem.
type GCStats struct {
	StoredBytes       int64 // physical payload bytes currently held
	DeadBytes         int64 // bytes of chunk copies with zero references
	LiveBytes         int64 // StoredBytes - DeadBytes
	Containers        int   // sealed containers currently held
	RetiredContainers int64 // containers removed by compaction, ever
	ReclaimedBytes    int64 // payload bytes freed by compaction, ever
	CopiedBytes       int64 // surviving bytes rewritten by compaction, ever
	CompactRuns       int64 // compaction scans completed
	// CompactErrors counts failed background compaction passes;
	// LastCompactErr is the most recent failure's message (empty when
	// none). A persistently failing compactor is invisible otherwise —
	// the background ticker has no caller to report to.
	CompactErrors  int64
	LastCompactErr string
}

// GCStats returns the engine's garbage-collection counters.
func (e *Engine) GCStats() GCStats {
	var dead int64
	e.gcMu.Lock()
	for _, d := range e.dead {
		dead += d
	}
	e.gcMu.Unlock()
	stored := e.containers.StoredBytes()
	e.compactErrMu.Lock()
	cerrs, lastErr := e.compactErrors, e.lastCompactErr
	e.compactErrMu.Unlock()
	return GCStats{
		StoredBytes:       stored,
		DeadBytes:         dead,
		LiveBytes:         stored - dead,
		Containers:        e.containers.NumSealed(),
		RetiredContainers: e.retiredContainers.Load(),
		ReclaimedBytes:    e.reclaimedBytes.Load(),
		CopiedBytes:       e.copiedBytes.Load(),
		CompactRuns:       e.compactRuns.Load(),
		CompactErrors:     cerrs,
		LastCompactErr:    lastErr,
	}
}

// RefCount reports the current reference count of a chunk (tests and
// diagnostics).
func (e *Engine) RefCount(fp fingerprint.Fingerprint) int64 {
	sh := e.shardFor(fp)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.refs[fp]
}

// RefCounts reports the current reference count of each chunk — the
// migration recovery probe: reconciliation compares these against the
// recipe-derived expected counts and releases exactly the surplus.
func (e *Engine) RefCounts(fps []fingerprint.Fingerprint) []int64 {
	out := make([]int64, len(fps))
	for i, fp := range fps {
		out[i] = e.RefCount(fp)
	}
	return out
}
