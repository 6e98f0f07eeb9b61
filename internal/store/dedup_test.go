package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/sderr"
)

// fingerprintsOnly is sc as a fingerprint-first call sends it.
func fingerprintsOnly(sc *core.SuperChunk) *core.SuperChunk {
	out := &core.SuperChunk{Chunks: make([]core.ChunkRef, len(sc.Chunks))}
	for i, ch := range sc.Chunks {
		out.Chunks[i] = core.ChunkRef{FP: ch.FP, Size: ch.Size}
	}
	return out
}

// storePath is one way of storing a routed super-chunk on an engine.
type storePath func(e *Engine, stream string, sc *core.SuperChunk) error

// storePaths are the three ways the differential compares: the query
// then store the ingest path made before Dedup (payloads only for what
// the query called new), the fingerprint-first Dedup followed by the
// payloads of what it reported missing, and the eager Dedup.
var storePaths = map[string]storePath{
	"query+store": func(e *Engine, stream string, sc *core.SuperChunk) error {
		dup := e.QuerySuperChunk(fingerprintsOnly(sc))
		send := fingerprintsOnly(sc)
		for i := range send.Chunks {
			if !dup[i] {
				send.Chunks[i].Data = sc.Chunks[i].Data
			}
		}
		_, err := e.StoreSuperChunk(stream, send)
		return err
	},
	"fingerprints-first": func(e *Engine, stream string, sc *core.SuperChunk) error {
		hp := sc.Handprint(e.Config().HandprintSize)
		fresh, err := e.Dedup(stream, fingerprintsOnly(sc), hp, false)
		if err != nil {
			return err
		}
		rest := &core.SuperChunk{}
		for i, ch := range sc.Chunks {
			if fresh[i] {
				rest.Chunks = append(rest.Chunks, ch)
			}
		}
		if len(rest.Chunks) == 0 {
			return nil
		}
		_, err = e.StoreMissing(stream, rest, hp)
		return err
	},
	"eager": func(e *Engine, stream string, sc *core.SuperChunk) error {
		_, err := e.Dedup(stream, cloneSC(sc), sc.Handprint(e.Config().HandprintSize), true)
		return err
	},
}

// engineState is what the differential requires to be identical.
type engineState struct {
	Refs  map[fingerprint.Fingerprint]int64
	Sim   map[fingerprint.Fingerprint]uint64
	Stats Stats
	GC    GCStats
}

func stateOf(e *Engine, pool []core.ChunkRef) engineState {
	st := engineState{
		Refs:  make(map[fingerprint.Fingerprint]int64),
		Sim:   make(map[fingerprint.Fingerprint]uint64),
		Stats: e.Stats(),
		GC:    e.GCStats(),
	}
	// The query+store path prefetches twice per super-chunk; everything
	// else must match.
	st.Stats.Prefetches = 0
	for _, ch := range pool {
		if n := e.RefCount(ch.FP); n != 0 {
			st.Refs[ch.FP] = n
		}
	}
	e.sim.Range(func(fp fingerprint.Fingerprint) bool {
		st.Sim[fp], _ = e.sim.Lookup(fp)
		return true
	})
	return st
}

// dedupScript is a seeded history over a pool of chunks: super-chunks
// with cross- and intra-super-chunk duplicates, deletions that drop
// chunks to zero references both before and after a compaction, and
// re-stores of deleted content (resurrection while the dead copy is
// indexed, a fresh append once compaction collected it).
type dedupScript struct {
	pool  []core.ChunkRef
	steps []dedupStep
}

type dedupStep struct {
	store   *core.SuperChunk
	drop    int // index of an earlier stored super-chunk to release, or -1
	compact bool
}

func newDedupScript(seed int64) dedupScript {
	rng := rand.New(rand.NewSource(seed))
	var s dedupScript
	next := func() core.ChunkRef {
		data := make([]byte, 512+rng.Intn(4)*512)
		rng.Read(data)
		ch := core.ChunkRef{FP: fingerprint.Sum(data), Size: len(data), Data: data}
		s.pool = append(s.pool, ch)
		return ch
	}
	var stored []*core.SuperChunk
	for i := 0; i < 70; i++ {
		sc := &core.SuperChunk{}
		for n := 8 + rng.Intn(24); len(sc.Chunks) < n; {
			switch r := rng.Intn(10); {
			case r < 5 && len(stored) > 0:
				// A run copied from an earlier super-chunk.
				from := stored[rng.Intn(len(stored))].Chunks
				at := rng.Intn(len(from))
				sc.Chunks = append(sc.Chunks, from[at:min(at+1+rng.Intn(8), len(from))]...)
			case r < 6 && len(sc.Chunks) > 0:
				sc.Chunks = append(sc.Chunks, sc.Chunks[rng.Intn(len(sc.Chunks))])
			default:
				sc.Chunks = append(sc.Chunks, next())
			}
		}
		step := dedupStep{store: sc, drop: -1, compact: i%17 == 16}
		if i%5 == 4 {
			step.drop = rng.Intn(len(stored) + 1)
		}
		stored = append(stored, sc)
		s.steps = append(s.steps, step)
	}
	return s
}

// run plays the script on e through path, releasing each dropped
// super-chunk's references once.
func (s dedupScript) run(t *testing.T, e *Engine, path storePath) {
	t.Helper()
	dropped := make(map[int]bool)
	for i, st := range s.steps {
		if err := path(e, fmt.Sprintf("s%d", i%3), st.store); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if st.drop >= 0 && !dropped[st.drop] {
			dropped[st.drop] = true
			fps, ns := aggregateRefs(s.steps[st.drop].store.Chunks)
			if err := e.DecRef(fps, ns); err != nil {
				t.Fatalf("step %d: release super-chunk %d: %v", i, st.drop, err)
			}
		}
		if st.compact {
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Compact(context.Background(), 0.9); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestDedupPassDifferential plays one seeded history through the three
// store paths on a RAM and on a durable engine: per-fingerprint
// refcounts, similarity-index entries, stored and dead bytes and the
// engine counters (each super-chunk presented once) are identical, and so
// is what a durable engine recovers from its manifest. Every referenced
// chunk reads back intact.
func TestDedupPassDifferential(t *testing.T) {
	for _, seed := range []int64{61, 62} {
		script := newDedupScript(seed)
		for _, durable := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/durable=%v", seed, durable), func(t *testing.T) {
				var want, wantRecovered *engineState
				var wantName string
				for _, name := range []string{"query+store", "fingerprints-first", "eager"} {
					cfg := Config{KeepPayloads: true, ContainerCapacity: 16 << 10}
					if durable {
						cfg.Dir = t.TempDir()
					}
					e, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					script.run(t, e, storePaths[name])
					got := stateOf(e, script.pool)
					for fp := range got.Refs {
						data, err := e.ReadChunk(fp)
						if err != nil {
							t.Fatalf("%s: referenced chunk %s unreadable: %v", name, fp.Short(), err)
						}
						if fingerprint.Sum(data) != fp {
							t.Fatalf("%s: chunk %s reads back corrupted", name, fp.Short())
						}
					}
					var recovered *engineState
					if durable {
						if err := e.Close(); err != nil {
							t.Fatal(err)
						}
						r, err := Open(cfg)
						if err != nil {
							t.Fatal(err)
						}
						rs := stateOf(r, script.pool)
						recovered = &rs
						r.Close()
					} else {
						e.Close()
					}
					if want == nil {
						want, wantRecovered, wantName = &got, recovered, name
						if got.Stats.SuperChunks != int64(len(script.steps)) {
							t.Fatalf("%d super-chunks counted, %d stored", got.Stats.SuperChunks, len(script.steps))
						}
						// Every representative fingerprint stored is indexed —
						// the paths share the pass, so this is checked apart.
						rfps := make(map[fingerprint.Fingerprint]bool)
						for _, st := range script.steps {
							for _, fp := range st.store.Handprint(e.Config().HandprintSize) {
								rfps[fp] = true
							}
						}
						if len(got.Sim) != len(rfps) {
							t.Fatalf("similarity index holds %d entries, %d representative fingerprints were stored", len(got.Sim), len(rfps))
						}
						for fp := range rfps {
							if _, ok := got.Sim[fp]; !ok {
								t.Fatalf("representative fingerprint %s not indexed", fp.Short())
							}
						}
						continue
					}
					if !reflect.DeepEqual(got, *want) {
						t.Fatalf("%s and %s diverge:\n%s %+v %+v\n%s %+v %+v",
							name, wantName, name, got.Stats, got.GC, wantName, want.Stats, want.GC)
					}
					if durable {
						// Recovery restarts the session counters.
						recovered.Stats, wantRecovered.Stats = Stats{}, Stats{}
						if !reflect.DeepEqual(recovered, wantRecovered) {
							t.Fatalf("%s and %s recover different state", name, wantName)
						}
					}
				}
			})
		}
	}
}

// TestDedupTwoCallSixteenStreams: sixteen streams store super-chunks drawn
// from one small pool through the two-call path at once — each a
// fingerprint-first Dedup, then the payloads of what it reported missing,
// so two streams often race to deliver the same new chunk. Every chunk is
// stored once, holds exactly one reference per occurrence and reads back
// intact.
func TestDedupTwoCallSixteenStreams(t *testing.T) {
	e, err := New(Config{KeepPayloads: true, ContainerCapacity: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(63))
	pool := makeSC(rng, 96, true).Chunks
	const streams, scs = 16, 12
	var mu sync.Mutex
	want := make(map[fingerprint.Fingerprint]int64)
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(700 + s)))
			stream := fmt.Sprintf("s%d", s)
			for i := 0; i < scs; i++ {
				sc := &core.SuperChunk{}
				at := rng.Intn(len(pool))
				for n := 0; n < 24; n++ {
					sc.Chunks = append(sc.Chunks, pool[(at+n)%len(pool)])
				}
				if err := storePaths["fingerprints-first"](e, stream, sc); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				for _, ch := range sc.Chunks {
					want[ch.FP]++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for fp, n := range want {
		if got := e.RefCount(fp); got != n {
			t.Fatalf("chunk %s holds %d references, stored %d times", fp.Short(), got, n)
		}
	}
	st := e.Stats()
	if st.UniqueChunks != int64(len(want)) || st.PhysicalBytes != int64(len(want))*4096 {
		t.Fatalf("%d chunks / %d bytes stored, want %d distinct chunks stored once", st.UniqueChunks, st.PhysicalBytes, len(want))
	}
	if st.SuperChunks != streams*scs {
		t.Fatalf("%d super-chunks counted, %d stored", st.SuperChunks, streams*scs)
	}
	for _, ch := range pool {
		if _, ok := want[ch.FP]; !ok {
			continue
		}
		if got, err := e.ReadChunk(ch.FP); err != nil || !bytes.Equal(got, ch.Data) {
			t.Fatalf("chunk %s does not read back: %v", ch.FP.Short(), err)
		}
	}
}

// TestDedupVerdicts pins the contract of one pass: held chunks gain a
// reference and report not fresh; a payload-less chunk the engine lacks
// is reported missing and left alone unless the pass is eager, where it
// fails with errChunkVanished; StoreMissing delivers what was missing
// without presenting the super-chunk again.
func TestDedupVerdicts(t *testing.T) {
	e, err := New(Config{KeepPayloads: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(64))
	old, added := makeSC(rng, 4, true), makeSC(rng, 2, true)
	if _, err := e.Dedup("s", cloneSC(old), nil, true); err != nil {
		t.Fatal(err)
	}
	sc := &core.SuperChunk{Chunks: append(append([]core.ChunkRef(nil), old.Chunks...), added.Chunks...)}
	fresh, err := e.Dedup("s", fingerprintsOnly(sc), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := []bool{false, false, false, false, true, true}; !reflect.DeepEqual(fresh, want) {
		t.Fatalf("fresh = %v, want %v", fresh, want)
	}
	for i, ch := range sc.Chunks {
		want := int64(2) // held: the first store's reference and this one
		if i >= 4 {
			want = 0 // missing: untouched
		}
		if got := e.RefCount(ch.FP); got != want {
			t.Fatalf("chunk %d holds %d references, want %d", i, got, want)
		}
	}
	if _, err := e.Dedup("s", fingerprintsOnly(added), nil, true); !errors.Is(err, errChunkVanished) {
		t.Fatalf("eager payload-less new chunk: %v, want ErrChunkVanished", err)
	}
	if _, err := e.StoreMissing("s", cloneSC(added), sc.Handprint(e.Config().HandprintSize)); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.SuperChunks != 2 || st.LogicalChunks != 10 || st.UniqueChunks != 6 {
		t.Fatalf("stats %+v: want 2 super-chunks presented, 10 chunks, 6 stored", st)
	}
	for _, ch := range added.Chunks {
		if got := e.RefCount(ch.FP); got != 1 {
			t.Fatalf("delivered chunk holds %d references, want 1", got)
		}
	}
}

// TestPrefetchCompletesContainerCachedWhileOpen: a container the cache
// copied while it was open, and that sealed with more chunks since, is
// completed by the next prefetch — its later chunks are cache hits, not
// a chunk-index lookup each for as long as the copy stays cached.
func TestPrefetchCompletesContainerCachedWhileOpen(t *testing.T) {
	e, err := New(Config{KeepPayloads: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(67))
	first, later := makeSC(rng, 4, true), makeSC(rng, 4, true)
	if _, err := e.Dedup("s", cloneSC(first), nil, true); err != nil {
		t.Fatal(err)
	}
	// Another stream's copy of first prefetches the open container...
	if _, err := e.Dedup("t", cloneSC(first), nil, false); err != nil {
		t.Fatal(err)
	}
	// ...which then takes later's chunks and seals.
	if _, err := e.Dedup("s", cloneSC(later), nil, true); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	if _, err := e.Dedup("t", cloneSC(later), nil, false); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.DiskIndexHits != before.DiskIndexHits || st.CacheHits-before.CacheHits != 4 {
		t.Fatalf("chunks sealed after the container was cached: %d cache hits, %d chunk-index hits; want 4 and 0",
			st.CacheHits-before.CacheHits, st.DiskIndexHits-before.DiskIndexHits)
	}
}

// TestDedupRefusesMalformedHandprint: a handprint over the bound or out
// of order is refused with sderr.ErrMalformed before anything is touched.
func TestDedupRefusesMalformedHandprint(t *testing.T) {
	e, err := New(Config{KeepPayloads: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sc := makeSC(rand.New(rand.NewSource(65)), 4, true)
	hp := sc.Handprint(4)
	long := make(core.Handprint, maxHandprint+1)
	for i := range long {
		long[i][0], long[i][1] = byte(i>>8), byte(i)
	}
	for name, bad := range map[string]core.Handprint{
		"descending": {hp[1], hp[0]},
		"repeated":   {hp[0], hp[0]},
		"too long":   long,
	} {
		fresh, err := e.Dedup("s", cloneSC(sc), bad, true)
		if !errors.Is(err, sderr.ErrMalformed) {
			t.Fatalf("%s handprint: %v, want ErrMalformed", name, err)
		}
		for i, f := range fresh {
			if !f {
				t.Fatalf("%s handprint: chunk %d reported referenced", name, i)
			}
		}
	}
	if st := e.Stats(); st.LogicalChunks != 0 || e.StorageUsage() != 0 {
		t.Fatalf("a refused pass stored something: %+v", st)
	}
}

// TestDedupErrorReportsReferences: a pass that fails part-way reports
// exactly the chunks that hold a reference from it — and journals them,
// so the abort's release replays.
func TestDedupErrorReportsReferences(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, KeepPayloads: true, ContainerCapacity: 8192}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(66))
	sc := makeSC(rng, 3, true)
	if _, err := e.Dedup("s", cloneSC(sc), nil, true); err != nil {
		t.Fatal(err)
	}
	huge := make([]byte, 2*8192) // exceeds the container capacity
	rng.Read(huge)
	mixed := &core.SuperChunk{Chunks: []core.ChunkRef{
		sc.Chunks[0],                   // held
		makeSC(rng, 1, true).Chunks[0], // appended
		fingerprintsOnly(makeSC(rng, 1, true)).Chunks[0], // missing
		{FP: fingerprint.Sum(huge), Size: len(huge), Data: huge},
		sc.Chunks[1],
	}}
	fresh, err := e.Dedup("s", mixed, nil, false)
	if err == nil {
		t.Fatal("a chunk larger than a container was stored")
	}
	if want := []bool{false, false, true, true, true}; !reflect.DeepEqual(fresh, want) {
		t.Fatalf("unreferenced = %v, want %v", fresh, want)
	}
	var fps []fingerprint.Fingerprint
	for i, ch := range mixed.Chunks {
		if !fresh[i] {
			fps = append(fps, ch.FP)
		}
	}
	order, ns := core.AggregateRefs(fps)
	if err := e.DecRef(order, ns); err != nil {
		t.Fatalf("release what the failed pass referenced: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(cfg)
	if err != nil {
		t.Fatalf("recovery after the released failed pass: %v", err)
	}
	defer r.Close()
	if got := r.RefCount(sc.Chunks[0].FP); got != 1 {
		t.Fatalf("recovered %d references on the first chunk, want 1", got)
	}
}
