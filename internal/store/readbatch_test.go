package store

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
)

// TestReadChunkBatchAcrossContainers stores chunks spread over several
// sealed containers and reads them back in one batch with the request
// order shuffled and one fingerprint repeated. The batch may come back
// in container read order, but the (out, idx) pairing must map every
// payload to the request position it answers.
func TestReadChunkBatchAcrossContainers(t *testing.T) {
	e, err := New(Config{Dir: t.TempDir(), KeepPayloads: true, ContainerCapacity: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(50))
	// 16KB containers and 4KB chunks: 12 chunks force at least 3 containers.
	sc := makeSC(rng, 12, true)
	if _, err := e.StoreSuperChunk("s", sc); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := e.Manager().NumSealed(); got < 3 {
		t.Fatalf("%d sealed containers, want >= 3", got)
	}

	fps := make([]fingerprint.Fingerprint, len(sc.Chunks))
	for i, ch := range sc.Chunks {
		fps[i] = ch.FP
	}
	rng.Shuffle(len(fps), func(i, j int) { fps[i], fps[j] = fps[j], fps[i] })
	fps = append(fps, fps[0]) // duplicate request positions are legal

	byFP := make(map[fingerprint.Fingerprint][]byte, len(sc.Chunks))
	for _, ch := range sc.Chunks {
		byFP[ch.FP] = ch.Data
	}

	out, idx, err := e.ReadChunkBatch(fps)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(fps) || len(idx) != len(fps) {
		t.Fatalf("batch returned %d payloads / %d indices, want %d", len(out), len(idx), len(fps))
	}
	answered := make([]bool, len(fps))
	for k, data := range out {
		i := idx[k]
		if i < 0 || i >= len(fps) || answered[i] {
			t.Fatalf("idx[%d] = %d: out of range or answered twice", k, i)
		}
		answered[i] = true
		if !bytes.Equal(data, byFP[fps[i]]) {
			t.Fatalf("payload %d does not match fps[%d]", k, i)
		}
	}

	// One unknown fingerprint fails the whole batch.
	bad := append(append([]fingerprint.Fingerprint(nil), fps[:2]...), fingerprint.Sum([]byte("ghost")))
	if _, _, err := e.ReadChunkBatch(bad); err == nil {
		t.Fatal("batch with a missing fingerprint should fail")
	}
}

// TestReadChunkSurvivesDoubleRetire is the double-retire race: a restore
// looks a chunk up, and before the read lands the compactor retires the
// container — and then retires the rewrite too, because the next pass
// found it under-live as well. The read must follow the chunk index
// through both relocations instead of giving up after a fixed attempt
// count. The readRaceHook makes the race deterministic: after every
// index lookup, one more compaction pass retires the container the
// lookup just returned.
func TestReadChunkSurvivesDoubleRetire(t *testing.T) {
	e, err := New(Config{Dir: t.TempDir(), KeepPayloads: true, ContainerCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(52))
	// One container: the target chunk plus two fillers whose deaths make
	// the container (and then its rewrite) eligible for retirement.
	sc := makeSC(rng, 3, true)
	if _, err := e.StoreSuperChunk("s", sc); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	target := sc.Chunks[0]
	fillers := []fingerprint.Fingerprint{sc.Chunks[1].FP, sc.Chunks[2].FP}

	retires := 0
	e.readRaceHook = func() {
		if retires >= len(fillers) {
			return // no filler left to kill; the container stays live
		}
		// Kill one filler and compact at threshold 1.0: the container the
		// lookup just resolved is rewritten and retired under the read.
		if err := e.DecRef([]fingerprint.Fingerprint{fillers[retires]}, []int64{1}); err != nil {
			t.Fatal(err)
		}
		res, err := e.Compact(context.Background(), 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Retired == 0 {
			t.Fatal("compaction pass retired nothing; race not exercised")
		}
		retires++
	}

	data, err := e.ReadChunk(target.FP)
	if err != nil {
		t.Fatalf("read lost the double-retire race: %v", err)
	}
	if !bytes.Equal(data, target.Data) {
		t.Fatal("payload corrupted across two relocations")
	}
	if retires != 2 {
		t.Fatalf("%d retire rounds fired, want 2 (double retire)", retires)
	}
}

// TestReadChunkBatchSurvivesDoubleRetire drives the same race through
// the batched path: the batch resolves its locations, the container
// retires under it (hook round 1), the batch degrades to per-chunk reads
// — whose own lookups lose a second round to the compactor (hook round
// 2) and must keep following the index.
func TestReadChunkBatchSurvivesDoubleRetire(t *testing.T) {
	e, err := New(Config{Dir: t.TempDir(), KeepPayloads: true, ContainerCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	sc := makeSC(rng, 3, true)
	if _, err := e.StoreSuperChunk("s", sc); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	target := sc.Chunks[0]
	fillers := []fingerprint.Fingerprint{sc.Chunks[1].FP, sc.Chunks[2].FP}

	retires := 0
	e.readRaceHook = func() {
		if retires >= len(fillers) {
			return
		}
		if err := e.DecRef([]fingerprint.Fingerprint{fillers[retires]}, []int64{1}); err != nil {
			t.Fatal(err)
		}
		if res, err := e.Compact(context.Background(), 1.0); err != nil || res.Retired == 0 {
			t.Fatalf("compaction pass: retired %d, err %v", res.Retired, err)
		}
		retires++
	}

	out, idx, err := e.ReadChunkBatch([]fingerprint.Fingerprint{target.FP})
	if err != nil {
		t.Fatalf("batch read lost the double-retire race: %v", err)
	}
	if len(out) != 1 || idx[0] != 0 || !bytes.Equal(out[0], target.Data) {
		t.Fatal("batch returned the wrong payload after two relocations")
	}
	if retires != 2 {
		t.Fatalf("%d retire rounds fired, want 2 (double retire)", retires)
	}
}

// TestCompactOrdersSurvivorsByRecency is the capping contract: a
// rewritten container lays its survivors out in last-touch order, so the
// chunks the most recent backups still reference — the ones the next
// restore will read together — end up physically adjacent.
func TestCompactOrdersSurvivorsByRecency(t *testing.T) {
	e, err := New(Config{Dir: t.TempDir(), KeepPayloads: true, ContainerCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51))
	sc := makeSC(rng, 8, true)
	if _, err := e.StoreSuperChunk("s", sc); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	oldCID, ok := e.cidx.lookup(sc.Chunks[0].FP)
	if !ok {
		t.Fatal("stored chunk missing from the chunk index")
	}

	// A newer backup re-references chunks 5, 2, 7 in that order,
	// advancing their last-touch sequence past the untouched survivors.
	touched := &core.SuperChunk{}
	for _, i := range []int{5, 2, 7} {
		touched.Chunks = append(touched.Chunks, sc.Chunks[i])
	}
	if _, err := e.StoreSuperChunk("s2", touched); err != nil {
		t.Fatal(err)
	}

	// Kill chunks 0 and 4 so the container drops below full liveness and
	// compaction rewrites it.
	dead := []fingerprint.Fingerprint{sc.Chunks[0].FP, sc.Chunks[4].FP}
	if err := e.DecRef(dead, []int64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Compact(context.Background(), 1.0); err != nil {
		t.Fatal(err)
	}

	// Expected physical order: untouched survivors in their original
	// store order (1, 3, 6), then the re-touched ones in touch order
	// (5, 2, 7).
	wantOrder := []int{1, 3, 6, 5, 2, 7}
	var lastOffset int64 = -1
	var newCID uint64
	for n, i := range wantOrder {
		loc, ok := e.cidx.lookup(sc.Chunks[i].FP)
		if !ok {
			t.Fatalf("survivor %d lost from the chunk index", i)
		}
		if loc.CID == oldCID.CID {
			t.Fatalf("survivor %d still lives in the retired container", i)
		}
		if n == 0 {
			newCID = loc.CID
		} else if loc.CID != newCID {
			t.Fatalf("survivors split across containers %d and %d", newCID, loc.CID)
		}
		if int64(loc.Offset) <= lastOffset {
			t.Fatalf("survivor %d at offset %d breaks last-touch order (prev %d)", i, loc.Offset, lastOffset)
		}
		lastOffset = int64(loc.Offset)
		data, err := e.ReadChunk(sc.Chunks[i].FP)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, sc.Chunks[i].Data) {
			t.Fatalf("survivor %d corrupted by compaction", i)
		}
	}
	for _, fp := range dead {
		if _, err := e.ReadChunk(fp); err == nil {
			t.Fatal("dead chunk still readable after compaction")
		}
	}
}
