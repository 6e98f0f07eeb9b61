package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/sderr"
)

// refsOf extracts the (fps, ns) decref batch for a super-chunk: every
// chunk occurrence is one reference, exactly what a recipe would hold.
func refsOf(sc *core.SuperChunk) ([]fingerprint.Fingerprint, []int64) {
	return aggregateRefs(sc.Chunks)
}

// aggregateRefs folds a chunk list into (fp, count) pairs.
func aggregateRefs(chunks []core.ChunkRef) ([]fingerprint.Fingerprint, []int64) {
	return core.AggregateRefs((&core.SuperChunk{Chunks: chunks}).Fingerprints())
}

// TestRefcountLifecycle: storing takes references, deleting drops them,
// re-storing resurrects, and the dead-byte ledger follows along.
func TestRefcountLifecycle(t *testing.T) {
	e, err := New(Config{KeepPayloads: true, ContainerCapacity: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(40))
	sc := makeSC(rng, 8, true)
	if _, err := e.StoreSuperChunk("s", sc); err != nil {
		t.Fatal(err)
	}
	for _, ch := range sc.Chunks {
		if got := e.RefCount(ch.FP); got != 1 {
			t.Fatalf("RefCount = %d, want 1", got)
		}
	}
	// A duplicate store doubles every count.
	if _, err := e.StoreSuperChunk("s2", cloneSC(sc)); err != nil {
		t.Fatal(err)
	}
	if got := e.RefCount(sc.Chunks[0].FP); got != 2 {
		t.Fatalf("RefCount after dup store = %d, want 2", got)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	// Drop one backup's references: chunks stay live.
	fps, ns := refsOf(sc)
	if err := e.DecRef(fps, ns); err != nil {
		t.Fatal(err)
	}
	if gc := e.GCStats(); gc.DeadBytes != 0 {
		t.Fatalf("DeadBytes after partial decref = %d, want 0", gc.DeadBytes)
	}
	// Drop the second backup's references: all bytes are dead now.
	if err := e.DecRef(fps, ns); err != nil {
		t.Fatal(err)
	}
	gc := e.GCStats()
	if gc.DeadBytes != int64(8*4096) {
		t.Fatalf("DeadBytes after full decref = %d, want %d", gc.DeadBytes, 8*4096)
	}
	if gc.LiveBytes != gc.StoredBytes-gc.DeadBytes {
		t.Fatalf("LiveBytes = %d, inconsistent with %d-%d", gc.LiveBytes, gc.StoredBytes, gc.DeadBytes)
	}

	// Resurrection: storing the same content again revives the dead
	// copies as duplicate verdicts, without re-storing bytes.
	res, err := e.StoreSuperChunk("s3", cloneSC(sc))
	if err != nil {
		t.Fatal(err)
	}
	if res.UniqueChunks != 0 {
		t.Fatalf("resurrection stored %d new chunks, want 0", res.UniqueChunks)
	}
	if gc := e.GCStats(); gc.DeadBytes != 0 {
		t.Fatalf("DeadBytes after resurrection = %d, want 0", gc.DeadBytes)
	}
}

// TestDecRefValidation: over-releasing or releasing unknown chunks is
// refused up front, with no partial application.
func TestDecRefValidation(t *testing.T) {
	e, err := New(Config{KeepPayloads: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	sc := makeSC(rng, 4, true)
	if _, err := e.StoreSuperChunk("s", sc); err != nil {
		t.Fatal(err)
	}
	// Unknown chunk.
	if err := e.DecRef([]fingerprint.Fingerprint{fingerprint.Sum([]byte("ghost"))}, []int64{1}); err == nil {
		t.Fatal("decref of a never-stored chunk must fail")
	}
	// Over-release, with a valid chunk ahead of it in the same batch: the
	// valid chunk's count must be untouched (validation precedes apply).
	fps := []fingerprint.Fingerprint{sc.Chunks[0].FP, sc.Chunks[1].FP}
	if err := e.DecRef(fps, []int64{1, 5}); err == nil {
		t.Fatal("over-release must fail")
	}
	if got := e.RefCount(sc.Chunks[0].FP); got != 1 {
		t.Fatalf("RefCount after refused batch = %d, want 1 (no partial application)", got)
	}
}

// TestBackgroundCompactRecordsErrors is the silent-swallow bugfix: a
// failing background compaction pass has no caller to return its error
// to, so it must land in the GCStats counters — CompactErrors ticks and
// LastCompactErr carries the message — instead of vanishing. A later
// successful pass leaves the history visible (the counter is cumulative,
// the message sticky: "it failed N times, most recently like this").
func TestBackgroundCompactRecordsErrors(t *testing.T) {
	e, err := New(Config{Dir: t.TempDir(), KeepPayloads: true, ContainerCapacity: 32 << 10, CompactThreshold: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	doomed := makeSC(rng, 8, true)
	keep := makeSC(rng, 8, true)
	if _, err := e.StoreSuperChunk("doomed", doomed); err != nil {
		t.Fatal(err)
	}
	if _, err := e.StoreSuperChunk("keep", keep); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	fps, ns := refsOf(doomed)
	if err := e.DecRef(fps, ns); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk full")
	e.SetCompactFault(func(stage CompactStage, cid uint64) error {
		if stage == StageCopied {
			return boom
		}
		return nil
	})
	e.backgroundCompactOnce(context.Background())
	e.backgroundCompactOnce(context.Background())
	gc := e.GCStats()
	if gc.CompactErrors != 2 {
		t.Fatalf("CompactErrors = %d, want 2 (one per failed pass)", gc.CompactErrors)
	}
	if !strings.Contains(gc.LastCompactErr, "disk full") {
		t.Fatalf("LastCompactErr = %q, want the injected failure message", gc.LastCompactErr)
	}

	// The fault clears; the next pass succeeds and reclaims, but the
	// failure history stays readable.
	e.SetCompactFault(nil)
	e.backgroundCompactOnce(context.Background())
	gc = e.GCStats()
	if gc.CompactErrors != 2 {
		t.Fatalf("CompactErrors after recovery = %d, want 2 (cumulative)", gc.CompactErrors)
	}
	if gc.LastCompactErr == "" {
		t.Fatal("LastCompactErr cleared by a later success; the history must stay visible")
	}
	if gc.DeadBytes != 0 {
		t.Fatalf("DeadBytes after the recovered pass = %d, want 0", gc.DeadBytes)
	}
}

// TestCompactReclaimsDeletedSpace deletes one of two interleaved backups
// and compacts: physical bytes shrink by the dead share, the on-disk
// container files of fully-dead containers disappear, and every
// surviving chunk still restores byte-identically.
func TestCompactReclaimsDeletedSpace(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, KeepPayloads: true, ContainerCapacity: 32 << 10}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	// Two backups on separate streams → separate containers.
	doomed := makeSC(rng, 16, true)   // 64KB → 2 containers
	survivor := makeSC(rng, 16, true) // 64KB → 2 containers
	if _, err := e.StoreSuperChunk("doomed", doomed); err != nil {
		t.Fatal(err)
	}
	if _, err := e.StoreSuperChunk("survivor", survivor); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	before := e.StorageUsage()

	fps, ns := refsOf(doomed)
	if err := e.DecRef(fps, ns); err != nil {
		t.Fatal(err)
	}
	res, err := e.Compact(context.Background(), 0.99) // everything below 99% live is rewritten
	if err != nil {
		t.Fatal(err)
	}
	if res.Retired == 0 {
		t.Fatal("compaction retired nothing")
	}
	dead := int64(16 * 4096)
	if got := before - e.StorageUsage(); got < dead {
		t.Fatalf("reclaimed %d bytes, want >= %d (the dead share)", got, dead)
	}
	if gc := e.GCStats(); gc.DeadBytes != 0 {
		t.Fatalf("DeadBytes after compaction = %d, want 0", gc.DeadBytes)
	}
	// The doomed chunks are gone; the survivors restore byte-identically.
	for _, ch := range doomed.Chunks {
		if _, err := e.ReadChunk(ch.FP); err == nil {
			t.Fatal("deleted chunk still readable after compaction")
		}
	}
	for i, ch := range survivor.Chunks {
		got, err := e.ReadChunk(ch.FP)
		if err != nil {
			t.Fatalf("survivor chunk %d: %v", i, err)
		}
		if !bytes.Equal(got, ch.Data) {
			t.Fatalf("survivor chunk %d corrupted by compaction", i)
		}
	}
	// On disk: only files for containers the manager still tracks.
	files, err := filepath.Glob(filepath.Join(dir, "container-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != e.Manager().NumSealed() {
		t.Fatalf("%d container files on disk, manager tracks %d", len(files), e.Manager().NumSealed())
	}
}

// TestCompactMixedContainerCopiesSurvivors: one container holding both
// live and dead chunks is rewritten, not just dropped.
func TestCompactMixedContainerCopiesSurvivors(t *testing.T) {
	e, err := New(Config{Dir: t.TempDir(), KeepPayloads: true, ContainerCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	sc := makeSC(rng, 16, true) // one container, one stream
	if _, err := e.StoreSuperChunk("s", sc); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	// Delete the first 12 chunks; 4 survive.
	fps, ns := aggregateRefs(sc.Chunks[:12])
	if err := e.DecRef(fps, ns); err != nil {
		t.Fatal(err)
	}
	res, err := e.Compact(context.Background(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rewritten != 1 || res.CopiedBytes != int64(4*4096) {
		t.Fatalf("compaction rewrote %d containers / copied %d bytes, want 1 / %d",
			res.Rewritten, res.CopiedBytes, 4*4096)
	}
	for i, ch := range sc.Chunks[12:] {
		got, err := e.ReadChunk(ch.FP)
		if err != nil || !bytes.Equal(got, ch.Data) {
			t.Fatalf("survivor %d lost in rewrite: %v", i, err)
		}
	}
}

// TestGCSurvivesReopen: refcounts, dead bytes and compaction results all
// persist across a close/open cycle.
func TestGCSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, KeepPayloads: true, ContainerCapacity: 32 << 10}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	doomed := makeSC(rng, 16, true)
	survivor := makeSC(rng, 16, true)
	if _, err := e.StoreSuperChunk("doomed", doomed); err != nil {
		t.Fatal(err)
	}
	if _, err := e.StoreSuperChunk("survivor", survivor); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	fps, ns := refsOf(doomed)
	if err := e.DecRef(fps, ns); err != nil {
		t.Fatal(err)
	}
	deadBefore := e.GCStats().DeadBytes
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := reopen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.GCStats().DeadBytes; got != deadBefore {
		t.Fatalf("recovered DeadBytes = %d, want %d", got, deadBefore)
	}
	if got := r.RefCount(survivor.Chunks[0].FP); got != 1 {
		t.Fatalf("recovered RefCount = %d, want 1", got)
	}
	if got := r.RefCount(doomed.Chunks[0].FP); got != 0 {
		t.Fatalf("recovered RefCount of deleted chunk = %d, want 0", got)
	}
	if _, err := r.Compact(context.Background(), 0.99); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// And once more: the retire records replay cleanly.
	r2, err := reopen(cfg)
	if err != nil {
		t.Fatalf("open after compaction: %v", err)
	}
	defer r2.Close()
	for i, ch := range survivor.Chunks {
		got, err := r2.ReadChunk(ch.FP)
		if err != nil || !bytes.Equal(got, ch.Data) {
			t.Fatalf("survivor %d lost across compaction+reopen: %v", i, err)
		}
	}
	if gc := r2.GCStats(); gc.DeadBytes != 0 {
		t.Fatalf("DeadBytes after compaction+reopen = %d, want 0", gc.DeadBytes)
	}
}

// TestCompactCrashAtEveryStage injects a fault at each compaction stage,
// abandons the engine (simulated crash: no Close, no manifest flush),
// reopens the directory and asserts the surviving backup restores
// byte-identically — the store recovers to the old or the new container,
// never neither — and that a follow-up compaction converges.
func TestCompactCrashAtEveryStage(t *testing.T) {
	for _, stage := range []CompactStage{StageCopied, StageSealed, StageIndexed, StageRetired} {
		t.Run(string(stage), func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Dir: dir, KeepPayloads: true, ContainerCapacity: 1 << 20}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(45))
			sc := makeSC(rng, 16, true)
			if _, err := e.StoreSuperChunk("s", sc); err != nil {
				t.Fatal(err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			fps, ns := aggregateRefs(sc.Chunks[:12])
			if err := e.DecRef(fps, ns); err != nil {
				t.Fatal(err)
			}

			boom := errors.New("injected crash")
			e.SetCompactFault(func(s CompactStage, cid uint64) error {
				if s == stage {
					return boom
				}
				return nil
			})
			if _, err := e.Compact(context.Background(), 0.5); !errors.Is(err, boom) {
				t.Fatalf("Compact error = %v, want injected crash", err)
			}
			// Crash: abandon e without Close.

			r, err := reopen(cfg)
			if err != nil {
				t.Fatalf("open after crash at %s: %v", stage, err)
			}
			for i, ch := range sc.Chunks[12:] {
				got, err := r.ReadChunk(ch.FP)
				if err != nil {
					t.Fatalf("crash at %s: survivor %d unreadable: %v", stage, i, err)
				}
				if !bytes.Equal(got, ch.Data) {
					t.Fatalf("crash at %s: survivor %d corrupted", stage, i)
				}
			}
			// The next compaction converges: afterwards no dead bytes
			// remain and survivors still read back.
			if _, err := r.Compact(context.Background(), 0.99); err != nil {
				t.Fatal(err)
			}
			if gc := r.GCStats(); gc.DeadBytes != 0 {
				t.Fatalf("crash at %s: DeadBytes = %d after converging compaction", stage, gc.DeadBytes)
			}
			for i, ch := range sc.Chunks[12:] {
				got, err := r.ReadChunk(ch.FP)
				if err != nil || !bytes.Equal(got, ch.Data) {
					t.Fatalf("crash at %s: survivor %d lost after converging compaction: %v", stage, i, err)
				}
			}
			r.Close()
		})
	}
}

// TestOpenRejectsUnknownManifestRecords is the regression suite for
// unknown-record handling: a retire of a container the journal never
// sealed, a decref of chunk references the store never held, and a
// record of an unknown type must each fail the open loudly; so must a
// damaged record that a whole record follows (ErrCorrupt), while a torn
// final record stays tolerated.
func TestOpenRejectsUnknownManifestRecords(t *testing.T) {
	newStore := func(t *testing.T) (string, Config) {
		t.Helper()
		dir := t.TempDir()
		cfg := Config{Dir: dir, KeepPayloads: true}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(46))
		if _, err := e.StoreSuperChunk("s", makeSC(rng, 4, true)); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, cfg
	}
	decref := func(fp fingerprint.Fingerprint, n int64) []byte {
		return frameRecord(func(b []byte) []byte {
			return appendEntries(b, recDecref, []fingerprint.Fingerprint{fp}, []int64{n})
		})
	}
	retire := func(cid uint64) []byte {
		return frameRecord(func(b []byte) []byte { return appendRetire(b, cid) })
	}

	t.Run("retire of unsealed container", func(t *testing.T) {
		dir, cfg := newStore(t)
		appendManifest(t, dir, retire(99))
		if _, err := reopen(cfg); err == nil {
			t.Fatal("Open must reject a retire record for a container the journal never sealed")
		}
	})
	t.Run("decref of unknown chunk", func(t *testing.T) {
		dir, cfg := newStore(t)
		appendManifest(t, dir, decref(fingerprint.Sum([]byte("never stored")), 1))
		if _, err := reopen(cfg); err == nil {
			t.Fatal("Open must reject a decref record for chunk references the store never held")
		}
	})
	t.Run("over-decref of known chunk", func(t *testing.T) {
		dir, cfg := newStore(t)
		// Rebuild the same first chunk fingerprint the store holds once.
		rng := rand.New(rand.NewSource(46))
		sc := makeSC(rng, 4, true)
		appendManifest(t, dir, decref(sc.Chunks[0].FP, 2))
		if _, err := reopen(cfg); err == nil {
			t.Fatal("Open must reject a decref that drops more references than the journal granted")
		}
	})
	t.Run("unknown record type", func(t *testing.T) {
		dir, cfg := newStore(t)
		appendManifest(t, dir, frameRecord(func(b []byte) []byte { return append(b, 0x7f, 1) }))
		if _, err := reopen(cfg); err == nil {
			t.Fatal("Open must reject a record of unknown type")
		}
	})
	t.Run("torn unknown tail still tolerated", func(t *testing.T) {
		dir, cfg := newStore(t)
		rec := retire(99)
		appendManifest(t, dir, rec[:len(rec)-1])
		r, err := reopen(cfg)
		if err != nil {
			t.Fatalf("torn tail must stay tolerated: %v", err)
		}
		r.Close()
	})
	t.Run("damaged record before a whole one", func(t *testing.T) {
		dir, cfg := newStore(t)
		rng := rand.New(rand.NewSource(46))
		sc := makeSC(rng, 4, true)
		// The first of two records loses a bit of its body: the open must
		// fail on the damage, not cut the log there as if it were torn.
		first := decref(sc.Chunks[1].FP, 1)
		first[len(first)-1] ^= 0x40
		appendManifest(t, dir, append(first, decref(sc.Chunks[2].FP, 1)...))
		_, err := reopen(cfg)
		if !errors.Is(err, sderr.ErrCorrupt) {
			t.Fatalf("Open over a damaged non-final record: err = %v, want ErrCorrupt", err)
		}
	})
}

// TestCompactUnderConcurrentIngest runs compaction scans while streams
// keep storing: no verdict may be lost, every live chunk must stay
// readable. Run with -race this is the GC concurrency audit.
func TestCompactUnderConcurrentIngest(t *testing.T) {
	e, err := New(Config{Dir: t.TempDir(), KeepPayloads: true, ContainerCapacity: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const streams = 4
	var ingest sync.WaitGroup
	keep := make([][]*core.SuperChunk, streams)
	errs := make(chan error, streams+1)
	for s := 0; s < streams; s++ {
		ingest.Add(1)
		go func(s int) {
			defer ingest.Done()
			rng := rand.New(rand.NewSource(int64(47 + s)))
			stream := fmt.Sprintf("s%d", s)
			for i := 0; i < 8; i++ {
				sc := makeSC(rng, 8, true)
				if _, err := e.StoreSuperChunk(stream, sc); err != nil {
					errs <- err
					return
				}
				if i%2 == 0 {
					keep[s] = append(keep[s], sc)
					continue
				}
				// Delete the odd generations immediately.
				if err := e.Flush(); err != nil {
					errs <- err
					return
				}
				fps, ns := aggregateRefs(sc.Chunks)
				if err := e.DecRef(fps, ns); err != nil {
					errs <- err
					return
				}
			}
		}(s)
	}
	// Concurrent compaction pressure until ingest finishes.
	stop := make(chan struct{})
	var compactor sync.WaitGroup
	compactor.Add(1)
	go func() {
		defer compactor.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.Compact(context.Background(), 0.75); err != nil {
				errs <- err
				return
			}
		}
	}()
	ingest.Wait()
	close(stop)
	compactor.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Compact(context.Background(), 0.99); err != nil {
		t.Fatal(err)
	}
	for s := range keep {
		for _, sc := range keep[s] {
			for i, ch := range sc.Chunks {
				got, err := e.ReadChunk(ch.FP)
				if err != nil {
					t.Fatalf("stream %d live chunk %d unreadable after concurrent compaction: %v", s, i, err)
				}
				if !bytes.Equal(got, ch.Data) {
					t.Fatalf("stream %d live chunk %d corrupted", s, i)
				}
			}
		}
	}
}

// TestCompactResurrectionRace is the regression test for the
// resurrection/retire race: a chunk judged dead by the compactor is
// re-stored before the container is retired. Because the compactor drops
// the dead chunk-index entry under the shard lock at verdict time, the
// racing store must append a fresh copy — the chunk must remain readable
// after the old container's file is gone. (The StageCopied fault hook
// runs the racing store deterministically in the window between verdict
// and retire.)
func TestCompactResurrectionRace(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, KeepPayloads: true, ContainerCapacity: 1 << 20}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(50))
	sc := makeSC(rng, 8, true)
	if _, err := e.StoreSuperChunk("s", sc); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	fps, ns := aggregateRefs(sc.Chunks)
	if err := e.DecRef(fps, ns); err != nil {
		t.Fatal(err)
	}

	var raceErr error
	raced := false
	e.SetCompactFault(func(stage CompactStage, cid uint64) error {
		if stage == StageCopied && !raced {
			raced = true
			// The race: the dead chunks come back between the compactor's
			// verdict and the container's retire.
			_, raceErr = e.StoreSuperChunk("racer", cloneSC(sc))
		}
		return nil
	})
	if _, err := e.Compact(context.Background(), 0.99); err != nil {
		t.Fatal(err)
	}
	if !raced {
		t.Fatal("fault hook never fired; race not exercised")
	}
	if raceErr != nil {
		t.Fatalf("racing store failed: %v", raceErr)
	}
	// Seal the racing backup's fresh container (reads serve sealed
	// containers only).
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	// Every chunk the racing backup references must be readable even
	// though the container holding the original copies was retired.
	for i, ch := range sc.Chunks {
		got, err := e.ReadChunk(ch.FP)
		if err != nil {
			t.Fatalf("resurrected chunk %d lost to the retire: %v", i, err)
		}
		if !bytes.Equal(got, ch.Data) {
			t.Fatalf("resurrected chunk %d corrupted", i)
		}
	}
}

// TestCompactSkipsPayloadlessContainers: a durable metadata-only engine
// (trace mode) cannot move survivors; mixed containers are counted as
// skipped — not a scan-aborting error — while fully-dead containers
// still retire.
func TestCompactSkipsPayloadlessContainers(t *testing.T) {
	dir := t.TempDir()
	e, err := New(Config{Dir: dir, ContainerCapacity: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(51))
	mixed := makeSC(rng, 8, false)    // one container on stream a
	fullDead := makeSC(rng, 8, false) // one container on stream b
	if _, err := e.StoreSuperChunk("a", mixed); err != nil {
		t.Fatal(err)
	}
	if _, err := e.StoreSuperChunk("b", fullDead); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	// Kill most of the mixed container and all of the other.
	fps, ns := aggregateRefs(mixed.Chunks[:6])
	if err := e.DecRef(fps, ns); err != nil {
		t.Fatal(err)
	}
	fps, ns = aggregateRefs(fullDead.Chunks)
	if err := e.DecRef(fps, ns); err != nil {
		t.Fatal(err)
	}
	res, err := e.Compact(context.Background(), 0.99)
	if err != nil {
		t.Fatalf("payload-less compaction must skip, not fail: %v", err)
	}
	if res.SkippedNoPayload != 1 {
		t.Fatalf("SkippedNoPayload = %d, want 1 (the mixed container)", res.SkippedNoPayload)
	}
	if res.Retired != 1 {
		t.Fatalf("Retired = %d, want 1 (the fully-dead container)", res.Retired)
	}
}

// TestOpenMigratesLegacyManifest: a durable directory written before
// refcounting existed (seal/rfp records only) must open with every
// stored chunk treated as live — seeded with one reference, journaled so
// the migration happens once — and compaction must not touch it.
func TestOpenMigratesLegacyManifest(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, KeepPayloads: true, ContainerCapacity: 32 << 10}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(52))
	sc := makeSC(rng, 16, true)
	if _, err := e.StoreSuperChunk("s", sc); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Rewrite the manifest as the oldest format of all: JSON lines (the
	// format before the record log) without a single ref record (the
	// format before refcounting). Open converts the one and seeds the
	// other.
	m, recs, err := openManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	m.close()
	var legacy []byte
	list := func(n int, item func(i int) string) string {
		q := make([]string, n)
		for i := range q {
			q[i] = item(i)
		}
		return strings.Join(q, ",")
	}
	for _, r := range recs {
		switch r.kind {
		case recSeal:
			legacy = fmt.Appendf(legacy, `{"t":"seal","cid":%d,"file":%q,"chunks":%d,"bytes":%d,"crc":%d}`+"\n",
				r.cid, r.file, r.chunks, r.bytes, r.crc)
		case recRFP:
			legacy = fmt.Appendf(legacy, `{"t":"rfp","fps":[%s],"cids":[%s]}`+"\n",
				list(len(r.fps), func(i int) string { return strconv.Quote(r.fps[i].String()) }),
				list(len(r.vals), func(i int) string { return strconv.FormatUint(r.vals[i], 10) }))
		}
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := reopen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gc := r.GCStats(); gc.DeadBytes != 0 {
		t.Fatalf("legacy store opened with %d dead bytes; compaction would delete pre-upgrade data", gc.DeadBytes)
	}
	if got := r.RefCount(sc.Chunks[0].FP); got != 1 {
		t.Fatalf("legacy chunk seeded with %d references, want 1", got)
	}
	if res, err := r.Compact(context.Background(), 0.99); err != nil || res.Retired != 0 {
		t.Fatalf("compaction of a freshly migrated store retired %d containers (err %v), want 0", res.Retired, err)
	}
	for i, ch := range sc.Chunks {
		got, err := r.ReadChunk(ch.FP)
		if err != nil || !bytes.Equal(got, ch.Data) {
			t.Fatalf("legacy chunk %d unreadable after migration: %v", i, err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// The migration journaled the seeded refs: a second open replays them
	// as ordinary records and deletion works normally from here on.
	r2, err := reopen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.RefCount(sc.Chunks[0].FP); got != 1 {
		t.Fatalf("post-migration reopen RefCount = %d, want 1 (no double seed)", got)
	}
	fps, ns := aggregateRefs(sc.Chunks)
	if err := r2.DecRef(fps, ns); err != nil {
		t.Fatalf("decref of migrated references: %v", err)
	}
	if res, err := r2.Compact(context.Background(), 0.99); err != nil || res.Retired == 0 {
		t.Fatalf("compaction after migrated deletion retired %d (err %v), want > 0", res.Retired, err)
	}
}

// TestBackgroundCompactorRunsUnderReclaimLabel: the background
// compaction loop runs under phase=reclaim, as the cluster's compaction
// fan-out does, so a node's profile shows where compaction spent.
func TestBackgroundCompactorRunsUnderReclaimLabel(t *testing.T) {
	e, err := New(Config{CompactEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			t.Fatal(err)
		}
		for _, rec := range strings.Split(buf.String(), "\n\n") {
			if strings.Contains(rec, "store.(*Engine).startCompactor.func") && strings.Contains(rec, `# labels: {"phase":"reclaim"}`) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no compactor goroutine under phase=reclaim:\n%s", buf.String())
		}
	}
}
