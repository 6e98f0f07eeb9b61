package store

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"sigmadedupe/internal/container"
	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/wire"
)

// makeSC builds a super-chunk from n random 4KB chunks.
func makeSC(rng *rand.Rand, n int, keep bool) *core.SuperChunk {
	sc := &core.SuperChunk{}
	for i := 0; i < n; i++ {
		data := make([]byte, 4096)
		rng.Read(data)
		ref := core.ChunkRef{FP: fingerprint.Sum(data), Size: len(data)}
		if keep {
			ref.Data = data
		}
		sc.Chunks = append(sc.Chunks, ref)
	}
	return sc
}

// reopen recovers an engine from cfg.Dir (New with Recover set).
func reopen(cfg Config) (*Engine, error) {
	cfg.Recover = true
	return New(cfg)
}

func cloneSC(sc *core.SuperChunk) *core.SuperChunk {
	out := &core.SuperChunk{FileID: sc.FileID}
	out.Chunks = append(out.Chunks, sc.Chunks...)
	return out
}

// TestSameNewChunkRace is the two-streams-race-on-a-new-chunk case the
// old node-wide store lock papered over: many streams concurrently store
// the same brand-new content. Exactly one copy of every chunk must land;
// the losers must take duplicate verdicts via the shard-serialized
// chunk-index lookup.
func TestSameNewChunkRace(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const chunks, streams, rounds = 64, 8, 5
	sc := makeSC(rng, chunks, false)

	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			stream := fmt.Sprintf("stream%d", s)
			for r := 0; r < rounds; r++ {
				if _, err := e.StoreSuperChunk(stream, cloneSC(sc)); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()

	st := e.Stats()
	if st.UniqueChunks != chunks {
		t.Fatalf("UniqueChunks = %d, want %d (no double-store of a raced new chunk)", st.UniqueChunks, chunks)
	}
	if st.PhysicalBytes != chunks*4096 {
		t.Fatalf("PhysicalBytes = %d, want %d", st.PhysicalBytes, chunks*4096)
	}
	if st.LogicalBytes != int64(chunks*4096*streams*rounds) {
		t.Fatalf("LogicalBytes = %d, want %d", st.LogicalBytes, chunks*4096*streams*rounds)
	}
}

// TestParallelDistinctStreams stores disjoint data from many streams
// concurrently and checks nothing is lost or double-counted.
func TestParallelDistinctStreams(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	const streams, scs, chunks = 8, 6, 16
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + s)))
			stream := fmt.Sprintf("stream%d", s)
			for i := 0; i < scs; i++ {
				if _, err := e.StoreSuperChunk(stream, makeSC(rng, chunks, false)); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	st := e.Stats()
	want := int64(streams * scs * chunks)
	if st.UniqueChunks != want {
		t.Fatalf("UniqueChunks = %d, want %d", st.UniqueChunks, want)
	}
	if st.PhysicalBytes != want*4096 {
		t.Fatalf("PhysicalBytes = %d, want %d", st.PhysicalBytes, want*4096)
	}
}

// TestDurableOpenRoundTrip closes a durable engine and re-opens it:
// every chunk must restore byte-identically, the similarity index must
// answer routing bids again, and a re-store of the same content must
// dedupe against the recovered state.
func TestDurableOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, KeepPayloads: true, ContainerCapacity: 64 << 10}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var stored []*core.SuperChunk
	for i := 0; i < 4; i++ {
		sc := makeSC(rng, 24, true)
		stored = append(stored, sc)
		if _, err := e.StoreSuperChunk("s", sc); err != nil {
			t.Fatal(err)
		}
	}
	hp := stored[0].Handprint(cfg.withDefaults().HandprintSize)
	before := e.Stats()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := reopen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st := r.Stats()
	if st.PhysicalBytes != before.PhysicalBytes {
		t.Fatalf("recovered PhysicalBytes = %d, want %d", st.PhysicalBytes, before.PhysicalBytes)
	}
	if st.UniqueChunks != before.UniqueChunks {
		t.Fatalf("recovered UniqueChunks = %d, want %d", st.UniqueChunks, before.UniqueChunks)
	}
	if got := r.CountHandprintMatches(hp); got == 0 {
		t.Fatal("similarity index empty after recovery; routing bids would all be zero")
	}
	for i, sc := range stored {
		for j, ch := range sc.Chunks {
			got, err := r.ReadChunk(ch.FP)
			if err != nil {
				t.Fatalf("sc %d chunk %d: %v", i, j, err)
			}
			if !bytes.Equal(got, ch.Data) {
				t.Fatalf("sc %d chunk %d corrupted after recovery", i, j)
			}
		}
	}
	res, err := r.StoreSuperChunk("s2", cloneSC(stored[1]))
	if err != nil {
		t.Fatal(err)
	}
	if res.UniqueChunks != 0 {
		t.Fatalf("re-store after recovery stored %d chunks; recovered indexes missed them", res.UniqueChunks)
	}
}

// TestRecoveredEngineContinues stores more data after a recovery and
// recovers again: container IDs must not collide and everything stays
// readable.
func TestRecoveredEngineContinues(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, KeepPayloads: true, ContainerCapacity: 32 << 10}
	rng := rand.New(rand.NewSource(3))

	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen1 := makeSC(rng, 16, true)
	if _, err := e.StoreSuperChunk("s", gen1); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r1, err := reopen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen2 := makeSC(rng, 16, true)
	if _, err := r1.StoreSuperChunk("s", gen2); err != nil {
		t.Fatal(err)
	}
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := reopen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	for _, sc := range []*core.SuperChunk{gen1, gen2} {
		for j, ch := range sc.Chunks {
			got, err := r2.ReadChunk(ch.FP)
			if err != nil {
				t.Fatalf("chunk %d: %v", j, err)
			}
			if !bytes.Equal(got, ch.Data) {
				t.Fatalf("chunk %d corrupted across two recoveries", j)
			}
		}
	}
	if st := r2.Stats(); st.UniqueChunks != 32 {
		t.Fatalf("UniqueChunks = %d, want 32", st.UniqueChunks)
	}
}

// TestOpenDetectsCorruption flips a byte in a sealed container file; Open
// must fail with container.ErrCorrupt, not silently restore bad data.
func TestOpenDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, KeepPayloads: true}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	if _, err := e.StoreSuperChunk("s", makeSC(rng, 8, true)); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, container.FileName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reopen(cfg); !errors.Is(err, container.ErrCorrupt) {
		t.Fatalf("Open on corrupted container: err = %v, want ErrCorrupt", err)
	}
}

// TestOpenToleratesTornManifestTail emulates a crash mid-append: a
// partial final manifest record must be ignored, not fail the open.
func TestOpenToleratesTornManifestTail(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, KeepPayloads: true}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	sc := makeSC(rng, 8, true)
	if _, err := e.StoreSuperChunk("s", sc); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	seal := frameRecord(func(b []byte) []byte {
		return appendSeal(b, container.SealRecord{CID: 99, File: "container-00000099.bin", Chunks: 1, Bytes: 1})
	})
	appendManifest(t, dir, seal[:len(seal)-5])

	r, err := reopen(cfg)
	if err != nil {
		t.Fatalf("Open with torn manifest tail: %v", err)
	}
	defer r.Close()
	if got, err := r.ReadChunk(sc.Chunks[0].FP); err != nil || !bytes.Equal(got, sc.Chunks[0].Data) {
		t.Fatalf("chunk unreadable after torn-tail recovery: %v", err)
	}
}

// TestOpenEmptyDirIsFresh: recovery of a directory without a manifest
// yields a working empty engine (first boot of a durable node).
func TestOpenEmptyDirIsFresh(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), KeepPayloads: true}
	e, err := reopen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if st := e.Stats(); st.PhysicalBytes != 0 {
		t.Fatalf("fresh open has PhysicalBytes = %d", st.PhysicalBytes)
	}
	rng := rand.New(rand.NewSource(6))
	if _, err := e.StoreSuperChunk("s", makeSC(rng, 4, true)); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRequiresDir: recovery without a durable directory is an error.
func TestOpenRequiresDir(t *testing.T) {
	if _, err := New(Config{Recover: true}); err == nil {
		t.Fatal("Recover without Dir should fail")
	}
}

// TestUnsealedDataNotRecovered: chunks still in open containers at crash
// time (no Flush) are not durable; recovery must come back consistent
// without them rather than half-recovered.
func TestUnsealedDataNotRecovered(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, KeepPayloads: true}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	sc := makeSC(rng, 8, true)
	if _, err := e.StoreSuperChunk("s", sc); err != nil {
		t.Fatal(err)
	}
	// Simulated crash: no Flush, no Close. The manifest holds rfp records
	// pointing at a container that was never sealed.
	r, err := reopen(cfg)
	if err != nil {
		t.Fatalf("Open after crash with unsealed container: %v", err)
	}
	defer r.Close()
	if st := r.Stats(); st.UniqueChunks != 0 {
		t.Fatalf("recovered %d chunks from an unsealed container", st.UniqueChunks)
	}
	if _, err := r.ReadChunk(sc.Chunks[0].FP); err == nil {
		t.Fatal("unsealed chunk should not be readable after crash recovery")
	}
}

// TestNewRefusesExistingDurableState: restarting without Recover must not
// silently overwrite the previous session's containers.
func TestNewRefusesExistingDurableState(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, KeepPayloads: true}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	if _, err := e.StoreSuperChunk("s", makeSC(rng, 4, true)); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("New over existing durable state should be refused (would overwrite containers)")
	}
	r, err := reopen(cfg)
	if err != nil {
		t.Fatalf("Open over the same state: %v", err)
	}
	r.Close()
}

// TestOpenDetectsSubstitutedContainer: a self-consistent container file
// that is not the one the manifest committed (CRC cross-check) must fail
// recovery.
func TestOpenDetectsSubstitutedContainer(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, KeepPayloads: true}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	if _, err := e.StoreSuperChunk("s", makeSC(rng, 4, true)); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Forge a different, internally valid container with the same ID and
	// swap it in: self-CRC passes, the journaled CRC must not.
	data := make([]byte, 512)
	rng.Read(data)
	forged := &container.Container{ID: 1, Meta: []container.ChunkMeta{
		{FP: fingerprint.Sum(data), Offset: 0, Length: 512},
	}, Data: data}
	if err := os.WriteFile(filepath.Join(dir, container.FileName(1)), container.Encode(forged), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reopen(cfg); !errors.Is(err, container.ErrCorrupt) {
		t.Fatalf("Open with substituted container: err = %v, want ErrCorrupt", err)
	}
}

// frameRecord frames one manifest record encoded by enc.
func frameRecord(enc func(b []byte) []byte) []byte {
	b := enc(wire.BeginRecord(nil))
	wire.EndRecord(b, 0)
	return b
}

// appendManifest appends raw bytes to the manifest under dir.
func appendManifest(t *testing.T, dir string, raw []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, ManifestName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(raw); err != nil {
		t.Fatal(err)
	}
}

// TestManifestRecordGolden pins one framed encoding per manifest record
// type, and decodes each body back.
func TestManifestRecordGolden(t *testing.T) {
	fp := fingerprint.Sum([]byte("golden"))
	fps := []fingerprint.Fingerprint{fp}
	seal := container.SealRecord{CID: 7, File: "container-00000007.bin", Chunks: 128, Bytes: 4 << 20, CRC: 0xdeadbeef}
	for _, tc := range []struct {
		want string
		enc  func(b []byte) []byte
		rec  record
	}{
		{"26000000ad9ed8cd010716000000636f6e7461696e65722d30303030303030372e62696e800180808002efbeadde", func(b []byte) []byte { return appendSeal(b, seal) },
			record{kind: recSeal, cid: 7, file: seal.File, chunks: 128, bytes: 4 << 20, crc: 0xdeadbeef}},
		{"1700000015d61e170201ec30adc79e734900430e4174cf0a36c2d0c4227207", func(b []byte) []byte { return appendEntries(b, recRFP, fps, []uint64{7}) },
			record{kind: recRFP, fps: fps, vals: []uint64{7}}},
		{"18000000575e0a010301ec30adc79e734900430e4174cf0a36c2d0c42272ac02", func(b []byte) []byte { return appendEntries(b, recRef, fps, []int64{300}) },
			record{kind: recRef, fps: fps, vals: []uint64{300}}},
		{"170000009c67bb080401ec30adc79e734900430e4174cf0a36c2d0c4227201", func(b []byte) []byte { return appendEntries(b, recDecref, fps, []int64{1}) },
			record{kind: recDecref, fps: fps, vals: []uint64{1}}},
		{"0200000092ea83780507", func(b []byte) []byte { return appendRetire(b, 7) }, record{kind: recRetire, cid: 7}},
	} {
		frame := frameRecord(tc.enc)
		if got := hex.EncodeToString(frame); got != tc.want {
			t.Errorf("record type %d: encoding %s, want %s (manifest format changed)", tc.rec.kind, got, tc.want)
		}
		// The body follows the 8-byte frame header (length, CRC).
		if got, err := decodeRecord(frame[8:]); err != nil || !reflect.DeepEqual(got, tc.rec) {
			t.Errorf("record type %d decodes to %+v, %v; want %+v", tc.rec.kind, got, err, tc.rec)
		}
	}
}

// TestSummaryFirstBidsEqualCountMatches: a bid answered from the bid
// summary first scores exactly what walking the similarity index does,
// for handprints mixing stored and never-stored representatives, while
// another goroutine keeps inserting (and regrowing the summary).
func TestSummaryFirstBidsEqualCountMatches(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	randFP := func() fingerprint.Fingerprint {
		var b [16]byte
		rng.Read(b[:])
		return fingerprint.Sum(b[:])
	}
	stored := make([]fingerprint.Fingerprint, 3000)
	for i := range stored {
		stored[i] = randFP()
		e.sim.Insert(stored[i], uint64(i))
	}
	absent := make([]fingerprint.Fingerprint, 3000)
	for i := range absent {
		absent[i] = randFP()
	}
	late := make([]fingerprint.Fingerprint, 20000) // crosses two summary doublings
	for i := range late {
		late[i] = randFP()
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, fp := range late {
			e.sim.Insert(fp, uint64(i))
		}
	}()
	zero := 0
	for round := 0; round < 4000; round++ {
		hp := make(core.Handprint, 8)
		for j := range hp {
			if rng.Intn(4) == 0 {
				hp[j] = stored[rng.Intn(len(stored))]
			} else {
				hp[j] = absent[rng.Intn(len(absent))]
			}
		}
		got, want := e.CountHandprintMatches(hp), e.sim.CountMatches(hp)
		if got != want {
			t.Fatalf("round %d: summary-first bid %d, index walk %d", round, got, want)
		}
		if got == 0 {
			zero++
		}
	}
	<-done
	if zero == 0 {
		t.Fatal("no zero bid in 4000 rounds: the summary's short cut never ran")
	}
	for _, fp := range late {
		if got := e.CountHandprintMatches(core.Handprint{fp}); got != 1 {
			t.Fatal("an inserted representative bids zero after its Insert returned")
		}
	}
}
