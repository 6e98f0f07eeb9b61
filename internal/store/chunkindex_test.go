package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sigmadedupe/internal/bloom"
	"sigmadedupe/internal/container"
	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
)

func indexFPs(seed int64, n int) []fingerprint.Fingerprint {
	rng := rand.New(rand.NewSource(seed))
	out := make([]fingerprint.Fingerprint, n)
	var b [16]byte
	for i := range out {
		rng.Read(b[:])
		out[i] = fingerprint.Sum(b[:])
	}
	return out
}

func TestChunkIndexInsertLookup(t *testing.T) {
	x := newChunkIndex()
	fps := indexFPs(1, 100)
	for i, fp := range fps {
		x.insert(fp, container.Loc{CID: uint64(i), Offset: 8, Length: 16})
	}
	for i, fp := range fps {
		loc, ok := x.lookup(fp)
		if !ok || loc.CID != uint64(i) {
			t.Fatalf("lookup %d = (%+v,%v)", i, loc, ok)
		}
	}
	if len(x.m) != 100 {
		t.Fatalf("len = %d, want 100", len(x.m))
	}
}

func TestChunkIndexBloomShortCircuit(t *testing.T) {
	x := newChunkIndex()
	for i, fp := range indexFPs(2, 1000) {
		x.insert(fp, container.Loc{CID: uint64(i)})
	}
	// Probe absent fingerprints: the vast majority must be screened by
	// the Bloom filter without a disk read.
	for _, fp := range indexFPs(99, 2000) {
		x.lookup(fp)
	}
	diskReads, bloomSkips, falsePos := x.stats()
	if bloomSkips < 1900 {
		t.Fatalf("bloomSkips = %d, want most of 2000 absent probes screened", bloomSkips)
	}
	if diskReads != falsePos {
		t.Fatalf("all disk reads on absent probes should be false positives: reads=%d fp=%d", diskReads, falsePos)
	}
}

func TestChunkIndexDiskReadChargedOnHit(t *testing.T) {
	x := newChunkIndex()
	fp := fingerprint.Sum([]byte("present"))
	x.insert(fp, container.Loc{CID: 5})
	x.lookup(fp)
	diskReads, _, falsePos := x.stats()
	if diskReads != 1 {
		t.Fatalf("diskReads = %d, want 1", diskReads)
	}
	if falsePos != 0 {
		t.Fatalf("falsePos = %d, want 0", falsePos)
	}
}

// TestChunkIndexLocateSkipsBloom: locate answers from the table alone — an entry
// the filter never learned is still found, which Lookup's probe would
// have screened out — and charges one disk read per call, hit or miss,
// without counting a Bloom skip or false positive.
func TestChunkIndexLocateSkipsBloom(t *testing.T) {
	x := newChunkIndex()
	fp := fingerprint.Sum([]byte("stored"))
	x.m[fp] = container.Loc{CID: 9}
	if _, ok := x.lookup(fp); ok {
		t.Fatal("lookup found a key its Bloom filter never learned")
	}
	if loc, ok := x.locate(fp); !ok || loc.CID != 9 {
		t.Fatalf("locate = (%+v,%v), want container 9", loc, ok)
	}
	if _, ok := x.locate(fingerprint.Sum([]byte("collected"))); ok {
		t.Fatal("locate found an absent key")
	}
	diskReads, bloomSkips, falsePos := x.stats()
	if diskReads != 2 || bloomSkips != 1 || falsePos != 0 {
		t.Fatalf("reads/skips/false positives = %d/%d/%d, want 2/1/0 (only lookup probes the filter)",
			diskReads, bloomSkips, falsePos)
	}
}

func TestChunkIndexConcurrent(t *testing.T) {
	x := newChunkIndex()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fps := indexFPs(int64(w), 300)
			for i, fp := range fps {
				x.insert(fp, container.Loc{CID: uint64(i)})
			}
			for _, fp := range fps {
				if _, ok := x.lookup(fp); !ok {
					t.Error("lost insert")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if len(x.m) != 8*300 {
		t.Fatalf("len = %d, want 2400", len(x.m))
	}
}

// TestChunkIndexFilterGrowsWithoutFalseNegatives: the filter starts at
// bloom.DefaultSummaryCapacity and doubles as the map grows. Concurrent
// writers insert past at least three doublings while looking up every
// key they inserted, and a reader probes keys nobody inserts; no stored
// key may ever be screened out.
func TestChunkIndexFilterGrowsWithoutFalseNegatives(t *testing.T) {
	x := newChunkIndex()
	const writers, perWriter = 8, 3000 // 24K keys: 4096 → 32768
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		absent := indexFPs(1<<20, 512)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, ok := x.lookup(absent[i%len(absent)]); ok {
				t.Error("lookup found a key nobody inserted")
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fps := indexFPs(int64(100+w), perWriter)
			for i, fp := range fps {
				x.insert(fp, container.Loc{CID: uint64(i)})
				for j := i; j >= 0 && j > i-4; j-- {
					if _, ok := x.lookup(fps[j]); !ok {
						t.Errorf("writer %d: key %d lost after %d inserts", w, j, i+1)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
	if got := x.filter.Rebuilds(); got < 3 {
		t.Fatalf("filter rebuilt %d times over %d keys, want >= 3", got, writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i, fp := range indexFPs(int64(100+w), perWriter) {
			if !x.filter.MayContain(fp) {
				t.Fatalf("writer %d key %d: false negative after growth", w, i)
			}
		}
	}
}

// TestChunkIndexFilterRefill: at each doubling the filter is refilled
// from the map — its key count equals the map's, deleted keys are gone
// from it, and the measured false-positive rate stays within 2 %, both
// just after the doubling and at the fill that triggers the next one.
func TestChunkIndexFilterRefill(t *testing.T) {
	x := newChunkIndex()
	probes := indexFPs(7777, 20000)
	fpRate := func() float64 {
		n := 0
		for _, fp := range probes {
			if x.filter.MayContain(fp) {
				n++
			}
		}
		return float64(n) / float64(len(probes))
	}
	keys := indexFPs(8, 40000)
	var deleted []fingerprint.Fingerprint
	doublings := 0
	for i, fp := range keys {
		if x.filter.Inserts() == uint64(x.filter.Capacity()) {
			if r := fpRate(); r > 0.02 {
				t.Fatalf("false-positive rate %.4f at capacity %d, want <= 0.02", r, x.filter.Capacity())
			}
		}
		before := x.filter.Rebuilds()
		x.insert(fp, container.Loc{CID: uint64(i)})
		if x.filter.Rebuilds() == before {
			// Every 10th key is collected again before the next doubling.
			if i%10 == 0 {
				x.delete(fp)
				deleted = append(deleted, fp)
			}
			continue
		}
		doublings++
		if got, want := x.filter.Inserts(), uint64(len(x.m)); got != want {
			t.Fatalf("doubling %d: filter holds %d keys, map %d", doublings, got, want)
		}
		if r := fpRate(); r > 0.02 {
			t.Fatalf("false-positive rate %.4f after doubling %d, want <= 0.02", r, doublings)
		}
		forgotten := 0
		for _, d := range deleted {
			if !x.filter.MayContain(d) {
				forgotten++
			}
		}
		if len(deleted) > 0 && forgotten < len(deleted)*9/10 {
			t.Fatalf("doubling %d forgot %d of %d deleted keys", doublings, forgotten, len(deleted))
		}
		deleted = deleted[:0]
	}
	if doublings < 3 {
		t.Fatalf("%d doublings over %d keys, want >= 3", doublings, len(keys))
	}
}

// TestOpenSizesChunkIndexByReplay: a recovered index's filter is sized by
// the chunks it replayed — the smallest doubling that holds them — not
// by a capacity fixed in advance.
func TestOpenSizesChunkIndexByReplay(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), KeepPayloads: true}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 5000 // one doubling past bloom.DefaultSummaryCapacity
	for s := 0; s < chunks/250; s++ {
		sc := &core.SuperChunk{}
		for i := 0; i < 250; i++ {
			data := []byte(fmt.Sprintf("chunk %d of super-chunk %d", i, s))
			sc.Chunks = append(sc.Chunks, core.ChunkRef{FP: fingerprint.Sum(data), Size: len(data), Data: data})
		}
		if _, err := e.StoreSuperChunk("s", sc); err != nil {
			t.Fatal(err)
		}
	}
	fresh := e.cidx.filter.Capacity()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := reopen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n, c := len(r.cidx.m), r.cidx.filter.Capacity()
	if n != chunks || c < n || c >= 2*n || c != fresh {
		t.Fatalf("recovered %d chunks into a %d-key filter (fresh engine: %d), want %d chunks, capacity in [n, 2n)",
			n, c, fresh, chunks)
	}
}

// FuzzChunkIndex drives random insert / delete / lookup interleavings
// over a small key space against a model map, from a filter small enough
// that the run crosses several doublings: lookups must agree with the
// model, a stored key must never be screened out, and every refill must
// leave the filter holding exactly the map's keys.
func FuzzChunkIndex(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 1, 1, 1, 2, 1})
	f.Add(bytes.Repeat([]byte{0, 7, 0, 9, 1, 7, 2, 7, 2, 9}, 40))
	seq := make([]byte, 0, 1024)
	for i := 0; i < 512; i++ {
		seq = append(seq, byte(i%5), byte(i*37))
	}
	f.Add(seq)
	keys := indexFPs(31, 256)
	f.Fuzz(func(t *testing.T, ops []byte) {
		x := newChunkIndex()
		g, err := bloom.NewGrowable(8, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		x.filter = g
		model := make(map[fingerprint.Fingerprint]container.Loc)
		for i := 0; i+1 < len(ops); i += 2 {
			fp := keys[ops[i+1]]
			switch ops[i] % 5 {
			case 0, 1: // insert twice as often as the rest: the index must grow
				loc := container.Loc{CID: uint64(i)}
				rebuilds := x.filter.Rebuilds()
				x.insert(fp, loc)
				model[fp] = loc
				if x.filter.Rebuilds() != rebuilds && x.filter.Inserts() != uint64(len(x.m)) {
					t.Fatalf("op %d: refill left %d keys in the filter, %d in the map", i/2, x.filter.Inserts(), len(x.m))
				}
			case 2:
				x.delete(fp)
				delete(model, fp)
			default:
				loc, ok := x.lookup(fp)
				want, wantOK := model[fp]
				if ok != wantOK || loc != want {
					t.Fatalf("op %d: lookup = (%+v,%v), model (%+v,%v)", i/2, loc, ok, want, wantOK)
				}
			}
		}
		if len(x.m) != len(model) {
			t.Fatalf("index holds %d keys, model %d", len(x.m), len(model))
		}
		for fp := range model {
			if !x.filter.MayContain(fp) {
				t.Fatal("stored key screened out by the filter")
			}
		}
	})
}
