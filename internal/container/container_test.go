package container

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"sigmadedupe/internal/fingerprint"
)

func chunk(rng *rand.Rand, n int) ([]byte, fingerprint.Fingerprint) {
	b := make([]byte, n)
	rng.Read(b)
	return b, fingerprint.Sum(b)
}

func TestAppendAndRead(t *testing.T) {
	m, err := NewManager(WithCapacity(1<<16), WithPayloads())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	data, fp := chunk(rng, 4096)
	loc, err := m.Append("s1", fp, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Seal("s1"); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadChunk(loc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read chunk differs from written chunk")
	}
}

func TestAutoSealOnCapacity(t *testing.T) {
	m, _ := NewManager(WithCapacity(10000), WithPayloads())
	rng := rand.New(rand.NewSource(2))
	var locs []Loc
	for i := 0; i < 5; i++ { // 5 x 4KB > 10KB capacity
		data, fp := chunk(rng, 4096)
		loc, err := m.Append("s1", fp, data, 0)
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, loc)
	}
	if err := m.SealAll(); err != nil {
		t.Fatal(err)
	}
	if m.NumSealed() < 2 {
		t.Fatalf("NumSealed = %d, want >= 2 (capacity forces rollover)", m.NumSealed())
	}
	// Two chunks fit per container.
	if locs[0].CID == locs[2].CID {
		t.Fatal("third chunk should be in a new container")
	}
}

func TestPerStreamContainers(t *testing.T) {
	m, _ := NewManager(WithCapacity(1 << 20))
	rng := rand.New(rand.NewSource(3))
	_, fp1 := chunk(rng, 100)
	_, fp2 := chunk(rng, 100)
	l1, _ := m.Append("a", fp1, nil, 100)
	l2, _ := m.Append("b", fp2, nil, 100)
	if l1.CID == l2.CID {
		t.Fatal("streams must not share an open container")
	}
}

func TestMetadataOnlyMode(t *testing.T) {
	m, _ := NewManager(WithCapacity(1 << 20))
	fp := fingerprint.Sum([]byte("x"))
	loc, err := m.Append("s", fp, nil, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if loc.Length != 4096 {
		t.Fatalf("Length = %d, want 4096", loc.Length)
	}
	if err := m.Seal("s"); err != nil {
		t.Fatal(err)
	}
	c, err := m.Get(loc.CID)
	if err != nil {
		t.Fatal(err)
	}
	if c.Data != nil {
		t.Fatal("metadata-only container should have nil Data")
	}
	if c.Bytes() != 4096 {
		t.Fatalf("Bytes = %d, want 4096", c.Bytes())
	}
	if _, err := m.ReadChunk(loc); err == nil {
		t.Fatal("ReadChunk should fail in metadata-only mode")
	}
}

func TestAppendValidation(t *testing.T) {
	m, _ := NewManager(WithCapacity(1000))
	fp := fingerprint.Sum([]byte("x"))
	if _, err := m.Append("s", fp, nil, 0); err == nil {
		t.Fatal("zero-size append should fail")
	}
	if _, err := m.Append("s", fp, nil, 2000); err == nil {
		t.Fatal("oversized append should fail")
	}
	if _, err := NewManager(WithCapacity(-1)); err == nil {
		t.Fatal("negative capacity should fail")
	}
}

func TestGetUnknown(t *testing.T) {
	m, _ := NewManager()
	if _, err := m.Get(999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(999) err = %v, want ErrNotFound", err)
	}
	if _, err := m.Metadata(999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Metadata(999) err = %v, want ErrNotFound", err)
	}
}

func TestSealIdleStreamNoop(t *testing.T) {
	m, _ := NewManager()
	if err := m.Seal("nothing"); err != nil {
		t.Fatal(err)
	}
	if m.NumSealed() != 0 {
		t.Fatal("sealing idle stream created a container")
	}
}

func TestFingerprintsOrder(t *testing.T) {
	m, _ := NewManager(WithCapacity(1 << 20))
	rng := rand.New(rand.NewSource(4))
	var want []fingerprint.Fingerprint
	var cid uint64
	for i := 0; i < 10; i++ {
		_, fp := chunk(rng, 64)
		loc, _ := m.Append("s", fp, nil, 64)
		cid = loc.CID
		want = append(want, fp)
	}
	m.Seal("s")
	c, err := m.Get(cid)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Meta) != len(want) {
		t.Fatalf("got %d fingerprints, want %d", len(c.Meta), len(want))
	}
	for i := range want {
		if c.Meta[i].FP != want[i] {
			t.Fatalf("fingerprint %d out of order", i)
		}
	}
}

func TestIOCounters(t *testing.T) {
	m, _ := NewManager(WithCapacity(1 << 20))
	fp := fingerprint.Sum([]byte("io"))
	loc, _ := m.Append("s", fp, nil, 128)
	m.Seal("s")
	m.Get(loc.CID)
	m.Get(loc.CID)
	m.Metadata(loc.CID)
	reads, writes, stored := m.Stats()
	if reads != 3 {
		t.Fatalf("readIOs = %d, want 3", reads)
	}
	if writes != 1 {
		t.Fatalf("writeIOs = %d, want 1", writes)
	}
	if stored != 128 {
		t.Fatalf("storedBytes = %d, want 128", stored)
	}
}

func TestDiskSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(WithCapacity(8192), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	type stored struct {
		loc  Loc
		data []byte
	}
	var all []stored
	for i := 0; i < 6; i++ {
		data, fp := chunk(rng, 3000)
		loc, err := m.Append("s", fp, data, 0)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, stored{loc, data})
	}
	if err := m.SealAll(); err != nil {
		t.Fatal(err)
	}
	for i, s := range all {
		got, err := m.ReadChunk(s.loc)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if !bytes.Equal(got, s.data) {
			t.Fatalf("chunk %d corrupted after disk round trip", i)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := decodeContainer([]byte("short")); err == nil {
		t.Fatal("short input should fail")
	}
	bad := make([]byte, 24)
	copy(bad, "XXXX")
	if _, err := decodeContainer(bad); err == nil {
		t.Fatal("bad magic should fail")
	}
	truncated := make([]byte, 20)
	copy(truncated, "SDC1")
	truncated[15] = 4 // claims 4 meta entries with no bytes
	if _, err := decodeContainer(truncated); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated header: err = %v, want ErrCorrupt", err)
	}

	// A well-formed container truncated mid-body: size mismatch.
	c := &Container{ID: 7, Meta: []ChunkMeta{{FP: fingerprint.Sum([]byte("a")), Offset: 0, Length: 3}}}
	c.Data = []byte("abc")
	good := Encode(c)
	if _, err := decodeContainer(good[:len(good)-6]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated body: err = %v, want ErrCorrupt", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := &Container{ID: 42}
	off := uint32(0)
	for i := 0; i < 5; i++ {
		data, fp := chunk(rng, 300+i)
		c.Meta = append(c.Meta, ChunkMeta{FP: fp, Offset: off, Length: uint32(len(data))})
		c.Data = append(c.Data, data...)
		off += uint32(len(data))
	}
	c.bytes = len(c.Data)
	got, err := decodeContainer(Encode(c))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 42 || got.Len() != 5 || !bytes.Equal(got.Data, c.Data) || got.Bytes() != c.bytes {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestDecodeDetectsCRCCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	data, fp := chunk(rng, 1024)
	c := &Container{ID: 9, Meta: []ChunkMeta{{FP: fp, Offset: 0, Length: 1024}}, Data: data, bytes: 1024}
	raw := Encode(c)
	for _, pos := range []int{5, 30, len(raw) / 2, len(raw) - 2} {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0x01
		if _, err := decodeContainer(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: err = %v, want ErrCorrupt", pos, err)
		}
	}
}

func TestMetadataOnlySpillRoundTrip(t *testing.T) {
	// Metadata-only containers spill without payload; the decoded logical
	// size must come from the chunk lengths.
	m, err := NewManager(WithCapacity(1<<16), WithDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	// WithDir forces keepData, so emulate metadata-only refs (nil data).
	fp := fingerprint.Sum([]byte("meta-only"))
	loc, err := m.Append("s", fp, nil, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SealAll(); err != nil {
		t.Fatal(err)
	}
	c, err := m.Get(loc.CID)
	if err != nil {
		t.Fatal(err)
	}
	if c.Bytes() != 2048 {
		t.Fatalf("Bytes after metadata-only spill round trip = %d, want 2048", c.Bytes())
	}
}

// TestReadRegionCache verifies ReadChunk stops re-reading a spilled
// container file on every call: a miss admits the read-ahead region, a
// repeat serves from cache, and the byte budget evicts LRU regions.
func TestReadRegionCache(t *testing.T) {
	// Budget holds exactly two 4KB containers' worth of regions.
	m, err := NewManager(WithCapacity(4096), WithDir(t.TempDir()), WithReadCache(8192))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	var locs []Loc
	var datas [][]byte
	for i := 0; i < 3; i++ {
		data, fp := chunk(rng, 4096)
		loc, err := m.Append("s", fp, data, 0)
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, loc)
		datas = append(datas, data)
	}
	if err := m.SealAll(); err != nil {
		t.Fatal(err)
	}
	read := func(i int) {
		t.Helper()
		got, err := m.ReadChunk(locs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, datas[i]) {
			t.Fatalf("chunk %d differs after region-cache read", i)
		}
	}
	for i := 0; i < 5; i++ {
		read(0)
	}
	if got := m.DiskLoads(); got != 1 {
		t.Fatalf("DiskLoads after 5 reads of one chunk = %d, want 1 (region retained)", got)
	}
	st := m.ReadCacheStats()
	if st.Hits != 4 || st.Misses != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 4/1", st.Hits, st.Misses)
	}
	// Fill the budget with the second container, then overflow it with
	// the third: the least recently used region (container 0) evicts and
	// re-reading it misses again.
	read(1)
	read(2)
	read(0)
	st = m.ReadCacheStats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions after exceeding the byte budget: %+v", st)
	}
	if got := m.DiskLoads(); got != 4 {
		t.Fatalf("DiskLoads after eviction churn = %d, want 4", got)
	}
	if st.UsedBytes > st.Budget {
		t.Fatalf("cache used %d bytes over budget %d", st.UsedBytes, st.Budget)
	}
}

// TestReadChunksCoalesce: a batched read of many chunks from one spilled
// container coalesces into a single sequential disk read, and a repeat
// batch is served entirely from the region cache.
func TestReadChunksCoalesce(t *testing.T) {
	m, err := NewManager(WithCapacity(1<<16), WithDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	var locs []Loc
	var datas [][]byte
	for i := 0; i < 8; i++ {
		data, fp := chunk(rng, 3000)
		loc, err := m.Append("s", fp, data, 0)
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, loc)
		datas = append(datas, data)
	}
	if err := m.SealAll(); err != nil {
		t.Fatal(err)
	}
	// Want every other chunk: the 3000-byte holes are far below readGapMax,
	// so the batch must still coalesce into one disk read.
	want := []Loc{locs[0], locs[2], locs[4], locs[6]}
	got, err := m.ReadChunks(want[0].CID, want)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range []int{0, 2, 4, 6} {
		if !bytes.Equal(got[i], datas[j]) {
			t.Fatalf("batched chunk %d differs", j)
		}
	}
	if dl := m.DiskLoads(); dl != 1 {
		t.Fatalf("DiskLoads after one batch = %d, want 1 (coalesced run)", dl)
	}
	// The admitted run covers the holes too, so the in-between chunks are
	// cache hits — no further disk reads. (Chunk 7 lies past the first
	// run's end and would miss, so it is not part of this batch.)
	rest := []Loc{locs[1], locs[3], locs[5]}
	got, err = m.ReadChunks(rest[0].CID, rest)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range []int{1, 3, 5} {
		if !bytes.Equal(got[i], datas[j]) {
			t.Fatalf("batched chunk %d differs", j)
		}
	}
	if dl := m.DiskLoads(); dl != 1 {
		t.Fatalf("DiskLoads after cached batch = %d, want 1", dl)
	}
	if _, err := m.ReadChunks(locs[0].CID, []Loc{locs[2], locs[0]}); err == nil {
		t.Fatal("unsorted batch locations should fail")
	}
}

// TestReadChunksReadsWantedPlusBridgedGaps: a batched read takes from
// the spill file exactly the wanted bytes plus the holes of at most
// readGapMax it bridges — one positioned read per run — and a repeat of
// the batch reads nothing.
func TestReadChunksReadsWantedPlusBridgedGaps(t *testing.T) {
	m, err := NewManager(WithCapacity(1<<20), WithDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	var want []Loc
	var datas [][]byte
	add := func(n int) (Loc, []byte) {
		data, fp := chunk(rng, n)
		loc, err := m.Append("s", fp, data, 0)
		if err != nil {
			t.Fatal(err)
		}
		return loc, data
	}
	wantBytes, bridged, runs := 0, 0, 1
	for i, gap := range []int{0, 1000, readGapMax, readGapMax + 1, 3 * readGapMax, 0, 4096} {
		if i > 0 && gap > 0 {
			add(gap) // a dead chunk exactly gap bytes long
			if gap <= readGapMax {
				bridged += gap
			} else {
				runs++
			}
		}
		loc, data := add(2000 + rng.Intn(4000))
		want, datas = append(want, loc), append(datas, data)
		wantBytes += len(data)
	}
	if err := m.SealAll(); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		got, err := m.ReadChunks(want[0].CID, want)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !bytes.Equal(got[i], datas[i]) {
				t.Fatalf("pass %d: chunk %d differs", pass, i)
			}
		}
		if st := m.ReadCacheStats(); st.ReadBytes != uint64(wantBytes+bridged) || m.DiskLoads() != uint64(runs) {
			t.Fatalf("pass %d: read %d bytes in %d reads, want %d wanted + %d bridged in %d",
				pass, st.ReadBytes, m.DiskLoads(), wantBytes, bridged, runs)
		}
	}
}

// TestGetUncached: Get is the compactor's non-caching read path — full
// loads never populate the region cache and re-read the file every time.
func TestGetUncached(t *testing.T) {
	m, err := NewManager(WithCapacity(4096), WithDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	data, fp := chunk(rng, 4096)
	loc, err := m.Append("s", fp, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SealAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c, err := m.Get(loc.CID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.Data, data) {
			t.Fatal("Get payload differs")
		}
	}
	if dl := m.DiskLoads(); dl != 3 {
		t.Fatalf("DiskLoads after 3 Gets = %d, want 3 (uncached)", dl)
	}
	if st := m.ReadCacheStats(); st.UsedBytes != 0 {
		t.Fatalf("Get populated the region cache: %+v", st)
	}
}

// TestMetadataOpenContainerByCID: open-container metadata is found via
// the CID index (no linear scan) and reflects in-flight appends.
func TestMetadataOpenContainerByCID(t *testing.T) {
	m, _ := NewManager(WithCapacity(1 << 20))
	rng := rand.New(rand.NewSource(14))
	var cid uint64
	for i := 0; i < 3; i++ {
		_, fp := chunk(rng, 64)
		loc, err := m.Append("s", fp, nil, 64)
		if err != nil {
			t.Fatal(err)
		}
		cid = loc.CID
	}
	meta, err := m.Metadata(cid)
	if err != nil {
		t.Fatal(err)
	}
	if len(meta) != 3 {
		t.Fatalf("open-container metadata entries = %d, want 3", len(meta))
	}
	reads, _, _ := m.Stats()
	if reads != 0 {
		t.Fatalf("open-container metadata charged %d read IOs, want 0", reads)
	}
}

// TestFingerprintsFrom: the prefetch view of a container from a position
// on — free for an open container, one read I/O for a sealed one unless
// nothing is past the position, not found for an unknown one.
func TestFingerprintsFrom(t *testing.T) {
	m, _ := NewManager(WithCapacity(1 << 20))
	rng := rand.New(rand.NewSource(15))
	var want []fingerprint.Fingerprint
	var cid uint64
	for i := 0; i < 5; i++ {
		_, fp := chunk(rng, 64)
		loc, err := m.Append("s", fp, nil, 64)
		if err != nil {
			t.Fatal(err)
		}
		want, cid = append(want, fp), loc.CID
	}
	for _, sealed := range []bool{false, true} {
		if sealed {
			m.Seal("s")
		}
		for from := 0; from <= 6; from++ {
			got, err := m.FingerprintsFrom(cid, from)
			if err != nil {
				t.Fatal(err)
			}
			if tail := want[min(from, len(want)):]; !slices.Equal(got, tail) {
				t.Fatalf("sealed=%v from %d: %d fingerprints, want %d", sealed, from, len(got), len(tail))
			}
		}
	}
	if reads, _, _ := m.Stats(); reads != 5 {
		t.Fatalf("read IOs = %d, want 5 (the sealed reads that returned fingerprints)", reads)
	}
	if _, err := m.FingerprintsFrom(999, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown container: %v, want ErrNotFound", err)
	}
}

// TestSealHook: the hook fires once per seal with a durable record.
func TestSealHook(t *testing.T) {
	var mu sync.Mutex
	var recs []SealRecord
	dir := t.TempDir()
	m, err := NewManager(WithCapacity(4096), WithDir(dir), WithSealHook(func(r SealRecord) error {
		mu.Lock()
		recs = append(recs, r)
		mu.Unlock()
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 3; i++ { // 3 x 4KB at 4KB capacity = 2 auto-seals
		data, fp := chunk(rng, 4096)
		if _, err := m.Append("s", fp, data, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.SealAll(); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("seal hook fired %d times, want 3", len(recs))
	}
	for _, r := range recs {
		if r.File == "" || r.CRC == 0 || r.Chunks != 1 || r.Bytes != 4096 {
			t.Fatalf("bad seal record: %+v", r)
		}
		if _, err := os.Stat(filepath.Join(dir, r.File)); err != nil {
			t.Fatalf("seal record names missing file: %v", err)
		}
	}
}

func TestConcurrentAppend(t *testing.T) {
	m, _ := NewManager(WithCapacity(1 << 16))
	var wg sync.WaitGroup
	const streams, perStream = 8, 200
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			name := string(rune('a' + s))
			for i := 0; i < perStream; i++ {
				_, fp := chunk(rng, 512)
				if _, err := m.Append(name, fp, nil, 512); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if err := m.SealAll(); err != nil {
		t.Fatal(err)
	}
	if got := m.StoredBytes(); got != streams*perStream*512 {
		t.Fatalf("StoredBytes = %d, want %d", got, streams*perStream*512)
	}
}

// TestReadOpenContainer: ReadChunk and ReadChunks serve a container that
// is still open, in memory and in a spilling manager alike, and what
// they returned stays intact while the container grows and seals.
func TestReadOpenContainer(t *testing.T) {
	for _, opt := range []Option{WithPayloads(), WithDir(t.TempDir())} {
		m, err := NewManager(WithCapacity(1<<16), opt)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(15))
		var datas [][]byte
		var locs []Loc
		for i := 0; i < 4; i++ {
			data, fp := chunk(rng, 4096)
			loc, err := m.Append("s", fp, data, 0)
			if err != nil {
				t.Fatal(err)
			}
			datas, locs = append(datas, data), append(locs, loc)
		}
		one, err := m.ReadChunk(locs[1])
		if err != nil || !bytes.Equal(one, datas[1]) {
			t.Fatalf("ReadChunk of an open container: %v, equal %v", err, bytes.Equal(one, datas[1]))
		}
		all, err := m.ReadChunks(locs[0].CID, locs)
		if err != nil {
			t.Fatalf("ReadChunks of an open container: %v", err)
		}
		for i := 0; i < 8; i++ { // grow the container, then seal it
			data, fp := chunk(rng, 4096)
			if _, err := m.Append("s", fp, data, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Seal("s"); err != nil {
			t.Fatal(err)
		}
		for i, got := range all {
			if !bytes.Equal(got, datas[i]) {
				t.Fatalf("chunk %d read while open changed after appends and the seal", i)
			}
		}
		if !bytes.Equal(one, datas[1]) {
			t.Fatal("ReadChunk's result changed after appends and the seal")
		}
	}
}
