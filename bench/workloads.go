package main

import (
	"crypto/sha256"
	"fmt"
	"strings"

	"sigmadedupe"
	"sigmadedupe/internal/workload"
)

// spec describes one workload: a deployment, the data it ingests and the
// reason it exists. Sizes are chosen so one repetition of the lifecycle
// takes one to three seconds on the 2-core sandbox; -quick divides them
// by 32 for the smoke test.
type spec struct {
	name string
	why  string

	// Deployment.
	sim         bool // in-process simulator (NewCluster) instead of the prototype
	nodes       int
	unixSockets bool
	disk        bool // durable nodes + durable director, restart before restore
	readCache   int64
	chunk       sigmadedupe.ChunkSpec
	fingerprint sigmadedupe.FingerprintAlgorithm

	// build generates the workload's data from a seed.
	build func(seed int64, quick bool) (*dataset, error)
}

// dataset is one workload's generated input. Items are block-seed lists
// (workload.Item): equal seeds are byte-identical blocks, so the exact
// unique live bytes behind space_amp are a set count over seeds.
type dataset struct {
	// streams partitions the items over concurrent backup streams; each
	// stream ingests its items in order, the first seedItems[s] of them
	// during setup.
	streams   [][]workload.Item
	seedItems []int
	// restore lists the items restored in the timed restore phase;
	// deleteFirst the items deleted in the reclaim phase; newest the item
	// restored after compaction.
	restore     []workload.Item
	deleteFirst []workload.Item
	newest      workload.Item
	// resident workloads keep every item's payload in memory (concurrent
	// streams must never wait for the generator); the others rewrite one
	// image buffer in place between backups.
	resident map[string][]byte

	digests map[string][32]byte // SHA-256 of every item that is restored
}

// all returns every item in stream order.
func (d *dataset) all() []workload.Item {
	var out []workload.Item
	for _, s := range d.streams {
		out = append(out, s...)
	}
	return out
}

// bounds returns, per stream, index 0 and the item count: with seedItems
// they delimit the seed portion and the timed ingest.
func (d *dataset) bounds() (zero, ends []int) {
	zero, ends = make([]int, len(d.streams)), make([]int, len(d.streams))
	for s, items := range d.streams {
		ends[s] = len(items)
	}
	return zero, ends
}

// maxRestoreSize is the size of the largest item any phase restores.
func (d *dataset) maxRestoreSize() int64 {
	n := d.newest.Size()
	for _, it := range d.restore {
		n = max(n, it.Size())
	}
	return n
}

// timedBytes is the logical size of the timed ingest.
func (d *dataset) timedBytes() int64 {
	var n int64
	for s, items := range d.streams {
		n += workload.TotalBytes(items[d.seedItems[s]:])
	}
	return n
}

// liveUniqueBytes is the exact unique payload of every item not in
// deleted — what a perfect deduplicator would hold after the reclaim.
func (d *dataset) liveUniqueBytes(deleted []workload.Item) int64 {
	gone := make(map[string]bool, len(deleted))
	for _, it := range deleted {
		gone[it.Name] = true
	}
	var live []workload.Item
	for _, it := range d.all() {
		if !gone[it.Name] {
			live = append(live, it)
		}
	}
	return int64(workload.UniqueBlocks(live)) * workload.BlockSize
}

// fill writes it's payload into buf (grown as needed) and returns it. When
// buf already holds prev's payload only the blocks that differ are
// regenerated, which makes a 2 %-churn generation nearly free to produce.
func fill(buf []byte, it workload.Item, prev *workload.Item) []byte {
	n := len(it.Blocks) * workload.BlockSize
	if cap(buf) < n {
		buf, prev = make([]byte, n), nil
	}
	buf = buf[:n]
	for i, s := range it.Blocks {
		if prev != nil && i < len(prev.Blocks) && prev.Blocks[i] == s {
			continue
		}
		workload.FillBlock(s, buf[i*workload.BlockSize:(i+1)*workload.BlockSize])
	}
	return buf
}

// finish computes the digests of the restored items (and the resident
// payloads when wanted) once per run; repetitions reuse them.
func (d *dataset) finish(resident bool) {
	d.digests = make(map[string][32]byte)
	want := map[string]bool{d.newest.Name: true}
	for _, it := range d.restore {
		want[it.Name] = true
	}
	if resident {
		d.resident = make(map[string][]byte)
	}
	for _, s := range d.streams {
		var buf []byte
		var prev *workload.Item
		for i := range s {
			it := s[i]
			if resident {
				buf, prev = nil, nil
			}
			buf = fill(buf, it, prev)
			prev = &s[i]
			if want[it.Name] {
				d.digests[it.Name] = sha256.Sum256(buf)
			}
			if resident {
				d.resident[it.Name] = buf
			}
		}
	}
}

func scaled(n int, quick bool) int {
	if quick {
		return max(1, n/32)
	}
	return n
}

// uniqueSeeds hands out block seeds no other item of the run uses. The
// tag keeps them apart from the workload package's own generators.
type uniqueSeeds struct{ next uint64 }

func (u *uniqueSeeds) item(name string, blocks int) workload.Item {
	it := workload.Item{Name: name, Blocks: make([]uint64, blocks)}
	for i := range it.Blocks {
		u.next++
		it.Blocks[i] = 0xB<<56 | u.next
	}
	return it
}

func buildUniqueCDC(seed int64, quick bool) (*dataset, error) {
	const streams, itemsPerStream = 2, 9
	blocks := scaled(16<<20, quick) / workload.BlockSize
	u := &uniqueSeeds{next: uint64(seed) << 32}
	d := &dataset{seedItems: []int{1, 1}}
	for s := 0; s < streams; s++ {
		var items []workload.Item
		for i := 0; i < itemsPerStream; i++ {
			items = append(items, u.item(fmt.Sprintf("s%d/item%02d", s, i), blocks))
		}
		d.streams = append(d.streams, items)
		d.restore = append(d.restore, items[itemsPerStream/2:]...)
		d.deleteFirst = append(d.deleteFirst, items[:itemsPerStream/2]...)
	}
	d.newest = d.streams[0][itemsPerStream-1]
	d.finish(true)
	return d, nil
}

func buildIncremental(seed int64, quick bool) (*dataset, error) {
	const generations = 16
	a := workload.NewAging(workload.AgingConfig{
		Seed:         seed,
		Blocks:       scaled(32<<20, quick) / workload.BlockSize,
		ChurnPercent: 0.02,
	})
	items := make([]workload.Item, generations)
	for g := range items {
		items[g] = a.Next()
	}
	d := &dataset{
		streams:     [][]workload.Item{items},
		seedItems:   []int{1},
		restore:     items,
		deleteFirst: items[:generations/2],
		newest:      items[generations-1],
	}
	d.finish(false)
	return d, nil
}

func buildSimScaleout(seed int64, quick bool) (*dataset, error) {
	scale := 0.5
	if quick {
		scale = 0.01 // ByName floors the tree at 20 files
	}
	g, err := workload.ByName("linux", scale, seed)
	if err != nil {
		return nil, err
	}
	files, err := workload.Collect(g)
	if err != nil {
		return nil, err
	}
	// Version v of the tree is every file named "v<v>/...". The two
	// streams split each version by file parity, so each carries its own
	// lineage of files and the dedup outcome does not depend on how the
	// scheduler interleaves them.
	const versions, seedVersions = 64, 8
	version := func(it workload.Item) int {
		var v int
		fmt.Sscanf(it.Name, "v%d/", &v)
		return v
	}
	d := &dataset{streams: make([][]workload.Item, 2)}
	perVersion := make([]int, versions)
	for _, it := range files {
		v := version(it)
		s := perVersion[v] % 2
		perVersion[v]++
		d.streams[s] = append(d.streams[s], it)
		switch {
		case v < versions/2:
			d.deleteFirst = append(d.deleteFirst, it)
		default:
			d.restore = append(d.restore, it)
		}
		if v == versions-1 {
			d.newest = it
		}
	}
	// Seed portion: versions 0..7. Streams differ in file count per
	// version, so the seed boundary is located per stream.
	for s := range d.streams {
		n := 0
		for _, it := range d.streams[s] {
			if version(it) < seedVersions {
				n++
			}
		}
		d.seedItems = append(d.seedItems, n)
	}
	if len(d.restore) == 0 || !strings.HasPrefix(d.newest.Name, fmt.Sprintf("v%d/", versions-1)) {
		return nil, fmt.Errorf("sim-scaleout: generator produced no last version")
	}
	d.finish(true)
	return d, nil
}

// workloads are the benchmark's four workloads, in reporting order.
var workloads = []*spec{
	{
		name:        "unique-cdc",
		why:         "Never-repeating bytes, FastCDC+SHA-256 over TCP: chunker, hash, wire payload, container append and restore copy do all the work; index and routing changes must show nothing here.",
		nodes:       4,
		chunk:       sigmadedupe.ChunkSpec{Method: sigmadedupe.ChunkFastCDC, Size: 8192},
		fingerprint: sigmadedupe.FingerprintSHA256,
		build:       buildUniqueCDC,
	},
	{
		name:  "incremental-ram",
		why:   "2%-churn generations of one image over unix sockets into RAM nodes: 98% duplicates, so fingerprinting, bids, Query and the node lookup chain do the work; payload-path changes predict no change.",
		nodes: 4, unixSockets: true,
		chunk:       sigmadedupe.ChunkSpec{Method: sigmadedupe.ChunkFixed, Size: 4096},
		fingerprint: sigmadedupe.FingerprintSHA1,
		build:       buildIncremental,
	},
	{
		name:  "incremental-disk",
		why:   "Same data on durable nodes, read cache smaller than the restore working set, restart before restore: fsync, spill, cold batched reads, real compaction; the delta to incremental-ram is durability.",
		nodes: 4, unixSockets: true, disk: true, readCache: 2 << 20,
		chunk:       sigmadedupe.ChunkSpec{Method: sigmadedupe.ChunkFixed, Size: 4096},
		fingerprint: sigmadedupe.FingerprintSHA1,
		build:       buildIncremental,
	},
	{
		name: "sim-scaleout",
		why:  "64-node simulator fed a versioned tree of small files by 2 sessions: the only place wide routing and the small-file Backup path run; chunk, hash and wire gains predict little change.",
		sim:  true, nodes: 64,
		chunk:       sigmadedupe.ChunkSpec{Method: sigmadedupe.ChunkFixed, Size: 4096},
		fingerprint: sigmadedupe.FingerprintSHA1,
		build:       buildSimScaleout,
	},
}
