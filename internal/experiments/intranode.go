package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sigmadedupe/internal/chunker"
	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/metrics"
	"sigmadedupe/internal/simindex"
	"sigmadedupe/internal/store"
	"sigmadedupe/internal/workload"
)

// fig1 reproduces the handprint resemblance-detection experiment (§2.2,
// Fig. 1): four pair-wise "files" of differing true similarity are TTTD-
// chunked, and the sketch estimate is compared with the real Jaccard
// resemblance as the handprint size grows from 1 to 128.
func fig1(opts Options) (*Table, error) {
	// Super-chunk material: 8MB per file, as in the paper. Pairs are
	// built by swapping a controlled fraction of blocks, targeting the
	// similarity classes the paper's file pairs exhibit.
	pairs := []struct {
		name string
		swap float64 // fraction of blocks replaced in the second copy
	}{
		{"Linux-2.6.7-vs-2.6.8", 0.06},
		{"DOC-versions", 0.30},
		{"PPT-versions", 0.50},
		{"HTML-versions", 0.65},
	}
	sizes := []int{1, 2, 4, 8, 16, 32, 64, 128}
	if opts.Quick {
		sizes = []int{1, 8, 64}
	}
	const fileBlocks = (8 << 20) / workload.BlockSize

	t := &Table{
		Name:  "fig1",
		Title: "Estimated vs real resemblance as a function of handprint size (TTTD chunking)",
		Headers: append([]string{"pair", "real"}, func() []string {
			h := make([]string, len(sizes))
			for i, k := range sizes {
				h[i] = fmt.Sprintf("k=%d", k)
			}
			return h
		}()...),
	}

	for pi, pair := range pairs {
		seedBase := int64(1000 * (pi + 1))
		blocksA := make([]uint64, fileBlocks)
		for i := range blocksA {
			blocksA[i] = uint64(seedBase) + uint64(i)
		}
		blocksB := make([]uint64, fileBlocks)
		copy(blocksB, blocksA)
		// Replace a contiguous region of B (an edited section), keeping
		// the damage localized so chunk-level resemblance tracks the
		// block-level replacement fraction.
		replaced := int(float64(fileBlocks) * pair.swap)
		for i := 0; i < replaced; i++ {
			blocksB[i] = uint64(seedBase) + uint64(fileBlocks+i)
		}

		fpsOf := func(blocks []uint64) ([]fingerprint.Fingerprint, error) {
			data := workload.Materialize(workload.Item{Blocks: blocks})
			tc, err := chunker.NewTTTD(bytes.NewReader(data), chunker.DefaultTTTDConfig())
			if err != nil {
				return nil, err
			}
			chunks, err := chunker.SplitAll(tc)
			if err != nil {
				return nil, err
			}
			out := make([]fingerprint.Fingerprint, len(chunks))
			for i, ch := range chunks {
				out[i] = fingerprint.Sum(ch.Data)
			}
			return out, nil
		}
		fa, err := fpsOf(blocksA)
		if err != nil {
			return nil, err
		}
		fb, err := fpsOf(blocksB)
		if err != nil {
			return nil, err
		}
		real := core.Resemblance(fa, fb)
		row := []string{pair.name, f3(real)}
		for _, k := range sizes {
			row = append(row, f3(core.EstimateResemblance(fa, fb, k)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"estimate approaches the real resemblance as handprint size grows; k in [4,64] is the paper's reasonable band")
	return t, nil
}

// fig4a reproduces the client-side throughput experiment (Fig. 4a):
// Rabin-CDC chunking, SHA-1 and MD5 fingerprinting throughput as a
// function of the number of parallel data streams.
func fig4a(opts Options) (*Table, error) {
	streams := []int{1, 2, 4, 8, 16}
	if opts.Quick {
		streams = []int{1, 4}
	}
	perStream := int(16 * (1 << 20) * opts.scale()) // bytes hashed per stream
	if opts.Quick {
		perStream = 4 << 20
	}

	data := make([]byte, perStream)
	workload.FillBlock(7, data[:workload.BlockSize])
	for off := workload.BlockSize; off < len(data); off *= 2 {
		copy(data[off:], data[:off])
	}

	t := &Table{
		Name:    "fig4a",
		Title:   "Chunking and fingerprinting throughput (MB/s) vs number of data streams",
		Headers: []string{"streams", "CDC(MB/s)", "SHA1(MB/s)", "MD5(MB/s)"},
		Notes: []string{
			fmt.Sprintf("host has %d usable CPUs; curves saturate at that width (paper: 4-core/8-thread Xeon)", runtime.GOMAXPROCS(0)),
			fmt.Sprintf("SHA-1 implementation: %s, SHA-256: %s; on SHA-extension hardware SHA-1 outruns MD5, the reverse of the paper's 2012 ordering, and the 16-lane AVX-512 kernels (+avx512x16) widen the gap", fingerprint.SHA1.Impl(), fingerprint.SHA256.Impl()),
		},
	}

	// Both hashes take the 4KB chunks 32 at a time, one SumBatch call per
	// 128KB, as ingest's hash stage does.
	var chunks [][]byte
	for off := 0; off+4096 <= len(data); off += 4096 {
		chunks = append(chunks, data[off:off+4096])
	}
	hashAll := func(a fingerprint.Algorithm) func() {
		return func() {
			var out [32]fingerprint.Fingerprint
			for i := 0; i < len(chunks); i += len(out) {
				a.SumBatch(chunks[i:min(i+len(out), len(chunks))], out[:])
			}
		}
	}

	measure := func(n int, work func()) float64 {
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		return float64(n) * float64(perStream) / elapsed
	}

	for _, n := range streams {
		cdc := measure(n, func() {
			c, _ := chunker.NewRabin(bytes.NewReader(data), 0, 4096, 0)
			for {
				if _, err := c.Next(); err != nil {
					return
				}
			}
		})
		sha := measure(n, hashAll(fingerprint.SHA1))
		md := measure(n, hashAll(fingerprint.MD5))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), mbs(cdc), mbs(sha), mbs(md),
		})
	}
	return t, nil
}

// fig4b reproduces the parallel similarity-index lookup experiment
// (Fig. 4b): lookup throughput (million ops/s) for multiple data streams
// as a function of the lock-stripe count.
func fig4b(opts Options) (*Table, error) {
	locks := []int{1, 4, 16, 64, 256, 1024, 4096, 8192}
	streams := []int{1, 4, 8, 16}
	if opts.Quick {
		locks = []int{1, 64, 1024}
		streams = []int{1, 8}
	}
	const entries = 1 << 16
	opsPerStream := int(400000 * opts.scale())
	if opts.Quick {
		opsPerStream = 50000
	}

	// Pre-generate fingerprints once.
	fps := make([]fingerprint.Fingerprint, entries)
	var buf [8]byte
	for i := range fps {
		buf[0], buf[1], buf[2], buf[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
		fps[i] = fingerprint.Sum(buf[:])
	}

	t := &Table{
		Name:  "fig4b",
		Title: "Parallel similarity-index lookup throughput (Mops/s) vs lock count",
		Headers: append([]string{"locks"}, func() []string {
			h := make([]string, len(streams))
			for i, s := range streams {
				h[i] = fmt.Sprintf("%d-streams", s)
			}
			return h
		}()...),
	}
	for _, nl := range locks {
		row := []string{fmt.Sprintf("%d", nl)}
		for _, ns := range streams {
			idx, err := simindex.New(nl)
			if err != nil {
				return nil, err
			}
			for i, fp := range fps {
				idx.Insert(fp, uint64(i))
			}
			var wg sync.WaitGroup
			start := time.Now()
			for s := 0; s < ns; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < opsPerStream; i++ {
						idx.Lookup(fps[(i*7+s*13)&(entries-1)])
					}
				}(s)
			}
			wg.Wait()
			elapsed := time.Since(start).Seconds()
			row = append(row, fmt.Sprintf("%.2f", float64(ns)*float64(opsPerStream)/elapsed/1e6))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "throughput degrades when lock count grows far beyond useful parallelism (paper: >1024)")
	return t, nil
}

// fig5a reproduces the single-node deduplication-efficiency experiment
// (Fig. 5a): bytes saved per second as a function of chunk size, for
// static chunking (SC) and content-defined chunking (CDC), on the Linux
// and VM workloads held in RAM.
func fig5a(opts Options) (*Table, error) {
	chunkSizes := []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}
	if opts.Quick {
		chunkSizes = []int{4 << 10, 16 << 10}
	}
	scale := 0.12 * opts.scale()
	if opts.Quick {
		scale = 0.05
	}

	t := &Table{
		Name:    "fig5a",
		Title:   "Single-node deduplication efficiency (bytes saved per second, MB/s) vs chunk size",
		Headers: []string{"workload", "method", "chunk", "DR", "MB-saved/s"},
	}
	for _, wl := range []string{"linux", "vm"} {
		g, err := workload.ByName(wl, scale, 0)
		if err != nil {
			return nil, err
		}
		items, err := workload.Collect(g)
		if err != nil {
			return nil, err
		}
		// Materialize the whole stream in RAM (the paper stores the
		// workload in a RAM filesystem to remove the disk bottleneck).
		var stream []byte
		for _, it := range items {
			stream = append(stream, workload.Materialize(it)...)
		}
		for _, method := range []chunker.Method{chunker.Fixed, chunker.Rabin} {
			for _, cs := range chunkSizes {
				dr, de, err := dedupEfficiency(stream, method, cs)
				if err != nil {
					return nil, err
				}
				t.Rows = append(t.Rows, []string{
					wl, method.String(), fmt.Sprintf("%dKB", cs>>10), f2(dr), mbs(de),
				})
			}
		}
	}
	t.Notes = append(t.Notes,
		"SC beats CDC in efficiency (lower chunking cost); the best chunk size balances DR against per-chunk overhead")
	return t, nil
}

// dedupEfficiency runs the in-RAM single-node dedup pipeline and returns
// (DR, bytes saved per second).
func dedupEfficiency(stream []byte, method chunker.Method, chunkSize int) (float64, float64, error) {
	n, err := store.New(store.Config{})
	if err != nil {
		return 0, 0, err
	}
	part, err := core.NewPartitioner(core.DefaultSuperChunkSize, fingerprint.SHA1, false)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	ck, err := chunker.New(method, bytes.NewReader(stream), chunkSize)
	if err != nil {
		return 0, 0, err
	}
	store := func(sc *core.SuperChunk) error {
		_, err := n.Dedup("s", sc, nil, true)
		return err
	}
	for {
		chunk, err := ck.Next()
		if err != nil {
			break
		}
		if sc := part.Add(chunk); sc != nil {
			if err := store(sc); err != nil {
				return 0, 0, err
			}
		}
	}
	if sc := part.Flush(); sc != nil {
		if err := store(sc); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	st := n.Stats()
	return st.DedupRatio(), metrics.BytesSavedPerSecond(st.LogicalBytes, st.PhysicalBytes, elapsed), nil
}

// fig5b reproduces the sampling-rate sensitivity experiment (Fig. 5b):
// deduplication ratio of similarity-index-only dedup (no traditional
// chunk index), normalized to exact dedup, as a function of the
// handprint-sampling rate and the super-chunk size, on the Linux workload.
func fig5b(opts Options) (*Table, error) {
	scSizes := []int64{512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20}
	rates := []int{4, 16, 64, 512, 4096} // sampling denominators
	if opts.Quick {
		scSizes = []int64{1 << 20, 4 << 20}
		rates = []int{16, 512}
	}
	g, err := workload.ByName("linux", 0.6*opts.scale(), 0)
	if err != nil {
		return nil, err
	}
	items, err := workload.Collect(g)
	if err != nil {
		return nil, err
	}
	corpus := workload.NewCorpus(0)
	exactUnique := int64(workload.UniqueBlocks(items)) * workload.BlockSize
	logical := workload.TotalBytes(items)
	exactDR := float64(logical) / float64(exactUnique)

	t := &Table{
		Name:  "fig5b",
		Title: "Similarity-index-only dedup ratio (normalized to exact) vs sampling rate x super-chunk size",
		Headers: append([]string{"rate"}, func() []string {
			h := make([]string, len(scSizes))
			for i, s := range scSizes {
				h[i] = fmt.Sprintf("sc=%dKB", s>>10)
			}
			return h
		}()...),
	}
	for _, rate := range rates {
		row := []string{fmt.Sprintf("1/%d", rate)}
		for _, scSize := range scSizes {
			k := int(scSize) / workload.BlockSize / rate
			if k < 1 {
				k = 1
			}
			n, err := store.New(store.Config{
				DisableChunkIndex: true,
				HandprintSize:     k,
				CacheContainers:   1024,
			})
			if err != nil {
				return nil, err
			}
			part, err := core.NewPartitioner(scSize, fingerprint.SHA1, false)
			if err != nil {
				return nil, err
			}
			for _, it := range items {
				for _, ref := range corpus.ChunkRefs(it, false) {
					if sc := part.AddRef(ref); sc != nil {
						if _, err := n.Dedup("s", sc, nil, true); err != nil {
							return nil, err
						}
					}
				}
			}
			if sc := part.Flush(); sc != nil {
				if _, err := n.Dedup("s", sc, nil, true); err != nil {
					return nil, err
				}
			}
			st := n.Stats()
			row = append(row, f3(st.DedupRatio()/exactDR))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"normalized DR falls as the sampling rate decreases; halving rate while doubling super-chunk size stays ~constant",
		"the paper's chosen point (1MB super-chunk, handprint 8 = rate 1/32) keeps ~90% of exact dedup")
	return t, nil
}
