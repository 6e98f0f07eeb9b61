package migrate

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"sync"

	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/pipeline"
	"sigmadedupe/internal/rpc"
	"sigmadedupe/internal/sderr"
	"sigmadedupe/internal/tenant"
)

// restoreWindowBytes is the payload budget of one restore window, the
// unit of batched read scheduling: a window becomes one ReadBatch per
// node it touches. 2MB keeps the replies of a window spread over a few
// nodes inside the wire pool's ≤ 1MB frame classes, which keep 16
// buffers each — the larger classes keep 4 or fewer, so bigger replies
// are mostly fresh allocations — and bounds what a restore holds in
// flight, about 3×ahead windows, at 2MB each. A variable only so tests
// can force many windows.
var restoreWindowBytes int64 = 2 << 20

// restoreStats counts what one Restore did.
type restoreStats struct {
	Bytes         int64 // payload bytes written
	Chunks        int64 // chunk payloads written, each straight out of its batch
	ReadBatches   int64 // batched reads issued: one per node touched per window
	FailoverReads int64 // chunk reads served by a replica after the primary failed
}

// window is one contiguous run of recipe entries fetched as a single
// round of per-node batched reads; first is the stream index of
// entries[0], for error attribution.
type window struct {
	first   int
	entries []director.ChunkEntry
}

// nodeReq is one node's share of a window: the deduplicated
// fingerprints to fetch, their first-occurrence slot, and the payloads
// in that order — the primary's batch, or replica reads scattered into
// the same slots when the primary failed. pos is its place in the
// window's reqs.
type nodeReq struct {
	id    int32
	pos   int32
	fps   []fingerprint.Fingerprint
	idx   map[fingerprint.Fingerprint]int32
	data  [][]byte
	batch *rpc.ChunkBatch
	err   error
}

// slot addresses one entry's payload: data[i] of the window's reqs[req].
type slot struct{ req, i int32 }

// fetched is one fetched window: entry i's payload is slots[i],
// aliasing the batches — the requests' own and the failover reads' —
// until they are written out and released. A fetched is scratch the
// restorer recycles across the windows of one Restore: byNode keeps the
// request of every node it has asked, so their slices and maps are
// reused rather than rebuilt per window.
type fetched struct {
	window
	reqs     []*nodeReq
	byNode   map[int32]*nodeReq
	slots    []slot
	replicas []*rpc.ChunkBatch
	st       restoreStats
	wg       sync.WaitGroup
}

// req returns node id's request in this window, starting it afresh on
// the node's first entry; hint sizes a request the scratch never had.
func (f *fetched) req(id int32, hint int) *nodeReq {
	nr := f.byNode[id]
	if nr == nil {
		nr = &nodeReq{id: id, fps: make([]fingerprint.Fingerprint, 0, hint), idx: make(map[fingerprint.Fingerprint]int32, hint)}
		f.byNode[id] = nr
	}
	if int(nr.pos) < len(f.reqs) && f.reqs[nr.pos] == nr {
		return nr
	}
	nr.pos = int32(len(f.reqs))
	nr.fps = nr.fps[:0]
	clear(nr.idx)
	nr.data, nr.batch, nr.err = nil, nil, nil
	f.reqs = append(f.reqs, nr)
	return nr
}

// release returns the window's batches to their pools and empties it.
// Idempotent, so the sweep at the end of a Restore may repeat it.
func (f *fetched) release() {
	for _, nr := range f.reqs {
		if nr.batch != nil {
			nr.batch.Release()
			nr.batch = nil
		}
	}
	for _, b := range f.replicas {
		b.Release()
	}
	f.reqs, f.replicas = f.reqs[:0], f.replicas[:0]
}

// restorer is the state of one Restore call.
type restorer struct {
	ctx   context.Context
	nodes func(id int) (Node, bool)
	name  string
	w     io.Writer
	st    restoreStats

	mu   sync.Mutex
	free []*fetched // written windows, ready for the next fetch
	made []*fetched // every window scratch this Restore made
}

// scratch hands out a written window's scratch, or a new one.
func (r *restorer) scratch() *fetched {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.free); n > 0 {
		f := r.free[n-1]
		r.free = r.free[:n-1]
		return f
	}
	f := &fetched{byNode: make(map[int32]*nodeReq)}
	r.made = append(r.made, f)
	return f
}

func (r *restorer) recycle(f *fetched) {
	f.release()
	r.mu.Lock()
	r.free = append(r.free, f)
	r.mu.Unlock()
}

// The runtime/pprof labels a restore runs under, phase=restore and stage
// read (fetching a window's batches, and its per-node reads) or write
// (writing in stream order, on the caller's goroutine): one context per
// label set, built once, so labelling allocates nothing.
var (
	readLabels  = pprof.WithLabels(context.Background(), pprof.Labels("phase", "restore", "stage", "read"))
	writeLabels = pprof.WithLabels(context.Background(), pprof.Labels("phase", "restore", "stage", "write"))
)

// Restore streams the backup recorded under key to w — the one restore
// path of both deployments. The recipe is cut into byte-bounded windows,
// each fetched with one ReadBatch per node it touches (repeated
// fingerprints cross once), and written strictly in stream order
// straight out of the batches. A node that is gone from nodes, or
// fails its read, has its whole share of the window failed over to the
// entries' replica owners. A recipe that fits one window — most files
// of a backup tree — is fetched and written inline; only a multi-window
// recipe pays for a pipeline, which keeps up to ahead windows in flight
// in front of the writer. Windows fetched but never written — the
// writer failed or ctx was cancelled — have their batches released
// before Restore returns. The restored bytes are accounted to the key's
// tenant (best effort: a failed gauge update must not fail a restore
// that delivered every byte).
func Restore(ctx context.Context, meta director.Metadata, nodes func(id int) (Node, bool), key string, ahead int, w io.Writer) (restoreStats, error) {
	pprof.SetGoroutineLabels(writeLabels)
	defer pprof.SetGoroutineLabels(ctx) // the caller's, if ctx carries any
	recipe, err := meta.GetRecipe(ctx, key)
	if err != nil {
		return restoreStats{}, err
	}
	entries := recipe.Chunks
	r := &restorer{ctx: ctx, nodes: nodes, name: recipe.Name(), w: w}
	switch end := cutWindow(entries, 0); {
	case ctx.Err() != nil:
		err = ctx.Err()
	case end == 0: // empty backup
	case end == len(entries):
		var f *fetched
		if f, err = r.fetch(window{entries: entries}); err == nil {
			err = r.write(f)
		}
	default:
		g := pipeline.NewGroupCtx(ctx)
		wins := pipeline.Produce(g, ahead, func(yield func(window) bool) error {
			for start := 0; start < len(entries); {
				end := cutWindow(entries, start)
				if !yield(window{first: start, entries: entries[start:end]}) {
					break
				}
				start = end
			}
			return nil
		})
		for f := range pipeline.Map(g, wins, ahead, ahead, r.fetch) {
			if werr := r.write(f); werr != nil {
				g.Fail(werr)
				break
			}
		}
		err = g.Wait()
	}
	// Every goroutine is done: release what the pipeline dropped.
	for _, f := range r.made {
		f.release()
	}
	if err == nil && r.st.Bytes > 0 {
		tn, _ := tenant.SplitKey(key)
		_ = meta.AccountTransfer(ctx, tn, 0, r.st.Bytes)
	}
	return r.st, err
}

// cutWindow returns the end of the window starting at start: entries up
// to the byte budget, and at least one.
func cutWindow(entries []director.ChunkEntry, start int) int {
	end, size := start, int64(0)
	for end < len(entries) && (end == start || size+int64(entries[end].Size) <= restoreWindowBytes) {
		size += int64(entries[end].Size)
		end++
	}
	return end
}

// write writes one fetched window in stream order (on the goroutine
// that called Restore) and recycles it.
func (r *restorer) write(f *fetched) error {
	pprof.SetGoroutineLabels(writeLabels)
	defer r.recycle(f)
	for _, s := range f.slots {
		d := f.reqs[s.req].data[s.i]
		if _, err := r.w.Write(d); err != nil {
			return fmt.Errorf("migrate: restore %s: %w", r.name, err)
		}
		r.st.Bytes += int64(len(d))
	}
	r.st.Chunks += int64(len(f.entries))
	r.st.ReadBatches += f.st.ReadBatches
	r.st.FailoverReads += f.st.FailoverReads
	return nil
}

// read issues one node's batched read; it touches only its own nodeReq,
// so a window's reads share nothing.
func (r *restorer) read(nr *nodeReq) {
	nd, ok := r.nodes(int(nr.id))
	if !ok {
		nr.err = fmt.Errorf("not in the current membership: %w", sderr.ErrNotFound)
	} else if nr.batch, nr.err = nd.ReadBatch(r.ctx, nr.fps); nr.err == nil {
		nr.data = nr.batch.Data
	}
}

// fetch issues one window's batched reads — the first node's on this
// goroutine, any others' concurrently beside it — and fails the shares
// of failed nodes over to their replicas.
func (r *restorer) fetch(win window) (*fetched, error) {
	pprof.SetGoroutineLabels(readLabels)
	f := r.scratch()
	f.window, f.st, f.slots = win, restoreStats{}, f.slots[:0]
	var nr *nodeReq
	for i, e := range win.entries {
		if nr == nil || nr.id != e.Node {
			// Sized for the most the node can still be asked for, so a
			// small file's one request never regrows.
			nr = f.req(e.Node, min(len(win.entries)-i, 64))
		}
		at, ok := nr.idx[e.FP]
		if !ok {
			at = int32(len(nr.fps))
			nr.idx[e.FP] = at
			nr.fps = append(nr.fps, e.FP)
		}
		f.slots = append(f.slots, slot{nr.pos, at})
	}
	for _, nr := range f.reqs[1:] {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			r.read(nr)
		}()
	}
	r.read(f.reqs[0])
	f.wg.Wait()
	for _, nr := range f.reqs {
		if nr.err == nil {
			f.st.ReadBatches++
			continue
		}
		if ferr := f.failover(r.ctx, r.nodes, nr); ferr != nil {
			return nil, fmt.Errorf("migrate: restore %s chunks %d..%d: node %d: %w (failover: %v)",
				r.name, win.first, win.first+len(win.entries)-1, nr.id, nr.err, ferr)
		}
	}
	return f, nil
}

// failover serves one failed node's share of a window from the
// entries' replica owners: each fingerprint maps to the replica its
// recipe entry recorded, the share re-batches per replica node, and the
// payloads scatter into the request's slots as if the primary had
// answered.
func (f *fetched) failover(ctx context.Context, nodes func(id int) (Node, bool), nr *nodeReq) error {
	replicaOf := make(map[fingerprint.Fingerprint]int32, len(nr.fps))
	for _, e := range f.entries {
		if e.Node == nr.id && e.Replica >= 0 {
			replicaOf[e.FP] = e.Replica
		}
	}
	groups := make(map[int32][]fingerprint.Fingerprint)
	for _, fp := range nr.fps {
		rep, ok := replicaOf[fp]
		if !ok {
			return fmt.Errorf("chunk %s has no replica: %w", fp.Short(), sderr.ErrNotFound)
		}
		groups[rep] = append(groups[rep], fp)
	}
	nr.data = make([][]byte, len(nr.fps))
	for rep, fps := range groups {
		nd, ok := nodes(int(rep))
		if !ok {
			return fmt.Errorf("replica node %d is not in the current membership: %w", rep, sderr.ErrNotFound)
		}
		b, err := nd.ReadBatch(ctx, fps)
		if err != nil {
			return fmt.Errorf("replica node %d: %w", rep, err)
		}
		f.replicas = append(f.replicas, b)
		f.st.ReadBatches++
		f.st.FailoverReads += int64(len(fps))
		for i, fp := range fps {
			nr.data[nr.idx[fp]] = b.Data[i]
		}
	}
	return nil
}
