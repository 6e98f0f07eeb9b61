package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"time"

	"sigmadedupe"
	"sigmadedupe/internal/chunker"
	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/node"
	"sigmadedupe/internal/router"
	"sigmadedupe/internal/rpc"
	"sigmadedupe/internal/workload"
)

// replay is the traced run: the workload's generated input pushed,
// single-goroutine, through a staged pipeline assembled here from the
// layers' exported functions, in the order the product's own pipeline
// calls them. Every call is wrapped in a span.
//
// Two copies of the cluster run in lock step. The wire copy (prototype
// workloads only) sits behind rpc servers and is driven through
// rpc.Client; it makes the routing decisions. The twin copy is a set of
// bare node.Node values that receives the identical super-chunk sequence
// with identical targets by direct call. rpc.* minus node.* is therefore
// the codec and socket cost. The simulator workload has no wire: its
// twin makes the decisions.
type replay struct {
	ctx context.Context
	sp  *spec
	ds  *dataset
	dir string
	o   *oracle
	rec *recorder // nil while the seed portion is replayed

	wire    *deployment   // prototype workloads only
	conns   []*rpc.Client // one per wire node
	session uint64        // director session of the replayed backups
	twins   []*node.Node

	method  chunker.Method
	algo    fingerprint.Algorithm
	members core.Membership
	rt      *router.SigmaRouter
	streams []*replayStream
	recipes map[string][]director.ChunkEntry
	buf     []byte
	prev    *workload.Item
	pool    chunkPool

	err error // first failure of a traced call; the replay stops on it

	seq     int64 // next item id for spans
	logical int64 // bytes presented for backup, seed portion included
	n       replayCounts
}

// replayCounts are the counts made at the span boundaries; they restart
// when tracing starts, so they cover exactly the traced portion.
type replayCounts struct {
	chunks       int64
	superChunks  int64
	bids         int64
	summaryProbe int64
	zeroBid      int64
	rpcCalls     int64
	ingestRPCs   int64 // rpcCalls when the timed ingest ended
	restoreRPCs  int64
}

// chunkPool recycles chunk payload buffers the way the product's
// clients do, so the chunker's span is not charged for one heap
// allocation per chunk. The replay is single-goroutine: a free list does.
type chunkPool struct {
	free   [][]byte
	bufCap int
}

func (p *chunkPool) alloc(n int) []byte {
	if k := len(p.free); k > 0 && n <= p.bufCap {
		b := p.free[k-1]
		p.free = p.free[:k-1]
		return b[:n]
	}
	return make([]byte, n, max(n, p.bufCap))
}

// release takes back the payloads of a stored super-chunk: both copies
// of the cluster have copied them by the time a store returns.
func (p *chunkPool) release(sc *core.SuperChunk) {
	for i := range sc.Chunks {
		if b := sc.Chunks[i].Data; cap(b) >= p.bufCap {
			p.free = append(p.free, b[:0])
		}
		sc.Chunks[i].Data = nil
	}
}

type replayStream struct {
	name    string
	part    *core.Partitioner
	pending []string // owning item of every chunk not yet routed, in stream order
	fileID  uint64
}

func chunkMethod(m sigmadedupe.ChunkMethod) chunker.Method {
	if m == sigmadedupe.ChunkFastCDC {
		return chunker.FastCDC
	}
	return chunker.Fixed
}

func fingerprintAlgo(a sigmadedupe.FingerprintAlgorithm) fingerprint.Algorithm {
	if a == sigmadedupe.FingerprintSHA256 {
		return fingerprint.SHA256
	}
	return fingerprint.SHA1
}

func newReplay(ctx context.Context, sp *spec, ds *dataset, dir string, o *oracle) (*replay, error) {
	r := &replay{
		ctx: ctx, sp: sp, ds: ds, dir: dir, o: o,
		method:  chunkMethod(sp.chunk.Method),
		algo:    fingerprintAlgo(sp.fingerprint),
		members: core.DenseMembership(sp.nodes),
		rt:      &router.SigmaRouter{K: core.DefaultHandprintSize},
		recipes: make(map[string][]director.ChunkEntry),
	}
	r.pool.bufCap = chunker.MaxChunkSize(r.method, sp.chunk.Size)
	for s := range ds.streams {
		part, err := core.NewPartitioner(core.DefaultSuperChunkSize, r.algo, true)
		if err != nil {
			return nil, err
		}
		r.streams = append(r.streams, &replayStream{name: fmt.Sprintf("stream%d", s), part: part})
	}
	if err := r.start(false); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// start brings both cluster copies up (recover re-opens durable state).
func (r *replay) start(recover bool) error {
	if !r.sp.sim {
		var err error
		if recover {
			err = r.wire.restart(r.ctx)
		} else {
			r.wire, err = deploy(r.ctx, r.sp, filepath.Join(r.dir, "wire"))
		}
		if err != nil {
			return err
		}
		for _, srv := range r.wire.servers {
			c, err := rpc.DialContext(r.ctx, srv.Addr())
			if err != nil {
				return err
			}
			r.conns = append(r.conns, c)
		}
		if r.session, err = r.wire.meta.BeginSession(r.ctx, "replay", "default"); err != nil {
			return err
		}
	}
	for i := 0; i < r.sp.nodes; i++ {
		n, err := node.New(r.sp.nodeConfig(filepath.Join(r.dir, "twin"), i, recover))
		if err != nil {
			return err
		}
		r.twins = append(r.twins, n)
	}
	return nil
}

func (r *replay) stop() error {
	var errs []error
	for _, c := range r.conns {
		errs = append(errs, c.Close())
	}
	for _, n := range r.twins {
		errs = append(errs, n.Close())
	}
	r.conns, r.twins = nil, nil
	return errors.Join(errs...)
}

func (r *replay) close() error {
	err := r.stop()
	if r.wire != nil {
		err = errors.Join(err, r.wire.close())
	}
	return err
}

// fail records the first error of a traced call.
func (r *replay) fail(what string, err error) bool {
	if err != nil && r.err == nil {
		r.err = fmt.Errorf("%s: %w", what, err)
	}
	return err != nil
}

// replayView is the bench-owned router.View: bids go out through
// rpc.Client.Bid (and, identically, straight into the twin).
type replayView struct {
	r      *replay
	item   int64
	usage  map[int]int64
	maxBid int
}

var (
	_ router.View        = (*replayView)(nil)
	_ router.SummaryView = (*replayView)(nil)
)

func (v *replayView) N() int                      { return v.r.members.Len() }
func (v *replayView) Membership() core.Membership { return v.r.members }
func (v *replayView) Usage(id int) int64          { return v.usage[id] }

func (v *replayView) BidChunks(int, []fingerprint.Fingerprint) int { return 0 }

func (v *replayView) BidHandprint(id int, hp core.Handprint) int {
	r := v.r
	s := r.rec.begin("node.bid", v.item)
	count, usage := r.twins[id].CountHandprintMatches(hp), r.twins[id].StorageUsage()
	r.rec.end(s, 1)
	if r.conns != nil {
		s := r.rec.begin("rpc.bid", v.item)
		c, u, err := r.conns[id].Bid(r.ctx, hp)
		r.rec.end(s, 1)
		r.n.rpcCalls++
		if !r.fail("bid", err) {
			count, usage = c, u
		}
	}
	v.usage[id] = usage
	v.maxBid = max(v.maxBid, count)
	return count
}

// SummaryMayContain probes the twin's bid summary. The product's routers
// do not consult summaries on either backend today, so the replay's
// router leaves UseSummaries off and this stays uncalled; it is here so
// the view keeps working when they do.
func (v *replayView) SummaryMayContain(id int, hp core.Handprint) bool {
	v.r.n.summaryProbe++
	return v.r.twins[id].SummaryMayContain(hp)
}

// payload returns it's bytes: the resident copy, or the shared image
// buffer rewritten in place.
func (r *replay) payload(it *workload.Item) []byte {
	if data := r.ds.resident[it.Name]; data != nil {
		return data
	}
	r.buf = fill(r.buf, *it, r.prev)
	r.prev = it
	return r.buf
}

// ingestItem runs one item through chunker → fingerprint → partitioner,
// one stage at a time, then routes and stores every super-chunk the
// partitioner completed.
func (r *replay) ingestItem(st *replayStream, it *workload.Item) {
	data := r.payload(it)
	item := r.seq
	r.seq++
	r.logical += int64(len(data))

	s := r.rec.begin("chunker.next", item)
	ck, err := chunker.New(r.method, bytes.NewReader(data), r.sp.chunk.Size,
		chunker.WithAllocator(r.pool.alloc))
	if r.fail("chunker", err) {
		r.rec.end(s, 0)
		return
	}
	var chunks []chunker.Chunk
	for {
		ch, err := ck.Next()
		if err == io.EOF {
			break
		}
		if r.fail("chunker", err) {
			break
		}
		chunks = append(chunks, ch)
	}
	r.rec.end(s, int64(len(chunks)))

	s = r.rec.begin("fingerprint.sum", item)
	refs := make([]core.ChunkRef, len(chunks))
	for i, ch := range chunks {
		refs[i] = core.ChunkRef{FP: r.algo.Sum(ch.Data), Size: ch.Len(), Data: ch.Data}
	}
	r.rec.end(s, int64(len(refs)))

	s = r.rec.begin("core.partition", item)
	var done []*core.SuperChunk
	if r.sp.sim {
		// The simulator tags super-chunks with the backup item and cuts
		// them at item boundaries.
		st.fileID++
		st.part.SetFileID(st.fileID)
	}
	for _, ref := range refs {
		st.pending = append(st.pending, it.Name)
		if sc := st.part.AddRef(ref); sc != nil {
			done = append(done, sc)
		}
	}
	if r.sp.sim {
		if sc := st.part.Flush(); sc != nil {
			done = append(done, sc)
		}
	}
	r.rec.end(s, int64(len(refs)))
	r.n.chunks += int64(len(refs))

	for _, sc := range done {
		r.routeStore(st, sc)
	}
}

// withoutDuplicates is the super-chunk the client sends after a query:
// every reference, payloads only for the chunks the node lacks.
func withoutDuplicates(sc *core.SuperChunk, dup []bool) *core.SuperChunk {
	send := &core.SuperChunk{FileID: sc.FileID, Chunks: make([]core.ChunkRef, len(sc.Chunks))}
	for i, ch := range sc.Chunks {
		send.Chunks[i] = core.ChunkRef{FP: ch.FP, Size: ch.Size}
		if i >= len(dup) || !dup[i] {
			send.Chunks[i].Data = ch.Data
		}
	}
	return send
}

// routeStore is one super-chunk's life: handprint, routing bids, the
// batched duplicate query and the store — on the wire copy and, with the
// same target, on the twin.
func (r *replay) routeStore(st *replayStream, sc *core.SuperChunk) {
	if r.err != nil {
		return
	}
	item := r.seq
	r.seq++
	root := r.rec.begin("client.superchunk", item)
	defer func() { r.rec.end(root, 1) }()

	s := r.rec.begin("core.handprint", item)
	sc.Handprint(r.rt.K)
	r.rec.end(s, 1)

	v := &replayView{r: r, item: item, usage: map[int]int64{}}
	s = r.rec.begin("router.route", item)
	dec := r.rt.Route(sc, v)
	r.rec.end(s, 1)
	target := dec.Assignments[0].Node
	r.n.superChunks++
	r.n.bids += dec.BidsSent
	if v.maxBid == 0 {
		r.n.zeroBid++
	}

	twinSend := sc
	if r.conns != nil {
		s = r.rec.begin("rpc.query", item)
		dup, err := r.conns[target].Query(r.ctx, sc)
		r.rec.end(s, 1)
		r.fail("query", err)
		send := withoutDuplicates(sc, dup)
		s = r.rec.begin("rpc.store", item)
		err = r.conns[target].Store(r.ctx, st.name, send, true)
		r.rec.end(s, 1)
		r.fail("store", err)
		r.n.rpcCalls += 2

		s = r.rec.begin("node.query", item)
		dup = r.twins[target].QuerySuperChunk(sc)
		r.rec.end(s, 1)
		twinSend = withoutDuplicates(sc, dup)
	}
	s = r.rec.begin("node.store", item)
	_, err := r.twins[target].StoreSuperChunk(st.name, twinSend)
	r.rec.end(s, 1)
	r.fail("twin store", err)

	for i, ch := range sc.Chunks {
		name := st.pending[i]
		r.recipes[name] = append(r.recipes[name], director.ChunkEntry{
			FP: ch.FP, Size: int32(ch.Size), Node: int32(target), Replica: -1})
	}
	st.pending = st.pending[len(sc.Chunks):]
	r.pool.release(sc)
}

// ingest replays items [from[s], to[s]) of every stream, interleaving
// the streams item by item, then flushes: the partitioners' tails route,
// every node seals, and the finished items' recipes reach the director.
func (r *replay) ingest(from, to []int) {
	var names []string
	for i := 0; ; i++ {
		more := false
		for s, st := range r.streams {
			if j := from[s] + i; j < to[s] {
				more = true
				it := &r.ds.streams[s][j]
				r.ingestItem(st, it)
				names = append(names, it.Name)
			}
		}
		if !more {
			break
		}
	}
	for _, st := range r.streams {
		if sc := st.part.Flush(); sc != nil {
			r.routeStore(st, sc)
		}
	}
	item := r.seq
	r.seq++
	for i := range r.twins {
		if r.conns != nil {
			s := r.rec.begin("rpc.flush", item)
			r.fail("flush", r.conns[i].Flush(r.ctx))
			r.rec.end(s, 1)
			r.n.rpcCalls++
		}
		s := r.rec.begin("node.flush", item)
		r.fail("twin flush", r.twins[i].Flush())
		r.rec.end(s, 1)
	}
	if r.wire != nil {
		for _, name := range names {
			s := r.rec.begin("director.put_recipe", item)
			r.fail("put recipe", r.wire.meta.PutRecipe(r.ctx, r.session, name, r.recipes[name]))
			r.rec.end(s, 1)
		}
	}
}

// restart closes both copies and re-opens them from disk, as the durable
// workload does between ingest and restore.
func (r *replay) restart() {
	if r.fail("stop", r.stop()) {
		return
	}
	r.fail("restart", r.start(true))
}

// restoreWindow is the payload budget of one batched read round: the
// prototype client's default window, and the simulator's.
func (r *replay) restoreWindow() int64 {
	if r.sp.sim {
		return 4 << 20
	}
	return 8 << 20
}

// restoreItem replays one restore: fetch the recipe, read it window by
// window with one batched read per node, write the payloads in stream
// order into out, and verify the digest. It returns the bytes restored.
func (r *replay) restoreItem(it workload.Item, out []byte) int64 {
	item := r.seq
	r.seq++
	root := r.rec.begin("client.restore", item)
	entries := r.recipes[it.Name]
	if r.wire != nil {
		s := r.rec.begin("director.get_recipe", item)
		rcp, err := r.wire.meta.GetRecipe(r.ctx, it.Name)
		r.rec.end(s, 1)
		if !r.fail("get recipe", err) {
			entries = rcp.Chunks
		}
	}
	n := 0
	for start := 0; start < len(entries) && r.err == nil; {
		end, size := start, int64(0)
		for end < len(entries) && (end == start || size+int64(entries[end].Size) <= r.restoreWindow()) {
			size += int64(entries[end].Size)
			end++
		}
		n += r.readWindow(item, entries[start:end], out[n:])
		start = end
	}
	r.rec.end(root, 1)
	err := r.err
	if err == nil && sha256.Sum256(out[:n]) != r.ds.digests[it.Name] {
		err = fmt.Errorf("restored %d bytes, digest mismatch", n)
	}
	r.o.check("replay restore "+it.Name, err)
	return int64(n)
}

// readWindow fetches one window: per node, one ReadBatch over the wire
// and the same batch straight from the twin. The wire's payloads (the
// twin's on the simulator) are copied to out in stream order.
func (r *replay) readWindow(item int64, entries []director.ChunkEntry, out []byte) int {
	type nodeReq struct {
		fps  []fingerprint.Fingerprint
		idx  map[fingerprint.Fingerprint]int
		data [][]byte
	}
	reqs := map[int32]*nodeReq{}
	var order []int32
	for _, e := range entries {
		nr := reqs[e.Node]
		if nr == nil {
			nr = &nodeReq{idx: map[fingerprint.Fingerprint]int{}}
			reqs[e.Node] = nr
			order = append(order, e.Node)
		}
		if _, ok := nr.idx[e.FP]; !ok {
			nr.idx[e.FP] = len(nr.fps)
			nr.fps = append(nr.fps, e.FP)
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	var batches []*rpc.ChunkBatch
	for _, id := range order {
		nr := reqs[id]
		s := r.rec.begin("node.read_batch", item)
		data, idx, err := r.twins[id].ReadChunkBatch(nr.fps)
		r.rec.end(s, int64(len(nr.fps)))
		if r.fail("twin read batch", err) {
			return 0
		}
		nr.data = make([][]byte, len(nr.fps))
		for i, d := range data {
			nr.data[idx[i]] = d
		}
		if r.conns != nil {
			s := r.rec.begin("rpc.read_batch", item)
			b, err := r.conns[id].ReadBatch(r.ctx, nr.fps)
			r.rec.end(s, int64(len(nr.fps)))
			r.n.rpcCalls++
			r.n.restoreRPCs++
			if r.fail("read batch", err) {
				return 0
			}
			nr.data = b.Data
			batches = append(batches, b)
		}
	}
	n := 0
	for _, e := range entries {
		nr := reqs[e.Node]
		n += copy(out[n:], nr.data[nr.idx[e.FP]])
	}
	for _, b := range batches {
		b.Release()
	}
	return n
}

// reclaim replays the deletion of items and one compaction pass: recipe
// removal at the director, reference release and compaction on every
// node of both copies.
func (r *replay) reclaim(items []workload.Item) {
	for _, it := range items {
		item := r.seq
		r.seq++
		root := r.rec.begin("client.delete", item)
		entries := r.recipes[it.Name]
		delete(r.recipes, it.Name)
		if r.wire != nil {
			s := r.rec.begin("director.delete_recipe", item)
			_, err := r.wire.meta.DeleteRecipe(r.ctx, it.Name)
			r.rec.end(s, 1)
			r.fail("delete recipe", err)
		}
		byNode := map[int32][]fingerprint.Fingerprint{}
		for _, e := range entries {
			byNode[e.Node] = append(byNode[e.Node], e.FP)
		}
		for id, fps := range byNode {
			order, ns := core.AggregateRefs(fps)
			if r.conns != nil {
				s := r.rec.begin("rpc.decref", item)
				r.fail("decref", r.conns[id].DecRef(r.ctx, order, ns))
				r.rec.end(s, int64(len(order)))
				r.n.rpcCalls++
			}
			s := r.rec.begin("store.decref", item)
			r.fail("twin decref", r.twins[id].DecRef(order, ns))
			r.rec.end(s, int64(len(order)))
		}
		r.rec.end(root, 1)
	}
	item := r.seq
	r.seq++
	for i, n := range r.twins {
		if r.conns != nil {
			s := r.rec.begin("rpc.compact", item)
			_, err := r.conns[i].Compact(r.ctx, 0)
			r.rec.end(s, 1)
			r.fail("compact", err)
			r.n.rpcCalls++
		}
		s := r.rec.begin("store.compact", item)
		_, err := n.Compact(r.ctx, 0)
		r.rec.end(s, 1)
		r.fail("twin compact", err)
	}
}

// physical is the payload the replayed cluster holds: the wire copy's
// nodes where there is one (it made the routing decisions).
func (r *replay) physical() int64 {
	nodes := r.twins
	if r.wire != nil {
		nodes = r.wire.nodes
	}
	var n int64
	for _, nd := range nodes {
		n += nd.StorageUsage()
	}
	return n
}

// replayResult is what the traced run measured.
type replayResult struct {
	spans      []span
	wall       float64 // seconds the traced portion took
	dedupRatio float64
	ingestBusy float64 // traced layers' busy seconds over the timed ingest
	chunks     int64
	layers     map[string]float64
}

// runReplay replays the whole lifecycle. Spans are recorded from the
// timed ingest on; the seed portion is replayed untraced, as setup.
func runReplay(ctx context.Context, sp *spec, ds *dataset, dir string, o *oracle) (replayResult, error) {
	var res replayResult
	r, err := newReplay(ctx, sp, ds, dir, o)
	if err != nil {
		return res, err
	}
	defer r.close()

	zero, ends := ds.bounds()
	r.ingest(zero, ds.seedItems)

	r.rec, r.n = newRecorder(), replayCounts{}
	start := time.Now()
	r.ingest(ds.seedItems, ends)
	r.n.ingestRPCs = r.n.rpcCalls
	res.dedupRatio = ratio(float64(r.logical), float64(r.physical()))
	counters := map[string]float64{}
	if sp.sim {
		// The simulator's nodes are out of the benchmark's reach; the
		// twin's counters stand in for them.
		counters = (&deployment{nodes: r.twins}).counters()
	}
	if sp.disk {
		rec := r.rec
		r.rec = nil
		r.restart()
		r.rec = rec
	}
	out := make([]byte, ds.maxRestoreSize())
	var restored int64
	for _, it := range ds.restore {
		if r.err != nil {
			break
		}
		restored += r.restoreItem(it, out)
	}
	if sp.sim {
		for k, v := range (&deployment{nodes: r.twins}).restoreCounters() {
			counters[k] = v
		}
	}
	r.reclaim(ds.deleteFirst)
	res.wall = time.Since(start).Seconds()
	if r.err != nil {
		return res, r.err
	}
	res.spans = r.rec.spans
	res.chunks = r.n.chunks
	res.layers, res.ingestBusy = r.layerMetrics(counters, restored)
	return res, nil
}

// layerMetrics turns spans and boundary counts into the per-layer
// metrics: busy (self) seconds per logical GB of the phase the layer
// works in.
func (r *replay) layerMetrics(out map[string]float64, restored int64) (map[string]float64, float64) {
	self := selfSeconds(r.rec.spans)
	ingestGB := float64(r.ds.timedBytes()) / 1e9
	restoreGB := float64(restored) / 1e9
	deletedGB := float64(workload.TotalBytes(r.ds.deleteFirst)) / 1e9
	per := func(metric, spanName string, gb float64) { out[metric] = ratio(self[spanName], gb) }

	per("chunker.next_s_per_gb", "chunker.next", ingestGB)
	per("fingerprint.sum_s_per_gb", "fingerprint.sum", ingestGB)
	per("core.partition_s_per_gb", "core.partition", ingestGB)
	per("core.handprint_s_per_gb", "core.handprint", ingestGB)
	per("router.route_s_per_gb", "router.route", ingestGB)
	ingestVerbs := []string{"bid", "query", "store", "flush"}
	for _, verb := range ingestVerbs {
		per("rpc."+verb+"_s_per_gb", "rpc."+verb, ingestGB)
		per("node."+verb+"_s_per_gb", "node."+verb, ingestGB)
	}
	per("rpc.read_batch_s_per_gb", "rpc.read_batch", restoreGB)
	per("node.read_batch_s_per_gb", "node.read_batch", restoreGB)
	per("director.put_recipe_s_per_gb", "director.put_recipe", ingestGB)
	per("director.get_recipe_s_per_gb", "director.get_recipe", restoreGB)
	per("director.delete_recipe_s_per_gb", "director.delete_recipe", deletedGB)
	per("store.decref_s_per_gb", "store.decref", deletedGB)
	out["store.compact_s"] = self["store.compact"]

	// rpc − node is the codec and the socket; the simulator has neither.
	var wireIngest, wireRestore float64
	if r.conns != nil {
		for _, verb := range ingestVerbs {
			wireIngest += self["rpc."+verb] - self["node."+verb]
		}
		wireRestore = self["rpc.read_batch"] - self["node.read_batch"]
	}
	out["wire.ingest_s_per_gb"] = ratio(wireIngest, ingestGB)
	out["wire.restore_s_per_gb"] = ratio(wireRestore, restoreGB)

	sc := float64(r.n.superChunks)
	out["chunker.chunks_per_mb"] = ratio(float64(r.n.chunks), ingestGB*1e3)
	out["core.super_chunks"] = sc
	out["router.bids_per_sc"] = ratio(float64(r.n.bids), sc)
	out["router.summary_checks_per_sc"] = ratio(float64(r.n.summaryProbe), sc)
	out["router.zero_bid_share"] = ratio(float64(r.n.zeroBid), sc)
	out["client.rpc_msgs_per_sc"] = ratio(float64(r.n.ingestRPCs), sc)
	out["client.restore_rpcs_per_gb"] = ratio(float64(r.n.restoreRPCs), restoreGB)

	// The traced layers' busy seconds over the ingest, which
	// client.pipeline_overlap sets against the untraced wall. The rpc
	// spans contain the node's work; without a wire the twin's count.
	busyLayers := []string{"chunker.next", "fingerprint.sum", "core.partition", "core.handprint",
		"router.route", "director.put_recipe"}
	for _, verb := range ingestVerbs {
		if r.conns != nil {
			busyLayers = append(busyLayers, "rpc."+verb)
		} else {
			busyLayers = append(busyLayers, "node."+verb)
		}
	}
	var busy float64
	for _, name := range busyLayers {
		busy += self[name]
	}
	return out, busy
}
