package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"sigmadedupe"
	"sigmadedupe/internal/workload"
)

// oracle counts every operation whose outcome the benchmark checks:
// backups, byte-verified restores, deletes, compactions and the
// live-bytes-zero check. failed/attempted is the error rate.
type oracle struct {
	mu        sync.Mutex
	attempted int
	failed    int
}

func (o *oracle) check(what string, err error) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Fprintf(os.Stderr, "bench: FAILED %s: %v\n", what, err)
		return false
	}
	return true
}

// fixedWriter writes into a preallocated buffer so the restore clock
// never pays for buffer growth.
type fixedWriter struct {
	buf []byte
	n   int
}

func (w *fixedWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > len(w.buf) {
		return 0, io.ErrShortBuffer
	}
	copy(w.buf[w.n:], p)
	w.n += len(p)
	return len(p), nil
}

// newPhase starts a lifecycle phase from a collected heap, so a phase is
// charged for its own garbage only and no collection of the previous
// phase's leftovers lands inside a short one. (In production the phases
// run hours apart, not back to back in one heap.)
func newPhase() stopwatch {
	runtime.GC()
	return stopwatch{}
}

// phase is the wall and CPU time one lifecycle phase used.
type phase struct {
	wall float64
	cpu  float64
}

// stopwatch accumulates a phase over several timed regions.
type stopwatch struct {
	p     phase
	start time.Time
	cpu0  float64
}

func (s *stopwatch) begin() { s.cpu0, s.start = cpuSeconds(), time.Now() }
func (s *stopwatch) end() {
	s.p.wall += time.Since(s.start).Seconds()
	s.p.cpu += cpuSeconds() - s.cpu0
}

// repResult is what one repetition of the lifecycle measured.
type repResult struct {
	setup, ingest, restore, reclaim, postGC, recover phase

	timedBytes, restoredBytes, deletedBytes, postGCBytes int64

	afterIngest  sigmadedupe.BackendStats
	afterReclaim sigmadedupe.BackendStats
	sessions     sigmadedupe.SessionStats // summed over the ingest sessions
	gcReclaim    sigmadedupe.GCResult
	gcAfter      sigmadedupe.GCStats
	liveUnique   int64
	diskBytes    int64
	backupMs     []float64 // latency of every timed Backup call
	mem          memDelta  // allocator activity over the timed ingest
	layers       map[string]float64
	canary       float64
}

type memDelta struct {
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPauseMs           float64
}

func memSnapshot() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(a, b runtime.MemStats) memDelta {
	return memDelta{
		mallocs:    b.Mallocs - a.Mallocs,
		allocBytes: b.TotalAlloc - a.TotalAlloc,
		gcCycles:   b.NumGC - a.NumGC,
		gcPauseMs:  float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6,
	}
}

// ingestStreams backs up items[from[s]:to[s]] of every stream, one
// goroutine per stream (closed loop: a stream issues its next Backup when
// the previous returns), then flushes every session and the backend (the
// simulator seals node containers only on the backend's Flush). It
// returns the per-call latencies.
func ingestStreams(ctx context.Context, be sigmadedupe.Backend, ds *dataset, sessions []*sigmadedupe.Session,
	bufs [][]byte, prev []*workload.Item, from, to []int, o *oracle) []float64 {
	lat := make([][]float64, len(sessions))
	var wg sync.WaitGroup
	for s := range sessions {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			items := ds.streams[s]
			for i := from[s]; i < to[s]; i++ {
				it := items[i]
				data := ds.resident[it.Name]
				if data == nil {
					bufs[s] = fill(bufs[s], it, prev[s])
					data, prev[s] = bufs[s], &items[i]
				}
				t0 := time.Now()
				err := sessions[s].Backup(ctx, it.Name, bytes.NewReader(data))
				lat[s] = append(lat[s], float64(time.Since(t0).Microseconds())/1e3)
				o.check("backup "+it.Name, err)
			}
			o.check(fmt.Sprintf("flush stream %d", s), sessions[s].Flush(ctx))
		}(s)
	}
	wg.Wait()
	o.check("flush backend", be.Flush(ctx))
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	return all
}

// restoreVerified restores one item through the backend into out,
// charging only the Restore call to sw, and compares the SHA-256 of what
// came back with the generator's digest after the clock has stopped.
func restoreVerified(ctx context.Context, be sigmadedupe.Backend, ds *dataset, it workload.Item,
	out []byte, sw *stopwatch, o *oracle) int64 {
	w := &fixedWriter{buf: out}
	sw.begin()
	err := be.Restore(ctx, it.Name, w)
	sw.end()
	if err == nil {
		if got := sha256.Sum256(out[:w.n]); got != ds.digests[it.Name] {
			err = fmt.Errorf("restored %d bytes, digest mismatch", w.n)
		}
	}
	o.check("restore "+it.Name, err)
	return int64(w.n)
}

// runRep runs the lifecycle once on a fresh cluster: setup (start the
// cluster, ingest and flush the seed portion), timed ingest, timed
// restore, timed reclaim, a verified restore after compaction, and
// delete-everything with the live-bytes-zero check.
func runRep(ctx context.Context, sp *spec, ds *dataset, dir string, o *oracle) (res repResult, err error) {
	res.canary = canaryMBs()
	nStreams := len(ds.streams)

	// Setup.
	var sw stopwatch
	sw.begin()
	dep, err := deploy(ctx, sp, dir)
	if err != nil {
		return res, fmt.Errorf("deploy: %w", err)
	}
	defer func() {
		if cerr := dep.close(); err == nil && cerr != nil {
			err = fmt.Errorf("teardown: %w", cerr)
		}
	}()
	sessions := make([]*sigmadedupe.Session, nStreams)
	for s := range sessions {
		sess, err := dep.be.NewSession(ctx,
			sigmadedupe.WithSessionName(fmt.Sprintf("stream%d", s)),
			sigmadedupe.WithChunkSpec(sp.chunk))
		if err != nil {
			return res, fmt.Errorf("open session: %w", err)
		}
		sessions[s] = sess
	}
	closeSessions := func() {
		for _, s := range sessions {
			if s != nil {
				s.Close()
			}
		}
		sessions = nil
	}
	defer closeSessions()
	bufs := make([][]byte, nStreams)
	prev := make([]*workload.Item, nStreams)
	zero, ends := ds.bounds()
	ingestStreams(ctx, dep.be, ds, sessions, bufs, prev, zero, ds.seedItems, o)
	sw.end()
	res.setup = sw.p

	// Timed ingest.
	m0 := memSnapshot()
	sw = newPhase()
	sw.begin()
	res.backupMs = ingestStreams(ctx, dep.be, ds, sessions, bufs, prev, ds.seedItems, ends, o)
	sw.end()
	res.ingest = sw.p
	res.mem = memSince(m0, memSnapshot())
	res.timedBytes = ds.timedBytes()
	for _, s := range sessions {
		st := s.Stats()
		res.sessions.LogicalBytes += st.LogicalBytes
		res.sessions.TransferredBytes += st.TransferredBytes
		res.sessions.SuperChunks += st.SuperChunks
		res.sessions.ChunkBufAllocs += st.ChunkBufAllocs
		res.sessions.ChunkBufReuses += st.ChunkBufReuses
		res.sessions.PeakBufferedBytes = max(res.sessions.PeakBufferedBytes, st.PeakBufferedBytes)
	}
	if res.afterIngest, err = dep.be.Stats(ctx); err != nil {
		return res, fmt.Errorf("stats: %w", err)
	}
	res.layers = dep.counters()
	if dep.sim != nil {
		st := dep.sim.SimStats()
		res.layers["cluster.normalized_dr"] = st.NormalizedDR
		res.layers["cluster.effective_dr"] = st.EffectiveDR
		res.layers["cluster.msgs_per_sc"] = ratio(float64(st.FingerprintLookups), float64(st.SuperChunks))
	}
	closeSessions()

	// The durable workload restores what a rebooted cluster recovered.
	if sp.disk {
		res.diskBytes = dep.diskBytes()
		sw = newPhase()
		sw.begin()
		err := dep.restart(ctx)
		sw.end()
		res.recover = sw.p
		if !o.check("restart", err) {
			return res, fmt.Errorf("restart: %w", err)
		}
	}

	// Timed restore.
	out := make([]byte, ds.maxRestoreSize())
	sw = newPhase()
	for _, it := range ds.restore {
		res.restoredBytes += restoreVerified(ctx, dep.be, ds, it, out, &sw, o)
	}
	res.restore = sw.p
	for k, v := range dep.restoreCounters() {
		res.layers[k] = v
	}

	// Timed reclaim: delete the oldest half, compact.
	sw = newPhase()
	sw.begin()
	for _, it := range ds.deleteFirst {
		o.check("delete "+it.Name, dep.be.Delete(ctx, it.Name))
		res.deletedBytes += it.Size()
	}
	gc, cerr := dep.be.Compact(ctx, 0)
	sw.end()
	o.check("compact", cerr)
	res.reclaim, res.gcReclaim = sw.p, gc
	if res.afterReclaim, err = dep.be.Stats(ctx); err != nil {
		return res, fmt.Errorf("stats: %w", err)
	}
	if res.gcAfter, err = dep.gc(ctx); err != nil {
		return res, fmt.Errorf("gc stats: %w", err)
	}
	res.liveUnique = ds.liveUniqueBytes(ds.deleteFirst)

	// Restore after compaction.
	sw = newPhase()
	res.postGCBytes = restoreVerified(ctx, dep.be, ds, ds.newest, out, &sw, o)
	res.postGC = sw.p

	// Delete everything, compact, and nothing may be left alive.
	gone := make(map[string]bool, len(ds.deleteFirst))
	for _, it := range ds.deleteFirst {
		gone[it.Name] = true
	}
	for _, it := range ds.all() {
		if !gone[it.Name] {
			o.check("delete "+it.Name, dep.be.Delete(ctx, it.Name))
		}
	}
	_, cerr = dep.be.Compact(ctx, 0)
	o.check("compact", cerr)
	final, gerr := dep.gc(ctx)
	if gerr == nil && final.LiveBytes != 0 {
		gerr = fmt.Errorf("%d live bytes after deleting every backup", final.LiveBytes)
	}
	o.check("live bytes zero", gerr)

	res.canary = (res.canary + canaryMBs()) / 2
	return res, nil
}
