package migrate

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/router"
	"sigmadedupe/internal/rpc"
	"sigmadedupe/internal/sderr"
	"sigmadedupe/internal/store"
)

// The runtime/pprof labels the fan-outs run under, phase=migrate (Drain,
// Rebalance, Recover, Repair) and phase=reclaim (Delete, Compact), as the
// ingest and restore stages are labelled; the server side labels the
// verbs they call the same way (internal/rpc). One context per label
// set, built once: labelling a goroutine allocates nothing.
var (
	migrateLabels = pprof.WithLabels(context.Background(), pprof.Labels("phase", "migrate"))
	reclaimLabels = pprof.WithLabels(context.Background(), pprof.Labels("phase", "reclaim"))
)

// Node is the transport to one deduplication node — the one interface
// the ingest session (package ingest), the migration engine and the
// restore/delete/reclaim verbs (restore.go, reclaim.go) reach a node
// through, with the signatures *rpc.Client already has; Local is the
// in-process implementation. Bid answers a handprint with the node's
// similarity match count and its storage usage; an empty handprint is
// the plain usage probe.
type Node interface {
	Bid(ctx context.Context, hp core.Handprint) (count int, usage int64, err error)
	// Dedup deduplicates and stores a routed (or migrated) super-chunk on
	// the stream's open container in one node pass — one reference per
	// occurrence, hp's similarity-index entries registered (nil hp: the
	// node's own handprint). Over the wire the fingerprints go first and
	// only the payloads of chunks the node lacks follow; with eager set
	// they all travel in the one call. In process the payloads in hand are
	// passed in the one call either way. fresh[i] reports that chunk i
	// was not held before; on error, that it holds no reference from this
	// call, so an abort releases exactly the others.
	Dedup(ctx context.Context, stream string, sc *core.SuperChunk, hp core.Handprint, eager bool) (fresh []bool, err error)
	// Flush seals the node's open containers.
	Flush(ctx context.Context) error
	// ReadBatch returns one payload per fingerprint, in request order, the
	// node reading each container once; the caller Releases the batch
	// once the payloads are written out.
	ReadBatch(ctx context.Context, fps []fingerprint.Fingerprint) (*rpc.ChunkBatch, error)
	// MigrateCommit makes the stream's writes durable (container sealed,
	// manifest fsynced).
	MigrateCommit(ctx context.Context, stream string) error
	DecRef(ctx context.Context, fps []fingerprint.Fingerprint, ns []int64) error
	RefCounts(ctx context.Context, fps []fingerprint.Fingerprint) ([]int64, error)
	// Compact runs one compaction scan (≤0 threshold selects the node's
	// configured live-ratio floor).
	Compact(ctx context.Context, threshold float64) (store.CompactResult, error)
	// GCStats returns the deletion/compaction counters and storage usage.
	GCStats(ctx context.Context) (store.GCStats, int64, error)
}

// catalog is the recipe and transaction metadata the engine runs
// against — the five director.ClusterMeta methods it uses, so the
// director (in process or over TCP) satisfies it as is.
type catalog interface {
	// Recipes snapshots the whole catalog; the engine owns the copies.
	Recipes(ctx context.Context) ([]director.Recipe, error)
	// ReplaceRecipe rewrites one recipe iff it is still the session and
	// generation the caller planned from, and bumps the generation by
	// one; otherwise it fails with sderr.ErrConflict.
	ReplaceRecipe(ctx context.Context, path string, ifSession, ifGen uint64, chunks []director.ChunkEntry) error
	BeginMigration(ctx context.Context, m director.Migration) (uint64, error)
	EndMigration(ctx context.Context, id uint64) error
	// PendingMigrations lists transactions begun but never ended, by ID.
	PendingMigrations(ctx context.Context) ([]director.Migration, error)
}

// Engine runs drains, rebalances, replication, recovery and repair over
// a deployment's nodes and catalog. It holds no state of its own: build
// one per operation over a consistent snapshot of the node set. Safe
// for concurrent use as far as the Catalog and Nodes it is given are;
// Recover and Repair additionally need backups quiesced.
type Engine struct {
	Catalog catalog
	// Nodes resolves a node's stable cluster ID to its transport, false
	// when the node is gone. It must cover every node an operation
	// touches — including one being drained, which may already have left
	// the membership epoch.
	Nodes func(id int) (Node, bool)
	// HandprintK sizes segment handprints for target selection (default
	// core.DefaultHandprintSize).
	HandprintK int
	// Replicas is the deployment's replica count: Repair re-replicates
	// only when it is at least 2.
	Replicas int
	// Fault is the crash-injection hook (tests; see Stage).
	Fault Fault
}

// GuardNoPending refuses a new membership operation while
// crash-leftover transactions are open in the catalog's journal: their
// reconciliation (Recover) assumes quiesced backups — the references of
// an in-flight, not-yet-committed backup would read as surplus and be
// released — so the operator quiesces and recovers explicitly rather
// than having a routine membership change do it under live traffic.
func GuardNoPending(ctx context.Context, cat catalog) error {
	pending, err := cat.PendingMigrations(ctx)
	if err == nil && len(pending) > 0 {
		err = fmt.Errorf("migrate: %d migration transactions left pending by a crash; quiesce backups and run RecoverMigrations first", len(pending))
	}
	return err
}

func (e *Engine) k() int {
	if e.HandprintK > 0 {
		return e.HandprintK
	}
	return core.DefaultHandprintSize
}

func (e *Engine) faultAt(stage Stage, path string) error {
	if e.Fault != nil {
		return e.Fault(stage, path)
	}
	return nil
}

func (e *Engine) node(id int) (Node, error) {
	if n, ok := e.Nodes(id); ok {
		return n, nil
	}
	return nil, fmt.Errorf("migrate: no node %d: %w", id, sderr.ErrNotFound)
}

func entryFPs(entries []director.ChunkEntry) []fingerprint.Fingerprint {
	fps := make([]fingerprint.Fingerprint, len(entries))
	for i, e := range entries {
		fps[i] = e.FP
	}
	return fps
}

// moveSegment runs one recipe segment's journaled transaction from → to
// and returns the recipe as rewritten plus the payload bytes written.
// As a move the segment's primary attribution swings to the target and
// the source's references are released; as a replication the target
// becomes the segment's replica and the source keeps its copy — that
// decref is the only difference. A recipe that changed hands
// concurrently (re-backup, delete, another migration) fails with
// sderr.ErrConflict after the target's references are rolled back and
// the transaction closed; any other failure leaves the transaction
// pending for Recover.
func (e *Engine) moveSegment(ctx context.Context, r director.Recipe, seg segment, from, to int, replicate bool) (director.Recipe, int64, error) {
	verb := "migrate"
	if replicate {
		verb = "replicate"
	}
	fail := func(what string, node int, err error) (director.Recipe, int64, error) {
		return r, 0, fmt.Errorf("migrate: %s %s: %s node %d: %w", verb, r.Path, what, node, err)
	}
	src, err := e.node(from)
	if err != nil {
		return r, 0, err
	}
	dst, err := e.node(to)
	if err != nil {
		return r, 0, err
	}
	entries := r.Chunks[seg.start : seg.start+seg.count]
	fps := entryFPs(entries)

	// Open the transaction: journaled before any byte lands on the target.
	migID, err := e.Catalog.BeginMigration(ctx, director.Migration{
		Path: r.Path, From: int32(from), To: int32(to),
		Start: seg.start, Count: seg.count, FPs: fps,
	})
	if err != nil {
		return r, 0, err
	}

	// The payloads alias the batch until the target has them.
	batch, err := src.ReadBatch(ctx, fps)
	if err != nil {
		return fail("read", from, err)
	}
	if err := e.faultAt(StageRead, r.Path); err != nil {
		batch.Release()
		return r, 0, err
	}
	sc := &core.SuperChunk{Chunks: make([]core.ChunkRef, len(entries))}
	var bytes int64
	for i, en := range entries {
		sc.Chunks[i] = core.ChunkRef{FP: en.FP, Size: int(en.Size), Data: batch.Data[i]}
		bytes += int64(en.Size)
	}
	_, err = dst.Dedup(ctx, Stream, sc, nil, true)
	batch.Release()
	if err != nil {
		return fail("write", to, err)
	}
	if err := e.faultAt(StageStored, r.Path); err != nil {
		return r, 0, err
	}

	// The new copy is durable before any recipe points at it.
	if err := dst.MigrateCommit(ctx, Stream); err != nil {
		return fail("commit", to, err)
	}
	if err := e.faultAt(StageCommitted, r.Path); err != nil {
		return r, 0, err
	}

	// Rewrite the recipe — THE commit point, conditional on the exact
	// session AND generation we planned from.
	updated := director.Recipe{Path: r.Path, Session: r.Session, Gen: r.Gen + 1,
		Chunks: append([]director.ChunkEntry(nil), r.Chunks...)}
	var dupFPs []fingerprint.Fingerprint
	for i := seg.start; i < seg.start+seg.count; i++ {
		en := &updated.Chunks[i]
		if replicate {
			en.Replica = int32(to)
			continue
		}
		en.Node = int32(to)
		// A segment moving onto the node that already holds its replica
		// collapses to one attribution: clear the replica (repair restores
		// R=2 elsewhere) and remember the now-duplicate reference.
		if en.Replica == int32(to) {
			en.Replica = -1
			dupFPs = append(dupFPs, en.FP)
		}
	}
	if err := e.Catalog.ReplaceRecipe(ctx, r.Path, r.Session, r.Gen, updated.Chunks); err != nil {
		if errors.Is(err, sderr.ErrConflict) {
			// A newer generation owns the path: roll our target refs back,
			// then close the transaction (a failed rollback leaves it
			// pending for recovery).
			order, ns := core.AggregateRefs(fps)
			if derr := dst.DecRef(ctx, order, ns); derr != nil {
				return fail("roll back", to, derr)
			}
			if eerr := e.Catalog.EndMigration(ctx, migID); eerr != nil {
				return r, 0, eerr
			}
		}
		return r, 0, err
	}
	if err := e.faultAt(StageUpdated, r.Path); err != nil {
		return r, 0, err
	}

	if !replicate {
		// Release the source's references; the old copies become dead
		// container space for the compactor.
		order, ns := core.AggregateRefs(fps)
		if err := src.DecRef(ctx, order, ns); err != nil {
			return fail("decref", from, err)
		}
		if len(dupFPs) > 0 {
			order, ns := core.AggregateRefs(dupFPs)
			if err := dst.DecRef(ctx, order, ns); err != nil {
				return fail("decref duplicate replicas on", to, err)
			}
		}
	}
	if err := e.faultAt(StageDecreffed, r.Path); err != nil {
		return r, 0, err
	}

	if err := e.Catalog.EndMigration(ctx, migID); err != nil {
		return r, 0, err
	}
	return updated, bytes, nil
}

// Drain migrates every recipe segment placed on node id to a member of
// members chosen by similarity bids (the node itself is never a
// target), leaving it with no recipe references. Replica attributions
// on the node are cleared first; Repair restores R=2 for those runs on
// the survivors. Segments that keep landing on the node (in-flight
// backups pinned to an older epoch) are rescanned for a few passes,
// then the drain fails.
func (e *Engine) Drain(ctx context.Context, id int, members core.Membership) (res Result, err error) {
	pprof.SetGoroutineLabels(migrateLabels)
	defer pprof.SetGoroutineLabels(ctx) // the caller's, if ctx carries any
	if err := e.StripReplicas(ctx, id); err != nil {
		return res, err
	}
	// Each backup counts once no matter how many passes move pieces of it.
	touched := make(map[string]struct{})
	defer func() { res.Backups = len(touched) }()
	for pass := 0; ; pass++ {
		recipes, err := e.Catalog.Recipes(ctx)
		if err != nil {
			return res, err
		}
		clean := true
		for _, r := range recipes {
			moved, err := e.drainRecipe(ctx, r, id, members)
			res.Add(moved)
			if moved.Segments > 0 {
				clean = false
				touched[r.Path] = struct{}{}
			}
			if err != nil {
				return res, err
			}
		}
		if clean {
			return res, nil
		}
		if pass >= 8 {
			return res, fmt.Errorf("migrate: node %d keeps receiving traffic; quiesce backup sessions before removing it", id)
		}
	}
}

// drainRecipe moves every segment of one recipe off node from.
func (e *Engine) drainRecipe(ctx context.Context, r director.Recipe, from int, members core.Membership) (Result, error) {
	var res Result
	onNode := func(en director.ChunkEntry) bool { return int(en.Node) == from }
	for {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		seg, ok := nextRun(r.Chunks, 0, onNode)
		if !ok {
			return res, nil
		}
		to, err := e.pickTarget(ctx, r.Chunks[seg.start:seg.start+seg.count], from, members)
		if err != nil {
			return res, err
		}
		updated, bytes, err := e.moveSegment(ctx, r, seg, from, to, false)
		if errors.Is(err, sderr.ErrConflict) {
			// The newer generation wins, this snapshot is dead; the next
			// drain pass re-reads the catalog.
			return res, nil
		}
		if err != nil {
			return res, err
		}
		r = updated
		res.Segments++
		res.Chunks += int64(seg.count)
		res.Bytes += bytes
	}
}

// pickTarget selects a migration target for one segment: Algorithm 1
// over the survivors — the segment routed as a super-chunk by the Sigma
// router (seed: its first fingerprint), bids going out through the node
// transport, the source never a candidate.
func (e *Engine) pickTarget(ctx context.Context, entries []director.ChunkEntry, from int, members core.Membership) (int, error) {
	sc := &core.SuperChunk{Chunks: make([]core.ChunkRef, len(entries))}
	for i, en := range entries {
		sc.Chunks[i] = core.ChunkRef{FP: en.FP, Size: int(en.Size)}
	}
	v := NewView(ctx, members.Without(from), e.Nodes)
	d := (&router.SigmaRouter{K: e.k()}).Route(sc, v)
	if err := v.Err(); err != nil {
		return 0, fmt.Errorf("migrate: %w", err)
	}
	return d.Assignments[0].Node, nil
}

// Rebalance migrates segments from members above the cluster's mean
// usage onto underloaded ones (typically a freshly added node): a
// segment moves to the rendezvous owner of its representative
// fingerprint when that owner sits below the mean and the segment's
// current home above it. Placement stays discoverable by future
// backups — the owner is one of the segment's routing candidates, and
// the migrated similarity-index entries make it win their bids. One
// pass; the usage snapshot is maintained as segments move so it cannot
// overshoot the balance point.
func (e *Engine) Rebalance(ctx context.Context, members core.Membership) (Result, error) {
	pprof.SetGoroutineLabels(migrateLabels)
	defer pprof.SetGoroutineLabels(ctx) // the caller's, if ctx carries any
	var res Result
	if members.Len() < 2 {
		return res, nil
	}
	usage := make(map[int]int64, members.Len())
	var total int64
	for _, id := range members.Nodes {
		nd, err := e.node(id)
		if err != nil {
			return res, err
		}
		_, u, err := nd.Bid(ctx, nil)
		if err != nil {
			return res, fmt.Errorf("migrate: rebalance: usage of node %d: %w", id, err)
		}
		usage[id] = u
		total += u
	}
	mean := total / int64(members.Len())

	recipes, err := e.Catalog.Recipes(ctx)
	if err != nil {
		return res, err
	}
	anyRun := func(director.ChunkEntry) bool { return true }
	for _, r := range recipes {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		touched := false
		// Positions are stable under migration (only the attribution
		// changes), so the walk stays valid as earlier segments move.
		for at := 0; ; {
			seg, ok := nextRun(r.Chunks, at, anyRun)
			if !ok {
				break
			}
			at = seg.start + seg.count
			from := int(r.Chunks[seg.start].Node)
			if !overloaded(usage[from], mean) {
				continue // a node outside the epoch reads as usage 0
			}
			owner := members.Owner(core.NewHandprint(entryFPs(r.Chunks[seg.start:at]), e.k())[0])
			if owner == from || !underloaded(usage[owner], mean) {
				continue
			}
			updated, bytes, err := e.moveSegment(ctx, r, seg, from, owner, false)
			if errors.Is(err, sderr.ErrConflict) {
				break // recipe superseded mid-pass; skip its remainder
			}
			if err != nil {
				return res, err
			}
			r = updated
			usage[from] -= bytes
			usage[owner] += bytes
			res.Segments++
			res.Chunks += int64(seg.count)
			res.Bytes += bytes
			touched = true
		}
		if touched {
			res.Backups++
		}
	}
	return res, nil
}

// Recover settles every pending transaction in the catalog's journal by
// reference reconciliation on its two endpoints, converging each
// half-done move or replication to old-or-new placement with zero
// leaked references. An endpoint that no longer exists took its
// references with it. Idempotent; callers must quiesce backups and
// other migrations (an in-flight backup's uncommitted references would
// read as surplus).
func (e *Engine) Recover(ctx context.Context) error {
	pprof.SetGoroutineLabels(migrateLabels)
	defer pprof.SetGoroutineLabels(ctx) // the caller's, if ctx carries any
	return e.settlePending(ctx)
}

// settlePending is Recover under the caller's labels.
func (e *Engine) settlePending(ctx context.Context) error {
	pending, err := e.Catalog.PendingMigrations(ctx)
	if err != nil {
		return err
	}
	if len(pending) == 0 {
		return nil
	}
	// One catalog snapshot serves every transaction: reconciliation
	// releases references and never rewrites recipes, and the callers'
	// quiescence means nobody else rewrites them meanwhile.
	recipes, err := e.Catalog.Recipes(ctx)
	if err != nil {
		return err
	}
	for _, mig := range pending {
		if _, err := e.releaseSurplus(ctx, recipes, []int{int(mig.To), int(mig.From)}, mig.FPs, true); err != nil {
			return fmt.Errorf("migrate: recover transaction %d: %w", mig.ID, err)
		}
		if err := e.Catalog.EndMigration(ctx, mig.ID); err != nil {
			return err
		}
	}
	return nil
}

// releaseSurplus compares each listed node's actual reference counts
// against what the recipes' primary and replica attributions account
// for and decrefs exactly the surplus, returning the references
// released. The comparison covers the fingerprints in only (duplicates
// allowed) — or, when only is nil, every fingerprint the recipes hold.
// A node the deployment no longer has is skipped when skipGone, an
// error otherwise.
func (e *Engine) releaseSurplus(ctx context.Context, recipes []director.Recipe, nodes []int, only []fingerprint.Fingerprint, skipGone bool) (int64, error) {
	var uniq []fingerprint.Fingerprint
	idx := make(map[fingerprint.Fingerprint]int, len(only))
	for _, fp := range only {
		if _, ok := idx[fp]; !ok {
			idx[fp] = len(uniq)
			uniq = append(uniq, fp)
		}
	}
	// Expected counts stay sparse — per node, only the fingerprints
	// attributed to it — so memory follows the catalog's size, not
	// nodes × catalog.
	expected := make(map[int32]map[int]int64, len(nodes))
	for _, id := range nodes {
		expected[int32(id)] = make(map[int]int64)
	}
	for _, r := range recipes {
		for _, en := range r.Chunks {
			i, ok := idx[en.FP]
			if !ok {
				if only != nil {
					continue
				}
				i = len(uniq)
				idx[en.FP] = i
				uniq = append(uniq, en.FP)
			}
			if exp := expected[en.Node]; exp != nil {
				exp[i]++
			}
			if exp := expected[en.Replica]; exp != nil {
				exp[i]++
			}
		}
	}
	if len(uniq) == 0 {
		return 0, nil
	}
	exp := make([]int64, len(uniq))
	var released int64
	for _, id := range nodes {
		if err := ctx.Err(); err != nil {
			return released, err
		}
		nd, err := e.node(id)
		if err != nil {
			if skipGone {
				continue
			}
			return released, err
		}
		actual, err := nd.RefCounts(ctx, uniq)
		if err != nil {
			return released, fmt.Errorf("refcounts of node %d: %w", id, err)
		}
		if len(actual) != len(uniq) {
			return released, fmt.Errorf("refcounts of node %d: got %d counts, want %d", id, len(actual), len(uniq))
		}
		clear(exp)
		for i, n := range expected[int32(id)] {
			exp[i] = n
		}
		over, ns := surplus(uniq, actual, exp)
		if len(over) == 0 {
			continue
		}
		if err := nd.DecRef(ctx, over, ns); err != nil {
			return released, fmt.Errorf("release surplus on node %d: %w", id, err)
		}
		for _, n := range ns {
			released += n
		}
	}
	return released, nil
}
