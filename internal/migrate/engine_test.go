package migrate

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/store"
)

// rig is a three-node in-process deployment: Local node transports and
// an in-RAM director as the catalog.
type rig struct {
	t       *testing.T
	nodes   map[int]*store.Engine
	dir     *director.Director
	members core.Membership
	content map[fingerprint.Fingerprint][]byte
}

const runChunks = 8 // chunks per placed run in rig.backup

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{t: t, nodes: make(map[int]*store.Engine), dir: director.New(),
		members: core.DenseMembership(3), content: make(map[fingerprint.Fingerprint][]byte)}
	for _, id := range r.members.Nodes {
		n, err := store.New(store.Config{ID: id, KeepPayloads: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		r.nodes[id] = n
	}
	return r
}

func (r *rig) engine(replicas int, fault Fault) *Engine {
	return &Engine{
		Catalog: r.dir,
		Nodes: func(id int) (Node, bool) {
			n, ok := r.nodes[id]
			return Local(n), ok
		},
		Replicas: replicas,
		Fault:    fault,
	}
}

// backup stores one recipe whose consecutive runs of runChunks unique
// chunks sit on the given nodes, sealed.
func (r *rig) backup(path string, seed int64, placement ...int) {
	r.t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var entries []director.ChunkEntry
	for _, id := range placement {
		sc := &core.SuperChunk{}
		for i := 0; i < runChunks; i++ {
			data := make([]byte, 4096)
			rng.Read(data)
			f := fingerprint.Sum(data)
			r.content[f] = data
			sc.Chunks = append(sc.Chunks, core.ChunkRef{FP: f, Size: len(data), Data: data})
			entries = append(entries, director.ChunkEntry{FP: f, Size: int32(len(data)), Node: int32(id), Replica: -1})
		}
		if _, err := r.nodes[id].StoreSuperChunk("w", sc); err != nil {
			r.t.Fatal(err)
		}
	}
	for _, n := range r.nodes {
		if err := n.Flush(); err != nil {
			r.t.Fatal(err)
		}
	}
	r.putRecipe(path, entries)
}

// putRecipe records entries — chunks already stored — as the backup
// path, so a test can also shape a recipe rig.backup never writes.
func (r *rig) putRecipe(path string, entries []director.ChunkEntry) {
	r.t.Helper()
	ctx := context.Background()
	sess, err := r.dir.BeginSession(ctx, "w", "")
	if err != nil {
		r.t.Fatal(err)
	}
	if err := r.dir.PutRecipe(ctx, sess, path, entries); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rig) recipes() []director.Recipe {
	r.t.Helper()
	out, err := r.dir.Recipes(context.Background())
	if err != nil {
		r.t.Fatal(err)
	}
	return out
}

// changed counts recipe entries whose attribution differs from before.
func (r *rig) changed(before []director.Recipe) int {
	n := 0
	for i, rec := range r.recipes() {
		for j, e := range rec.Chunks {
			if e != before[i].Chunks[j] {
				n++
			}
		}
	}
	return n
}

// check asserts the two invariants every crash must preserve: each
// node's reference counts equal exactly what the catalog's primary and
// replica attributions imply (zero leaks, zero dangling), and every
// attributed copy reads back byte-identical.
func (r *rig) check(when string) {
	r.t.Helper()
	var all []fingerprint.Fingerprint
	for f := range r.content {
		all = append(all, f)
	}
	expected := make(map[int]map[fingerprint.Fingerprint]int64)
	for id := range r.nodes {
		expected[id] = make(map[fingerprint.Fingerprint]int64)
	}
	for _, rec := range r.recipes() {
		for _, e := range rec.Chunks {
			for _, at := range []int32{e.Node, e.Replica} {
				if at < 0 {
					continue
				}
				expected[int(at)][e.FP]++
				data, err := r.nodes[int(at)].ReadChunk(e.FP)
				if err != nil || !bytes.Equal(data, r.content[e.FP]) {
					r.t.Fatalf("%s: %s chunk %s unreadable on node %d: %v", when, rec.Path, e.FP.Short(), at, err)
				}
			}
		}
	}
	for id, n := range r.nodes {
		for i, got := range n.RefCounts(all) {
			if want := expected[id][all[i]]; got != want {
				r.t.Fatalf("%s: node %d holds %d refs on %s, catalog expects %d", when, id, got, all[i].Short(), want)
			}
		}
	}
}

func (r *rig) pending() int {
	r.t.Helper()
	p, err := r.dir.PendingMigrations(context.Background())
	if err != nil {
		r.t.Fatal(err)
	}
	return len(p)
}

// TestCrashMatrix is the engine's crash matrix: a drain (move) and a
// replication pass are each aborted at every fault stage; the faulted
// segment must sit wholly on its old or its new placement, Recover must
// reconcile every node's reference counts to exactly what the catalog
// implies, a following Repair must find nothing left to release (and a
// second one nothing to do at all), and the rerun must complete.
func TestCrashMatrix(t *testing.T) {
	ctx := context.Background()
	for _, replicate := range []bool{false, true} {
		for _, stage := range []Stage{StageRead, StageStored, StageCommitted, StageUpdated, StageDecreffed} {
			name := fmt.Sprintf("move/%s", stage)
			if replicate {
				name = fmt.Sprintf("replicate/%s", stage)
			}
			t.Run(name, func(t *testing.T) {
				r := newRig(t)
				// Two runs on node 0 (one 16-chunk segment), then one
				// elsewhere; a second recipe shares nothing.
				r.backup("/a", 1, 0, 0, 1)
				r.backup("/b", 2, 2, 0)
				before := r.recipes()
				replicas := 0
				if replicate {
					replicas = 2
				}
				run := func(e *Engine) error {
					if !replicate {
						_, err := e.Drain(ctx, 0, r.members.Without(0))
						return err
					}
					for _, rec := range r.recipes() {
						if _, err := e.ReplicateRecipe(ctx, rec, r.members); err != nil {
							return err
						}
					}
					return nil
				}

				boom := errors.New("injected crash")
				err := run(r.engine(replicas, func(s Stage, _ string) error {
					if s == stage {
						return boom
					}
					return nil
				}))
				if !errors.Is(err, boom) {
					t.Fatalf("faulted run: err = %v, want the injected crash", err)
				}
				if r.pending() != 1 {
					t.Fatalf("%d transactions pending after the crash, want 1", r.pending())
				}
				// Old placement before the recipe rewrite, new after it —
				// never a torn segment.
				wantChanged := 0
				if stage == StageUpdated || stage == StageDecreffed {
					wantChanged = 2 * runChunks
				}
				if got := r.changed(before); got != wantChanged {
					t.Fatalf("%d recipe entries changed across a crash at %s, want %d", got, stage, wantChanged)
				}

				eng := r.engine(replicas, nil)
				if err := eng.Recover(ctx); err != nil {
					t.Fatal(err)
				}
				if r.pending() != 0 {
					t.Fatal("recovery left transactions pending")
				}
				r.check("after Recover")
				if got := r.changed(before); got != wantChanged {
					t.Fatalf("Recover rewrote recipes: %d entries changed, want %d", got, wantChanged)
				}

				// Recover settled everything it had to: Repair releases
				// nothing more (on the R=2 rig it finishes the replication),
				// and a second Repair is a no-op.
				rep, err := eng.Repair(ctx, r.members)
				if err != nil {
					t.Fatal(err)
				}
				if rep.ReleasedRefs != 0 || rep.Promoted != 0 || (!replicate && rep != (RepairResult{})) {
					t.Fatalf("Repair after Recover = %+v, want nothing released or promoted", rep)
				}
				if rep, err = eng.Repair(ctx, r.members); err != nil || rep != (RepairResult{}) {
					t.Fatalf("second Repair = %+v, %v, want a no-op", rep, err)
				}
				r.check("after Repair")

				// The rerun completes the job.
				if err := run(eng); err != nil {
					t.Fatalf("rerun after recovery: %v", err)
				}
				for _, rec := range r.recipes() {
					for _, e := range rec.Chunks {
						if !replicate && e.Node == 0 {
							t.Fatalf("%s still has a chunk on drained node 0", rec.Path)
						}
						if replicate && e.Replica < 0 {
							t.Fatalf("%s still has a replica-less chunk", rec.Path)
						}
					}
				}
				r.check("after the rerun")
			})
		}
	}
}

// TestRepairHonorsReplicaCount: the engine re-replicates only on an R=2
// deployment; with Replicas below 2 a replica-less catalog is already
// converged.
func TestRepairHonorsReplicaCount(t *testing.T) {
	ctx := context.Background()
	r := newRig(t)
	r.backup("/a", 3, 0, 1, 2)
	for _, replicas := range []int{0, 1} {
		rep, err := r.engine(replicas, nil).Repair(ctx, r.members)
		if err != nil || rep != (RepairResult{}) {
			t.Fatalf("Repair with Replicas=%d = %+v, %v, want a no-op", replicas, rep, err)
		}
	}
	rep, err := r.engine(2, nil).Repair(ctx, r.members)
	if err != nil || rep.Rereplicated != 3*runChunks {
		t.Fatalf("Repair with Replicas=2 = %+v, %v, want %d chunks re-replicated", rep, err, 3*runChunks)
	}
	r.check("after R=2 repair")
}
