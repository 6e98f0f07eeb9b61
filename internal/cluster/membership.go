// Elastic membership, R=2 replication and repair for the simulated
// cluster. The algorithms are package migrate's single engine; this
// file owns what is genuinely simulator-side: membership epochs and
// their grace period, the configuration guard, node creation and
// death, and handing the engine the in-process node transport
// (migrate.Local) and the cluster's director as its catalog.
package cluster

import (
	"context"
	"fmt"
	"time"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/migrate"
	"sigmadedupe/internal/router"
	"sigmadedupe/internal/sderr"
)

// MigrationResult summarizes the super-chunk migration behind one
// membership change or rebalance pass.
type MigrationResult = migrate.Result

// SetMigrateFault installs a fault-injection hook invoked at each stage
// of each segment's transaction; a non-nil return aborts it mid-flight,
// emulating a crash at that point (the membership analogue of
// store.SetCompactFault). Tests only; not safe to call while a
// migration runs.
func (c *Cluster) SetMigrateFault(fn migrate.Fault) { c.migrateFault = fn }

// Director returns the cluster's metadata plane (see Cluster.dir).
func (c *Cluster) Director() *director.Director { return c.dir }

// Node resolves a node of the live registry to its in-process transport
// (the migrate.Engine.Nodes shape); false once the node was removed or
// killed.
func (c *Cluster) Node(id int) (migrate.Node, bool) {
	n, err := c.nodeByID(id)
	return migrate.Local(n), err == nil
}

// engine builds the migration engine over the live node registry and
// the director's catalog.
func (c *Cluster) engine() *migrate.Engine {
	return &migrate.Engine{
		Catalog:    c.dir,
		Nodes:      c.Node,
		HandprintK: c.cfg.HandprintK,
		Replicas:   c.cfg.Replicas,
		Fault:      c.migrateFault,
	}
}

// elasticGuard rejects membership operations on configurations that
// cannot support them: only the Sigma scheme's similarity routing is
// membership-aware, and migration copies payloads, so they must be
// retained.
func (c *Cluster) elasticGuard(needPayloads bool) error {
	if c.cfg.Scheme != router.Sigma {
		return fmt.Errorf("cluster: membership changes require the Sigma routing scheme (have %s)", c.rt.Name())
	}
	if needPayloads && !c.cfg.Node.KeepPayloads && c.cfg.Node.Dir == "" {
		return fmt.Errorf("cluster: migration requires payload-carrying nodes (KeepPayloads or a durable Dir)")
	}
	return nil
}

// AddNode commits a new membership epoch containing one fresh node and
// returns its ID. The node starts empty: new backups start bidding it
// in immediately (zero-resemblance super-chunks fill the least-loaded
// valley first), existing placements are untouched until Rebalance.
func (c *Cluster) AddNode() (int, error) {
	if err := c.elasticGuard(false); err != nil {
		return 0, err
	}
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	id := c.maxID + 1
	n, err := newClusterNode(c.cfg, id)
	if err != nil {
		return 0, err
	}
	c.maxID = id
	c.nodes[id] = n
	members := c.cur.Load().members
	c.commitEpochLocked(core.NewMembership(members.Epoch+1, append(members.Nodes, id)))
	return id, nil
}

// RemoveNode drains node id and commits a membership epoch without it:
// the epoch changes first (new items stop routing to the node), every
// recipe segment placed on it migrates to a surviving member chosen by
// similarity bids, and the emptied node is closed. Pre-existing backups
// restore byte-identically afterwards — their recipes were repointed
// segment by segment under the migration commit protocol. Concurrent
// backups quiesce within one item (epochs pin per item); a node that
// keeps receiving traffic after several drain passes fails the call.
func (c *Cluster) RemoveNode(ctx context.Context, id int) (MigrationResult, error) {
	var res MigrationResult
	if err := c.elasticGuard(true); err != nil {
		return res, err
	}
	if err := migrate.GuardNoPending(ctx, c.dir); err != nil {
		return res, err
	}
	c.memberMu.Lock()
	if c.nodes[id] == nil {
		c.memberMu.Unlock()
		return res, fmt.Errorf("cluster: no node %d", id)
	}
	if members := c.cur.Load().members; members.Contains(id) {
		if members.Len() == 1 {
			c.memberMu.Unlock()
			return res, fmt.Errorf("cluster: cannot remove the last node")
		}
		// Commit the shrunken epoch first: items beginning after this
		// point route only to survivors, so the drain below converges.
		// The node object stays registered (bids score it zero via the
		// membership, but reads, decrefs and the drain still reach it)
		// until it is empty — and a drain aborted by a crash resumes
		// here, finding the node already outside the epoch.
		c.commitEpochLocked(core.NewMembership(members.Epoch+1, members.Without(id).Nodes))
	}
	remaining := c.cur.Load().members
	c.memberMu.Unlock()

	// Grace period: wait out every backup item still pinned to an epoch
	// that contained the node. After this, no in-flight item can store
	// another chunk on it — the drain's final scan is definitive and the
	// close below cannot race a late store.
	if err := c.waitEpochQuiesce(ctx, remaining.Epoch); err != nil {
		return res, err
	}

	// Drain: migrate every segment placed on the node (replica
	// attributions on it are cleared first; Repair restores R=2 for those
	// runs on the survivors).
	res, err := c.engine().Drain(ctx, id, remaining)
	if err != nil {
		return res, err
	}

	c.memberMu.Lock()
	n := c.nodes[id]
	delete(c.nodes, id)
	c.memberMu.Unlock()
	if err := n.Close(); err != nil {
		return res, fmt.Errorf("cluster: close removed node %d: %w", id, err)
	}
	return res, nil
}

// KillNode hard-kills node id: it leaves the membership immediately —
// no drain, no migration, its chunks are unreachable from the cluster's
// perspective and only replicas keep its backups restorable. In-process
// resources are released best-effort (a kill models loss of
// reachability, not an orderly shutdown, so close errors are moot).
// Refuses to kill the last member.
func (c *Cluster) KillNode(id int) error {
	c.memberMu.Lock()
	n := c.nodes[id]
	if n == nil {
		c.memberMu.Unlock()
		return fmt.Errorf("cluster: no node %d", id)
	}
	if members := c.cur.Load().members; members.Contains(id) {
		if members.Len() == 1 {
			c.memberMu.Unlock()
			return fmt.Errorf("cluster: cannot kill the last node")
		}
		c.commitEpochLocked(core.NewMembership(members.Epoch+1, members.Without(id).Nodes))
	}
	delete(c.nodes, id)
	c.memberMu.Unlock()
	_ = n.Close()
	return nil
}

// Rebalance migrates super-chunk segments from overloaded members onto
// underloaded rendezvous owners (typically a freshly added node); see
// migrate.Engine.Rebalance for the policy.
func (c *Cluster) Rebalance(ctx context.Context) (MigrationResult, error) {
	if err := c.elasticGuard(true); err != nil {
		return MigrationResult{}, err
	}
	if err := migrate.GuardNoPending(ctx, c.dir); err != nil {
		return MigrationResult{}, err
	}
	return c.engine().Rebalance(ctx, c.Membership())
}

// Repair is the anti-entropy pass that re-converges the cluster after a
// node crash (or any interrupted replication/migration); see
// migrate.Engine.Repair. Like migration recovery it assumes quiesced
// traffic and a catalog that accounts for every reference (every backup
// fed through an ingest session, none through the trace feed): recipes
// are the sole source of references it reconciles against.
func (c *Cluster) Repair(ctx context.Context) (migrate.RepairResult, error) {
	if err := c.elasticGuard(true); err != nil {
		return migrate.RepairResult{}, err
	}
	return c.engine().Repair(ctx, c.Membership())
}

// RecoverMigrations settles every pending transaction by reference
// reconciliation (migrate.Engine.Recover). Callers must quiesce backups,
// deletes and other migrations first.
func (c *Cluster) RecoverMigrations(ctx context.Context) error {
	return c.engine().Recover(ctx)
}

// ReplicateRun is the simulator's R=2 write strategy (the Run of an
// ingest session's Replication): it gives one just-routed run — the
// super-chunk in hand and the recipe entries of the uncommitted item at
// path just made for it, routed within members — its second copy under
// the engine's journaled transaction. The primary's side of the
// transport reads the payloads from hand, so its open container need
// not seal to be read back. A failure fails the backup, so no committed
// item is ever left without a replica while two members are live.
func (c *Cluster) ReplicateRun(ctx context.Context, members core.Membership, path string, sc *core.SuperChunk, run []director.ChunkEntry) error {
	primary := int(run[0].Node)
	e := c.engine()
	e.Catalog = runCatalog{e.Catalog, run}
	e.Nodes = func(id int) (migrate.Node, bool) {
		n, ok := c.Node(id)
		w := writePath{Node: n}
		if id == primary {
			w.inHand = sc
		}
		return w, ok
	}
	_, err := e.ReplicateRecipe(ctx, director.Recipe{Path: path, Chunks: run}, members)
	return err
}

// runCatalog is the catalog as write-path replication sees it: the
// director journals the transaction, but the "recipe" is only the run
// just appended to the stream's pending entries, which nobody else can
// see until the item commits — so the engine's rewrite is an
// unconditional copy that costs the run, not the whole item.
// Transactions it journals carry run-relative segment positions;
// recovery goes by their endpoints and fingerprints only.
type runCatalog struct {
	migrate.Catalog
	run []director.ChunkEntry
}

func (k runCatalog) ReplaceRecipe(_ context.Context, _ string, _, _ uint64, chunks []director.ChunkEntry) error {
	copy(k.run, chunks)
	return nil
}

// writePath is the node transport of write-path replication. Reads of a
// run's primary come from the super-chunk in hand, and the commit is
// deferred: replicas land in the migrate stream's open container and
// seal at Cluster.Flush together with the primaries' — the director they
// are attributed in lives in this process's RAM, so sealing per run
// would buy no crash safety, only one small container per run.
type writePath struct {
	migrate.Node
	inHand *core.SuperChunk
}

func (w writePath) MigrateRead(ctx context.Context, fps []fingerprint.Fingerprint) ([][]byte, error) {
	if w.inHand == nil {
		return w.Node.MigrateRead(ctx, fps)
	}
	// The engine asks for a contiguous stretch of the run, in run order.
	chunks := w.inHand.Chunks
	out := make([][]byte, len(fps))
	at := 0
	for i, fp := range fps {
		for at < len(chunks) && chunks[at].FP != fp {
			at++
		}
		if at == len(chunks) {
			return nil, fmt.Errorf("cluster: chunk %s is not in the run in hand: %w", fp.Short(), sderr.ErrNotFound)
		}
		out[i] = chunks[at].Data
		at++
	}
	return out, nil
}

func (writePath) MigrateCommit(context.Context, string) error { return nil }

// waitEpochQuiesce blocks until no backup item is in flight against an
// epoch older than epoch — the membership change's grace period. An
// item whose session went idle without settling it (no further Backup,
// Flush or Close) fails the wait after a bounded delay rather than hanging forever.
func (c *Cluster) waitEpochQuiesce(ctx context.Context, epoch uint64) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		pinned := 0
		c.memberMu.Lock()
		// Scan the epoch history, pruning states that have fully
		// quiesced so the list stays bounded by in-flight pins plus the
		// current epoch.
		kept := c.epochs[:0]
		for _, st := range c.epochs {
			uses := st.uses.Load()
			if st.members.Epoch < epoch {
				if uses == 0 {
					continue // quiesced: drop from the history
				}
				pinned += int(uses)
			}
			kept = append(kept, st)
		}
		c.epochs = kept
		c.memberMu.Unlock()
		if pinned == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: %d backup items still pinned to pre-change epochs; quiesce backup streams before RemoveNode", pinned)
		}
		time.Sleep(time.Millisecond)
	}
}
