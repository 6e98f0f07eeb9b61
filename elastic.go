package sigmadedupe

import (
	"context"
	"fmt"
	"maps"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/migrate"
)

// elasticGuard rejects migration on configurations that cannot support
// it: migration copies payloads, so they must be retained.
func (p *plane) elasticGuard() error {
	if !p.payloads {
		return fmt.Errorf("sigmadedupe: migration requires payload-carrying nodes (KeepPayloads or a durable Dir)")
	}
	return nil
}

// engine builds the migration engine over one registry snapshot; the
// returned membership is the one new items route within, while the
// engine also reaches a node being drained. The membership verbs hold
// memberOp, so the snapshot cannot move under them.
func (p *plane) engine(ctx context.Context) (*migrate.Engine, core.Membership, error) {
	e := p.cur.Load()
	if err := p.open(ctx, e); err != nil {
		return nil, core.Membership{}, err
	}
	return &migrate.Engine{
		Catalog:    p.clusterMeta,
		Nodes:      e.resolve,
		HandprintK: p.defaults.handprintK,
		Replicas:   p.replicas,
		Fault:      p.migrateFault,
	}, e.members, nil
}

// setMigrateFault installs the migration crash-injection hook (tests).
func (p *plane) setMigrateFault(fn migrate.Fault) { p.migrateFault = fn }

// AddNode implements Backend. The director journals the new epoch
// (fsynced when durable) before the registry applies it.
func (p *plane) AddNode(ctx context.Context, addr string) (int, error) {
	p.memberOp.Lock()
	defer p.memberOp.Unlock()
	cur := p.cur.Load()
	m, err := p.t.join(p.nextID, addr, cur.nodes)
	if err != nil {
		return 0, err
	}
	nodes := maps.Clone(cur.nodes)
	nodes[m.id] = m
	if err := p.setMembers(ctx, nodes); err != nil {
		_ = m.close() // never a member
		return 0, err
	}
	p.nextID++
	return m.id, nil
}

// errNoNode is the typed rejection of an ID outside the registry.
func errNoNode(id int) error {
	return fmt.Errorf("sigmadedupe: no node %d in the cluster: %w", id, ErrNotFound)
}

// RemoveNode implements Backend, in the one order that both converges
// under traffic and survives a crash of this process. The node is retired
// in the registry first — items pinned from here on route only to
// survivors, its handle stays resolvable for reads, decrefs and the
// drain; every item pinned earlier is waited out (after which no
// in-flight item can store another chunk on the node, so the drain's scan
// is definitive and the close cannot race a late store); its segments
// migrate; only then does the director commit the epoch without it, and
// its handle closes. A fault mid-drain therefore leaves the node's
// address in the director, and a rerun — finding the node already retired
// (this process) or still a member (a new one) — finishes the job.
func (p *plane) RemoveNode(ctx context.Context, id int) (MigrationResult, error) {
	var res MigrationResult
	if err := p.elasticGuard(); err != nil {
		return res, err
	}
	p.memberOp.Lock()
	defer p.memberOp.Unlock()
	if err := migrate.GuardNoPending(ctx, p.clusterMeta); err != nil {
		return res, err
	}
	// Settle the default stream first: a one-shot backup still committing
	// holds its pin, and the drain reads sealed containers.
	if err := p.Flush(ctx); err != nil {
		return res, err
	}
	cur := p.cur.Load()
	victim := cur.nodes[id]
	if victim == nil {
		return res, errNoNode(id)
	}
	if cur.members.Contains(id) {
		if cur.members.Len() == 1 {
			return res, fmt.Errorf("sigmadedupe: cannot remove the last node")
		}
		p.commit(core.NewMembership(p.director+1, cur.members.Without(id).Nodes), cur.nodes)
	}
	if err := p.quiesce(ctx); err != nil {
		return res, err
	}
	// Drain: replica attributions on the node are cleared first; Repair
	// restores R=2 for those runs on the survivors.
	e, members, err := p.engine(ctx)
	if err != nil {
		return res, err
	}
	// An item the quiesce waited out may have stored its tail on the node
	// after the Flush above: seal that too, the drain reads sealed
	// containers.
	if nd, ok := e.Nodes(id); ok {
		if err := nd.Flush(ctx); err != nil {
			return res, err
		}
	}
	moved, err := e.Drain(ctx, id, members)
	res = toMigrationResult(moved)
	if err != nil {
		return res, err
	}
	if err := p.setMembers(ctx, withoutNode(p.cur.Load().nodes, id)); err != nil {
		return res, err
	}
	return res, victim.close()
}

// KillNode implements Backend: the shrunken epoch commits on the
// director, the registry drops the node and its handle closes; nothing
// migrates. Sessions need no retiring: the node stops resolving, so an
// item in flight to it fails, and the next item pins the new membership.
func (p *plane) KillNode(ctx context.Context, id int) error {
	p.memberOp.Lock()
	defer p.memberOp.Unlock()
	cur := p.cur.Load()
	victim := cur.nodes[id]
	switch {
	case victim == nil:
		return errNoNode(id)
	case cur.members.Contains(id) && cur.members.Len() == 1:
		return fmt.Errorf("sigmadedupe: cannot kill the last node")
	}
	if err := p.setMembers(ctx, withoutNode(cur.nodes, id)); err != nil {
		return err
	}
	_ = victim.close() // a kill models loss of reachability, not an orderly shutdown
	return nil
}

// withoutNode copies a node set minus one.
func withoutNode(nodes map[int]*member, id int) map[int]*member {
	out := maps.Clone(nodes)
	delete(out, id)
	return out
}

// Rebalance implements Backend. Safe to run while backup sessions
// proceed: migration commits per segment, and a backup superseding a
// recipe mid-move wins (the migration rolls that segment back).
func (p *plane) Rebalance(ctx context.Context) (MigrationResult, error) {
	if err := p.elasticGuard(); err != nil {
		return MigrationResult{}, err
	}
	p.memberOp.Lock()
	defer p.memberOp.Unlock()
	if err := migrate.GuardNoPending(ctx, p.clusterMeta); err != nil {
		return MigrationResult{}, err
	}
	e, members, err := p.engine(ctx)
	if err != nil {
		return MigrationResult{}, err
	}
	moved, err := e.Rebalance(ctx, members)
	return toMigrationResult(moved), err
}

// Repair implements Backend. Like migration recovery it assumes quiesced
// traffic and a catalog that accounts for every reference (every backup
// fed through a session): recipes are the sole source of references it
// reconciles against.
func (p *plane) Repair(ctx context.Context) (RepairResult, error) {
	if err := p.elasticGuard(); err != nil {
		return RepairResult{}, err
	}
	p.memberOp.Lock()
	defer p.memberOp.Unlock()
	e, members, err := p.engine(ctx)
	if err != nil {
		return RepairResult{}, err
	}
	res, err := e.Repair(ctx, members)
	return toRepairResult(res), err
}

// RecoverMigrations settles migration transactions left pending in the
// director's journal by a crash: per-node reference counts reconcile
// against the recipe catalog, converging every backup to old-or-new
// placement with zero leaked references. Quiesce backups, deletes and
// other migrations first.
func (p *plane) RecoverMigrations(ctx context.Context) error {
	p.memberOp.Lock()
	defer p.memberOp.Unlock()
	e, _, err := p.engine(ctx)
	if err != nil {
		return err
	}
	return e.Recover(ctx)
}

// toMigrationResult converts the engine's migration summary to the
// public shape.
func toMigrationResult(res migrate.Result) MigrationResult {
	return MigrationResult{
		Backups:     res.Backups,
		SuperChunks: res.Segments,
		Chunks:      res.Chunks,
		Bytes:       res.Bytes,
	}
}

// toRepairResult converts the repair engine's summary to the public
// shape.
func toRepairResult(res migrate.RepairResult) RepairResult {
	return RepairResult{
		PromotedChunks:     res.Promoted,
		RereplicatedChunks: res.Rereplicated,
		Bytes:              res.Bytes,
		ReleasedRefs:       res.ReleasedRefs,
	}
}
