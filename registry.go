package sigmadedupe

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/ingest"
	"sigmadedupe/internal/migrate"
	"sigmadedupe/internal/router"
	"sigmadedupe/internal/store"
)

// transport is what differs between the two deployments of the one
// backend (plane): Cluster implements it over in-process nodes, Remote
// over dialed servers.
type transport interface {
	// join yields the member AddNode(addr) adds under id: the simulator
	// creates a node (addr must be empty), the prototype validates the
	// address of a running server against the current members.
	join(id int, addr string, members map[int]*member) (*member, error)
	// open returns m's shared handle. The simulator's are born open; the
	// prototype dials one control connection per node on first use.
	open(ctx context.Context, m *member) (migrate.Node, error)
	// committed sees every snapshot before it becomes current.
	committed(e *epoch)
	// wire completes a session's ingest configuration with its epoch pin
	// and returns what the session holds of its own, to be closed with it
	// (nil for nothing).
	wire(ctx context.Context, icfg *ingest.Config) (io.Closer, error)
}

// member is one node of the registry: its stable cluster ID and the
// handle every session-less verb (restore, delete, compaction, stats,
// migration) reaches it through.
type member struct {
	id    int
	addr  string        // prototype: dial address
	local *store.Engine // simulator: the node behind the handle
	// mu guards node until it is open (nil before).
	mu   sync.Mutex
	node migrate.Node
}

// close releases the node's resources (best effort on a killed node,
// whose peer may already be gone).
func (m *member) close() error {
	if m.local != nil {
		return m.local.Close()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.node.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// epoch is one registry snapshot: immutable once current, swapped whole.
// Readers — a backup item's pin, Stats, every restore and delete — load
// it with one atomic read, so none observes a torn member list, races a
// topology change or takes a lock.
type epoch struct {
	// members is what items pinned to this snapshot route within; its
	// Epoch is the director's (one ahead while a drain has retired a node
	// here that the director still lists).
	members core.Membership
	// nodes resolves every reachable node: the members, plus a node being
	// drained — out of routing, still there for reads, decrefs and the
	// drain itself.
	nodes map[int]*member
	// uses counts the backup items pinned to this snapshot; ready says
	// every handle is open; prev chains the snapshots items may still be
	// pinned to (guarded by memberOp, cut by quiesce).
	uses  atomic.Int64
	ready atomic.Bool
	prev  *epoch
	// resolve, release and (simulator) view are built once per snapshot,
	// so pinning one per small file allocates nothing.
	resolve func(id int) (migrate.Node, bool)
	release func()
	view    func() router.View
}

// registry is a backend's node registry: the current snapshot and the
// serialization of the changes that replace it.
type registry struct {
	cur atomic.Pointer[epoch]
	// memberOp serializes membership operations against each other
	// without blocking readers; it guards director and nextID.
	memberOp sync.Mutex
	// director is the last membership epoch this backend saw the director
	// commit — the compare-and-swap token of its next SetMembers: if
	// another client changed the membership since, the change fails
	// loudly instead of overwriting it (or double-allocating a node ID).
	director uint64
	// nextID is the ID of the next node to join. IDs are never reused: a
	// removal leaves a hole (a durable simulator node keeps its directory).
	nextID int
}

// commit makes a snapshot of the given members and nodes current. Caller
// holds memberOp (or is the constructor).
func (p *plane) commit(members core.Membership, nodes map[int]*member) {
	e := &epoch{members: members, nodes: nodes, prev: p.cur.Load()}
	e.resolve = func(id int) (migrate.Node, bool) {
		m := nodes[id]
		if m == nil {
			return nil, false
		}
		return m.node, true
	}
	e.release = func() { e.uses.Add(-1) }
	p.t.committed(e)
	p.cur.Store(e)
}

// pin registers one in-flight backup item against the current snapshot
// and returns it. Lock-free: one atomic increment plus a validation
// reload.
func (p *plane) pin() *epoch {
	for {
		e := p.cur.Load()
		e.uses.Add(1)
		// Validate after the increment: a membership change that swapped the
		// snapshot between our load and increment may already have scanned
		// this one's uses and moved on, so the pin isn't protected — drop it
		// and pin the new one instead. Once the reload still shows e, the
		// increment happened-before any later swap, and the change's grace
		// period will observe it.
		if p.cur.Load() == e {
			return e
		}
		e.uses.Add(-1)
	}
}

// quiesce blocks until no backup item is pinned to a snapshot older than
// the current one — a membership change's grace period. An item whose
// session went idle without settling it (no further Backup, Flush or
// Close) fails the wait after a bounded delay rather than hanging
// forever. Caller holds memberOp.
func (p *plane) quiesce(ctx context.Context) error {
	cur := p.cur.Load()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var pinned int64
		for e := cur.prev; e != nil; e = e.prev {
			pinned += e.uses.Load()
		}
		if pinned == 0 {
			cur.prev = nil // nothing older can be pinned again
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sigmadedupe: %d backup items still pinned to pre-change epochs; quiesce backup streams before RemoveNode", pinned)
		}
		time.Sleep(time.Millisecond)
	}
}

// open makes every handle of a snapshot usable, once per node whichever
// snapshot asks first. The dial happens outside the node's lock — an
// unreachable node must not stall every other verb behind a blocked
// mutex — and the loser of a concurrent dial closes its spare.
func (p *plane) open(ctx context.Context, e *epoch) error {
	if e.ready.Load() {
		return nil
	}
	for _, m := range e.nodes {
		m.mu.Lock()
		nd := m.node
		m.mu.Unlock()
		if nd != nil {
			continue
		}
		nd, err := p.t.open(ctx, m)
		if err != nil {
			return fmt.Errorf("sigmadedupe: node %d: %w", m.id, err)
		}
		m.mu.Lock()
		if m.node == nil {
			m.node, nd = nd, nil
		}
		m.mu.Unlock()
		if spare, ok := nd.(io.Closer); ok {
			spare.Close()
		}
	}
	e.ready.Store(true)
	return nil
}

// live snapshots the current membership: the member IDs and the
// transport resolving each node of the snapshot (false for a node that
// has since left) — one consistent read, so a topology change cannot
// hand the caller a member it holds no handle for.
func (p *plane) live(ctx context.Context) ([]int, func(id int) (migrate.Node, bool), error) {
	e := p.cur.Load()
	if err := p.open(ctx, e); err != nil {
		return nil, nil, err
	}
	return e.members.Nodes, e.resolve, nil
}

// setMembers commits nodes as the director's next membership epoch and
// makes the matching snapshot current. Caller holds memberOp.
func (p *plane) setMembers(ctx context.Context, nodes map[int]*member) error {
	infos := make([]director.NodeInfo, 0, len(nodes))
	for _, m := range nodes {
		infos = append(infos, director.NodeInfo{ID: m.id, Addr: m.addr})
	}
	committed, err := p.clusterMeta.SetMembers(ctx, p.director, infos)
	if err != nil {
		return err
	}
	p.director = committed.Epoch
	p.commit(core.NewMembership(committed.Epoch, committed.IDs()), nodes)
	return nil
}
