package sigmadedupe

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/ingest"
	"sigmadedupe/internal/migrate"
	"sigmadedupe/internal/router"
	"sigmadedupe/internal/rpc"
	"sigmadedupe/internal/tenant"
)

// RemoteConfig parameterizes a Remote backend: a director (in-process or
// TCP) plus a set of deduplication server addresses.
type RemoteConfig struct {
	// Name identifies this backend's default backup stream (default
	// "client").
	Name string
	// Director is an in-process metadata service. Exactly one of
	// Director and DirectorAddr must be set.
	Director *Director
	// DirectorAddr is the address of a director server (sigma-director).
	DirectorAddr string
	// Nodes lists the deduplication server addresses.
	Nodes []string
	// SuperChunkSize is the routing granularity (default 1MB).
	SuperChunkSize int64
	// HandprintSize is k (default 8).
	HandprintSize int
	// Chunk selects the default chunking algorithm and size for backup
	// streams (default ChunkFixed at 4KB); WithChunkSpec overrides per
	// session.
	Chunk ChunkSpec
	// Workers sizes the chunk-fingerprint worker pool of the ingest
	// pipeline (default GOMAXPROCS).
	Workers int
	// InflightSuperChunks bounds the routed super-chunks a stream keeps
	// in flight (bids and Dedup RPCs), so fingerprinting of super-chunk
	// n+1 overlaps the network transfer of n (default 4). Together with
	// SuperChunkSize this caps a stream's peak buffered payload.
	InflightSuperChunks int
	// Fingerprint selects the chunk fingerprint hash (default
	// FingerprintSHA1; FingerprintSHA256 is faster on CPUs with SHA
	// extensions). All of a backend's clients must agree on it.
	Fingerprint FingerprintAlgorithm
	// Replicas ≥ 2 keeps a second copy of every super-chunk: a dedup pass
	// beside the primary's on a second node (the bids' runner-up, else the
	// rendezvous replica owner), named in the item's recipe at commit and
	// durable, like the primary, once Flush returns. Restores fail over to
	// the replica when the primary is unreachable; KillNode + Repair
	// survive a node crash without losing a byte. 0 or 1 keeps the
	// single-copy behavior. Values above 2 are capped at 2.
	Replicas int
	// IngestCapacityBytes, when positive, bounds the payload bytes this
	// backend's sessions keep in the route/store stage at once; the
	// weighted-fair scheduler splits that capacity between tenants by
	// weight, so concurrent tenant sessions share ingest bandwidth
	// proportionally instead of racing. 0 disables scheduling.
	IngestCapacityBytes int64
}

// Remote is the TCP-prototype Backend deployment: the one backend
// (plane) doing source inline deduplication against real deduplication
// servers and a director, over the batched, pipelined, cancelable RPC
// protocol.
//
// The one-shot Backup/Restore/Delete verbs share one implicit default
// stream and are therefore single-goroutine, like any backup stream;
// open explicit Sessions for concurrent streams.
type Remote struct {
	plane
	localMeta  *Director
	remoteMeta *rpc.Client
}

// NewRemote connects a Remote backend. ctx bounds the director dial;
// node connections are dialed lazily per session. The director is the
// source of truth for cluster membership: a director that already holds
// a membership epoch (a durable director surviving a restart, or a
// cluster another client has grown) supplies the node set; otherwise
// cfg.Nodes registers epoch 1.
func NewRemote(ctx context.Context, cfg RemoteConfig) (*Remote, error) {
	if cfg.Name == "" {
		cfg.Name = "client"
	}
	r := &Remote{}
	r.plane = plane{
		t:         r,
		payloads:  true,
		replicas:  cfg.Replicas,
		name:      cfg.Name,
		algorithm: cfg.Fingerprint.internal(),
		defaults: sessionConfig{
			chunk:          cfg.Chunk,
			superChunkSize: cfg.SuperChunkSize,
			handprintK:     cfg.HandprintSize,
			workers:        cfg.Workers,
			inflight:       cfg.InflightSuperChunks,
		},
		ahead:    cfg.InflightSuperChunks,
		sessions: make(map[*ingest.Session]io.Closer),
	}
	if r.ahead <= 0 {
		r.ahead = ingest.DefaultInflight
	}
	if cfg.IngestCapacityBytes > 0 {
		r.sched = tenant.NewScheduler(cfg.IngestCapacityBytes, r.weight)
	}
	switch {
	case cfg.Director != nil && cfg.DirectorAddr != "":
		return nil, fmt.Errorf("sigmadedupe: set either Director or DirectorAddr, not both")
	case cfg.Director != nil:
		r.meta, r.localMeta, r.clusterMeta, r.tenants = cfg.Director, cfg.Director, cfg.Director, cfg.Director
	case cfg.DirectorAddr != "":
		rem, err := rpc.DialDirector(ctx, cfg.DirectorAddr)
		if err != nil {
			return nil, err
		}
		r.meta, r.remoteMeta, r.clusterMeta, r.tenants = rem, rem, rem, rem
	default:
		return nil, fmt.Errorf("sigmadedupe: remote backend needs a Director or DirectorAddr")
	}
	fail := func(err error) (*Remote, error) {
		r.Close()
		return nil, err
	}
	members, err := r.clusterMeta.Members(ctx)
	if err != nil {
		return fail(err)
	}
	switch {
	case members.Epoch == 0:
		// First contact: register the configured node set as epoch 1.
		if len(cfg.Nodes) == 0 {
			return fail(fmt.Errorf("sigmadedupe: remote backend needs at least one node address"))
		}
		infos := make([]director.NodeInfo, len(cfg.Nodes))
		for i, addr := range cfg.Nodes {
			infos[i] = director.NodeInfo{ID: i, Addr: addr}
		}
		members, err = r.clusterMeta.SetMembers(ctx, 0, infos)
		if errors.Is(err, ErrConflict) {
			// Another client registered first; adopt its epoch.
			members, err = r.clusterMeta.Members(ctx)
		}
		if err != nil {
			return fail(err)
		}
	case len(cfg.Nodes) == 0:
		// Membership is director-managed; use its node set as-is.
	case len(cfg.Nodes) == len(members.Nodes):
		// cfg.Nodes supplies the members' current dial addresses in
		// ascending-ID order — servers restart on new ports, the member
		// identity does not change. A re-addressing commits a new epoch.
		infos := make([]director.NodeInfo, len(members.Nodes))
		changed := false
		for i, n := range members.Nodes {
			infos[i] = director.NodeInfo{ID: n.ID, Addr: cfg.Nodes[i]}
			changed = changed || cfg.Nodes[i] != n.Addr
		}
		if changed {
			if members, err = r.clusterMeta.SetMembers(ctx, members.Epoch, infos); err != nil {
				return fail(err)
			}
		}
	default:
		return fail(fmt.Errorf(
			"sigmadedupe: the director tracks %d member nodes (epoch %d) but RemoteConfig.Nodes lists %d; pass every member's current address, or none to use the director's",
			len(members.Nodes), members.Epoch, len(cfg.Nodes)))
	}
	nodes := make(map[int]*member, len(members.Nodes))
	for _, n := range members.Nodes {
		nodes[n.ID] = &member{id: n.ID, addr: n.Addr}
		r.nextID = max(r.nextID, n.ID+1)
	}
	r.director = members.Epoch
	r.commit(core.NewMembership(members.Epoch, members.IDs()), nodes)
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	return r, nil
}

// join implements transport: the already-running server at addr. An
// address that is already a member is refused — a second ID for one
// server would count its bytes twice in Stats, and draining either ID
// would "migrate" into the same store.
func (r *Remote) join(id int, addr string, members map[int]*member) (*member, error) {
	if addr == "" {
		return nil, fmt.Errorf("sigmadedupe: AddNode needs the new server's address")
	}
	for _, m := range members {
		if m.addr == addr {
			return nil, fmt.Errorf("sigmadedupe: the server at %s is already member %d: %w", addr, m.id, ErrConflict)
		}
	}
	return &member{id: id, addr: addr}, nil
}

// open implements transport: the node's control connection.
func (r *Remote) open(ctx context.Context, m *member) (migrate.Node, error) {
	conn, err := rpc.DialContext(ctx, m.addr)
	if err != nil {
		return nil, err // not a nil *rpc.Client in a non-nil interface
	}
	return conn, nil
}

// committed implements transport; a snapshot's views are built per
// routing decision, over the deciding session's connections.
func (r *Remote) committed(*epoch) {}

// conns are the connections one session dialed: one per node it has
// pinned, so a session's transfers neither queue behind another's nor
// hang it when a server wedges.
type conns struct {
	r *Remote
	// pinned is the snapshot whose nodes were last dialed (driving
	// goroutine only).
	pinned *epoch
	mu     sync.Mutex
	byNode map[*member]*rpc.Client
}

// dial closes the connections to nodes that left since the session last
// pinned and connects to every node of e it has not dialed yet. An item
// still in flight cannot be using a connection closed here: a drained
// node leaves only after every earlier pin is released, and an item in
// flight to a killed one fails regardless.
func (c *conns) dial(ctx context.Context, e *epoch) error {
	if c.pinned == e {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for m, conn := range c.byNode {
		if e.nodes[m.id] != m {
			conn.Close()
			delete(c.byNode, m)
		}
	}
	for _, m := range e.nodes {
		if c.byNode[m] != nil {
			continue
		}
		conn, err := rpc.DialContext(ctx, m.addr)
		if err != nil {
			return fmt.Errorf("sigmadedupe: node %d: %w", m.id, err)
		}
		c.byNode[m] = conn
	}
	c.pinned = e
	return nil
}

// node resolves a node of the current snapshot to this session's
// connection: a killed node does not resolve, so an item in flight to it
// fails loudly.
func (c *conns) node(id int) (migrate.Node, bool) {
	m := c.r.cur.Load().nodes[id]
	c.mu.Lock()
	conn := c.byNode[m]
	c.mu.Unlock()
	return conn, conn != nil
}

// calls sums the RPC requests issued over the connections.
func (c *conns) calls() (n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, conn := range c.byNode {
		n += conn.Calls()
	}
	return n
}

// Close implements io.Closer.
func (c *conns) Close() (first error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for m, conn := range c.byNode {
		if err := conn.Close(); first == nil {
			first = err
		}
		delete(c.byNode, m)
	}
	return first
}

// wire implements transport: the session dials its own connections, to
// the nodes of every snapshot an item of its pins (bids travel as Bid
// calls, usage comes back on the reply).
func (r *Remote) wire(ctx context.Context, icfg *ingest.Config) (io.Closer, error) {
	// A session whose node cannot be dialed fails to open instead of
	// failing at its first item.
	c := &conns{r: r, byNode: make(map[*member]*rpc.Client)}
	if err := c.dial(ctx, r.cur.Load()); err != nil {
		c.Close()
		return nil, err
	}
	icfg.Pin = func(ctx context.Context) (ingest.Epoch, error) {
		e := r.pin()
		if err := c.dial(ctx, e); err != nil {
			e.release()
			return ingest.Epoch{}, err
		}
		return ingest.Epoch{
			View:    func() router.View { return migrate.NewView(ctx, e.members, c.node) },
			Node:    c.node,
			Release: e.release,
		}, nil
	}
	return c, nil
}

// GCStats sums the garbage-collection counters of every live node over
// one registry snapshot: a concurrent topology change commits before or
// after the snapshot, never in the middle of it.
func (r *Remote) GCStats(ctx context.Context) (GCStats, error) { return r.gcStats(ctx) }

// BackupStats returns the default backup stream's session counters
// (zero before the first one-shot Backup).
func (r *Remote) BackupStats() SessionStats {
	if def := r.defaultIfOpen(); def != nil {
		return toSessionStats(def.Stats())
	}
	return SessionStats{}
}

// RPCMessages returns the RPC requests the default stream has issued
// across its node connections — bids, Dedup and DedupMissing, plus the
// per-node flush — the prototype-side Fig. 7 overhead accounting.
func (r *Remote) RPCMessages() int64 {
	def := r.defaultIfOpen()
	r.sessMu.Lock()
	c, _ := r.sessions[def].(*conns)
	r.sessMu.Unlock()
	if c == nil {
		return 0
	}
	return c.calls()
}

// Close releases the default stream's connections, the registry's
// control connections and the director connection (when dialed),
// propagating the first failure.
func (r *Remote) Close() error {
	first := r.plane.close()
	if r.remoteMeta != nil {
		if err := r.remoteMeta.Close(); first == nil {
			first = err
		}
	}
	return first
}
