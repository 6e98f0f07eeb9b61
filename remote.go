package sigmadedupe

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/ingest"
	"sigmadedupe/internal/metrics"
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
	// DirectorAddr is the TCP address of a remote director service.
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
	// InflightSuperChunks bounds the window of asynchronous Store RPCs a
	// stream keeps in flight, so fingerprinting of super-chunk n+1
	// overlaps the network transfer of n (default 4). Together with
	// SuperChunkSize this caps a stream's peak buffered payload.
	InflightSuperChunks int
	// Fingerprint selects the chunk fingerprint hash (default
	// FingerprintSHA1; FingerprintSHA256 is faster on CPUs with SHA
	// extensions). All of a backend's clients must agree on it.
	Fingerprint FingerprintAlgorithm
	// Replicas ≥ 2 keeps a second copy of every super-chunk run on the
	// rendezvous replica owner: after each Flush the session's recipes
	// are walked and every replica-less run is streamed to its replica
	// under the journaled migration commit protocol. Restores fail over
	// to the replica when the primary is unreachable; KillNode + Repair
	// survive a node crash without losing a byte. 0 or 1 keeps the
	// single-copy behavior. Values above 2 are capped at 2.
	Replicas int
	// IngestCapacityBytes, when positive, bounds the payload bytes this
	// backend's sessions keep in the route/query/store stage at once; the
	// weighted-fair scheduler splits that capacity between tenants by
	// weight, so concurrent tenant sessions share ingest bandwidth
	// proportionally instead of racing. 0 disables scheduling.
	IngestCapacityBytes int64
}

// Remote is the TCP-prototype Backend: source inline deduplication
// against real deduplication servers and a director, over the batched,
// pipelined, cancelable RPC protocol.
//
// The one-shot Backup/Restore/Delete verbs share one implicit default
// stream and are therefore single-goroutine, like any backup stream;
// open explicit Sessions for concurrent streams.
type Remote struct {
	plane
	cfg         RemoteConfig
	clusterMeta director.ClusterMeta
	localMeta   *Director
	remoteMeta  *director.Remote

	// sched is the backend-wide weighted-fair ingest scheduler (nil when
	// IngestCapacityBytes is 0); weights caches tenant weights for its
	// lock-held lookups — primed at session creation and on every tenant
	// mutation through this backend, so the scheduler never blocks on a
	// director round trip.
	sched   *tenant.Scheduler
	weights sync.Map // tenant name → int weight

	// reg is the epoch-consistent node registry: the live node set of
	// the current membership epoch plus one lazily dialed control
	// connection per node (stats, compaction, migration). Readers take a
	// snapshot under the read lock; membership changes hold the write
	// lock, so Stats/GCStats can never race a topology change.
	reg registry

	// memberOp serializes membership operations (AddNode, RemoveNode,
	// Rebalance, RecoverMigrations) against each other without blocking
	// registry readers: the registry's own lock is only ever held for
	// in-memory work, never across a dial or a director round trip.
	memberOp sync.Mutex

	mu  sync.Mutex
	def *stream // lazy default stream

	migrateFault migrate.Fault
}

// registry is the Remote's live node set.
type registry struct {
	sync.RWMutex
	epoch uint64
	nodes []*registryNode // ascending by ID
}

// registryNode is one live node: stable ID, dial address, and the
// shared control connection (nil until first use).
type registryNode struct {
	id   int
	addr string
	conn *rpc.Client
}

// snapshot returns the epoch and the node list (the slice is a copy;
// the *registryNode entries are shared).
func (r *registry) snapshot() (uint64, []*registryNode) {
	r.RLock()
	defer r.RUnlock()
	out := make([]*registryNode, len(r.nodes))
	copy(out, r.nodes)
	return r.epoch, out
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
	r := &Remote{cfg: cfg}
	r.live = r.liveNodes
	r.ahead = cfg.InflightSuperChunks
	if r.ahead <= 0 {
		r.ahead = ingest.DefaultInflight
	}
	if cfg.IngestCapacityBytes > 0 {
		r.sched = tenant.NewScheduler(cfg.IngestCapacityBytes, r.tenantWeight)
	}
	switch {
	case cfg.Director != nil && cfg.DirectorAddr != "":
		return nil, fmt.Errorf("sigmadedupe: set either Director or DirectorAddr, not both")
	case cfg.Director != nil:
		r.meta, r.localMeta, r.clusterMeta, r.tenants = cfg.Director, cfg.Director, cfg.Director, cfg.Director
	case cfg.DirectorAddr != "":
		rem, err := director.DialRemoteContext(ctx, cfg.DirectorAddr)
		if err != nil {
			return nil, err
		}
		r.meta, r.remoteMeta, r.clusterMeta, r.tenants = rem, rem, rem, rem
	default:
		return nil, fmt.Errorf("sigmadedupe: remote backend needs a Director or DirectorAddr")
	}
	members, err := r.clusterMeta.Members(ctx)
	if err != nil {
		r.Close()
		return nil, err
	}
	switch {
	case members.Epoch == 0:
		// First contact: register the configured node set as epoch 1.
		if len(cfg.Nodes) == 0 {
			r.Close()
			return nil, fmt.Errorf("sigmadedupe: remote backend needs at least one node address")
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
			r.Close()
			return nil, err
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
				r.Close()
				return nil, err
			}
		}
	default:
		r.Close()
		return nil, fmt.Errorf(
			"sigmadedupe: the director tracks %d member nodes (epoch %d) but RemoteConfig.Nodes lists %d; pass every member's current address, or none to use the director's",
			len(members.Nodes), members.Epoch, len(cfg.Nodes))
	}
	r.reg.epoch = members.Epoch
	for _, n := range members.Nodes {
		r.reg.nodes = append(r.reg.nodes, &registryNode{id: n.ID, addr: n.Addr})
	}
	if err := ctx.Err(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// nodeConn returns (dialing lazily) the control connection of one
// registry node. The dial happens outside the registry lock — an
// unreachable node must not stall every Stats/Backup behind a blocked
// mutex — and the loser of a concurrent dial race closes its spare.
func (r *Remote) nodeConn(ctx context.Context, n *registryNode) (*rpc.Client, error) {
	r.reg.RLock()
	conn := n.conn
	r.reg.RUnlock()
	if conn != nil {
		return conn, nil
	}
	c, err := rpc.DialContext(ctx, n.addr)
	if err != nil {
		return nil, fmt.Errorf("sigmadedupe: node %d: %w", n.id, err)
	}
	r.reg.Lock()
	if n.conn == nil {
		n.conn = c
		c = nil
	}
	conn = n.conn
	r.reg.Unlock()
	if c != nil {
		c.Close()
	}
	return conn, nil
}

// sessionDefaults derives the backend's default session configuration.
func (r *Remote) sessionDefaults() sessionConfig {
	return sessionConfig{
		chunk:          r.cfg.Chunk,
		superChunkSize: r.cfg.SuperChunkSize,
		handprintK:     r.cfg.HandprintSize,
		workers:        r.cfg.Workers,
		inflight:       r.cfg.InflightSuperChunks,
	}
}

// tenantWeight is the scheduler's weight lookup, served from the local
// cache (the scheduler calls it under its mutex, so it must never block
// on a director round trip). Unknown tenants weigh 1.
func (r *Remote) tenantWeight(name string) int {
	if w, ok := r.weights.Load(name); ok {
		return w.(int)
	}
	return 1
}

// CreateTenant implements TenantAdmin, keeping the scheduler's weight
// cache current with what this backend commits.
func (r *Remote) CreateTenant(ctx context.Context, cfg TenantConfig) error {
	if err := r.plane.CreateTenant(ctx, cfg); err != nil {
		return err
	}
	r.weights.Store(cfg.Name, max(cfg.Weight, 1))
	return nil
}

// SetTenantWeight implements TenantAdmin (see CreateTenant).
func (r *Remote) SetTenantWeight(ctx context.Context, tn string, weight int) error {
	if err := r.plane.SetTenantWeight(ctx, tn, weight); err != nil {
		return err
	}
	r.weights.Store(tn, weight)
	return nil
}

// primeWeight refreshes the scheduler's weight cache for one tenant from
// the director (best effort; a miss just means weight 1 until the next
// session or mutation).
func (r *Remote) primeWeight(ctx context.Context, name string) {
	if r.sched == nil || name == "" {
		return
	}
	if st, err := r.tenants.TenantStatus(ctx, name); err == nil {
		r.weights.Store(name, st.Info.Weight)
	}
}

// stream is one ingest session of the Remote and the connections it
// dialed: one per node of the membership epoch current when it opened,
// which it routes within for life — node adds and removals become
// visible to new sessions, never to this one.
type stream struct {
	*ingest.Session
	epoch uint64
	conns []*rpc.Client
}

// close releases the stream. Connections close before the session
// settles its in-flight super-chunks, so a wedged server cannot hang it:
// closing the transport fails the pending calls.
func (st *stream) close() error {
	var first error
	for _, conn := range st.conns {
		if err := conn.Close(); first == nil {
			first = err
		}
	}
	if st.Session != nil {
		st.Session.Close()
	}
	return first
}

// newStream dials the current membership epoch and opens an ingest
// session over those connections and the director, with the prototype's
// seams: the epoch is the one dialed (bids travel as Bid calls, usage
// comes back on the reply), and R=2 replicates at Flush under the
// director's journaled transactions.
func (r *Remote) newStream(ctx context.Context, cfg sessionConfig) (*stream, error) {
	epoch, nodes := r.reg.snapshot()
	st := &stream{epoch: epoch}
	byID := make(map[int]*rpc.Client, len(nodes))
	ids := make([]int, len(nodes))
	for i, n := range nodes {
		conn, err := rpc.DialContext(ctx, n.addr)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("sigmadedupe: node %d: %w", n.id, err)
		}
		st.conns = append(st.conns, conn)
		byID[n.id], ids[i] = conn, n.id
	}
	members := core.NewMembership(epoch, ids)
	dialed := func(id int) (migrate.Node, bool) {
		conn, ok := byID[id]
		return conn, ok
	}
	r.primeWeight(ctx, cfg.tenant)
	rt, err := router.New(router.Sigma, cfg.handprintK, 0)
	if err != nil {
		st.close()
		return nil, err
	}
	icfg := cfg.ingest(r.cfg.Fingerprint.internal())
	icfg.Router = rt
	icfg.Scheduler = r.sched
	icfg.KeepPayloads = true
	icfg.Pin = func(ctx context.Context) (ingest.Epoch, error) {
		// A generation this session supersedes may have been rebalanced onto
		// a node that joined since it dialed — "not in my epoch" is not "left
		// the cluster" — so releases also reach the current members.
		_, live, err := r.liveNodes(ctx)
		if err != nil {
			return ingest.Epoch{}, err
		}
		return ingest.Epoch{
			View: func() router.View { return migrate.NewView(ctx, members, dialed) },
			Node: func(id int) (migrate.Node, bool) {
				if nd, ok := dialed(id); ok {
					return nd, true
				}
				return live(id)
			},
			Release: func() {},
		}, nil
	}
	if r.cfg.Replicas >= 2 {
		icfg.Replicate.AtFlush = func(ctx context.Context, wrote map[string]struct{}) error {
			return r.replicateSession(ctx, wrote, members, dialed, cfg.handprintK)
		}
	}
	if st.Session, err = ingest.New(ctx, icfg, r.meta); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// replicateSession is the Flush-time replication pass of one stream:
// every recipe it committed since the last pass is mirrored onto the
// rendezvous replica owners of its super-chunk runs, one journaled
// transaction per run (see migrate.Engine.ReplicateRecipe), now that the
// primaries' containers are sealed.
func (r *Remote) replicateSession(ctx context.Context, wrote map[string]struct{}, members core.Membership,
	nodes func(int) (migrate.Node, bool), handprintK int) error {
	eng := &migrate.Engine{Catalog: r.clusterMeta, Nodes: nodes, HandprintK: handprintK}
	paths := make([]string, 0, len(wrote))
	for p := range wrote {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		rec, err := r.meta.GetRecipe(ctx, p)
		if err != nil {
			if errors.Is(err, director.ErrNoRecipe) {
				delete(wrote, p) // deleted since; nothing to replicate
				continue
			}
			return fmt.Errorf("sigmadedupe: replicate %s: %w", p, err)
		}
		if _, err := eng.ReplicateRecipe(ctx, rec, members); err != nil {
			return fmt.Errorf("sigmadedupe: replicate %s: %w", p, err)
		}
		delete(wrote, p)
	}
	return nil
}

// defaultStream returns (dialing lazily) the stream behind the one-shot
// verbs. A default stream pinned to a superseded epoch is retired first
// — flushed, closed, and re-dialed against the current member set — so
// one-shot verbs always see the membership the last change committed.
func (r *Remote) defaultStream(ctx context.Context) (*stream, error) {
	epoch, _ := r.reg.snapshot()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.def != nil && r.def.epoch == epoch {
		return r.def, nil
	}
	if r.def != nil {
		// Epoch moved: settle the old stream (its tail may still be in
		// flight) before retiring its connections.
		if err := r.def.Flush(ctx); err != nil {
			return nil, err
		}
		if err := r.def.close(); err != nil {
			return nil, err
		}
		r.def = nil
	}
	cfg, err := resolveSessionConfig(r.sessionDefaults(), nil)
	if err != nil {
		return nil, err
	}
	cfg.name = r.cfg.Name
	st, err := r.newStream(ctx, cfg)
	if err != nil {
		return nil, err
	}
	r.def = st
	return st, nil
}

// NewSession opens an explicit backup stream: its own node connections,
// fingerprint worker pool and in-flight super-chunk window.
func (r *Remote) NewSession(ctx context.Context, opts ...SessionOption) (*Session, error) {
	cfg, err := resolveSessionConfig(r.sessionDefaults(), opts)
	if err != nil {
		return nil, err
	}
	if cfg.name == "" {
		cfg.name = fmt.Sprintf("%s-session", r.cfg.Name)
	}
	st, err := r.newStream(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &Session{impl: st.Session, close: st.close}, nil
}

// Backup deduplicates and stores one named stream on the default backup
// stream, reading r incrementally with peak buffered payload bounded by
// the in-flight window. Canceling ctx aborts within about one
// super-chunk of work; the failed backup is released and the default
// stream stays usable.
func (r *Remote) Backup(ctx context.Context, name string, rd io.Reader) error {
	st, err := r.defaultStream(ctx)
	if err != nil {
		return err
	}
	return st.Backup(ctx, name, rd)
}

// Flush completes the default backup stream: in-flight transfers drain,
// backups commit and remote containers seal.
func (r *Remote) Flush(ctx context.Context) error {
	r.mu.Lock()
	c := r.def
	r.mu.Unlock()
	if c == nil {
		return nil // nothing backed up yet
	}
	return c.Flush(ctx)
}

// GCStats sums the garbage-collection counters of every live node over
// one epoch-consistent registry snapshot: a concurrent topology change
// commits before or after the snapshot, never in the middle of it.
func (r *Remote) GCStats(ctx context.Context) (GCStats, error) { return r.gcStats(ctx) }

// Stats implements Backend: cluster-wide counters aggregated over the
// wire from one epoch-consistent registry snapshot, plus the director's
// retained-backup count.
func (r *Remote) Stats(ctx context.Context) (BackendStats, error) {
	var st BackendStats
	_, nodes := r.reg.snapshot()
	st.Nodes = len(nodes)
	usage := make([]int64, 0, len(nodes))
	for _, n := range nodes {
		conn, err := r.nodeConn(ctx, n)
		if err != nil {
			return st, err
		}
		nst, u, err := conn.Stats(ctx)
		if err != nil {
			return st, fmt.Errorf("sigmadedupe: stats node %d: %w", n.id, err)
		}
		st.LogicalBytes += nst.LogicalBytes
		// Live storage usage, not the cumulative stored-bytes counter:
		// usage shrinks when compaction reclaims space, matching the
		// simulator's PhysicalBytes semantics.
		st.PhysicalBytes += u
		usage = append(usage, u)
	}
	st.DedupRatio = metrics.DedupRatio(st.LogicalBytes, st.PhysicalBytes)
	st.StorageSkew = metrics.Skew(usage)
	switch {
	case r.localMeta != nil:
		st.Backups = len(r.localMeta.Files())
	case r.remoteMeta != nil:
		files, err := r.remoteMeta.Files(ctx)
		if err != nil {
			return st, err
		}
		st.Backups = len(files)
	}
	return st, nil
}

// AddNode implements Backend: the already-running deduplication server
// at addr joins the cluster. The director journals the new membership
// epoch (fsynced on a durable director) before the registry applies it;
// sessions opened after AddNode returns bid the node in, sessions
// already open keep their pinned epoch.
func (r *Remote) AddNode(ctx context.Context, addr string) (int, error) {
	if addr == "" {
		return 0, fmt.Errorf("sigmadedupe: AddNode needs the new server's address")
	}
	r.memberOp.Lock()
	defer r.memberOp.Unlock()
	epoch, nodes := r.reg.snapshot()
	id := 0
	infos := make([]director.NodeInfo, 0, len(nodes)+1)
	for _, n := range nodes {
		if n.id >= id {
			id = n.id + 1
		}
		infos = append(infos, director.NodeInfo{ID: n.id, Addr: n.addr})
	}
	infos = append(infos, director.NodeInfo{ID: id, Addr: addr})
	// The CAS on the registry's epoch: if another client changed the
	// membership since this backend last saw it, fail loudly instead of
	// overwriting that change (or double-allocating the node ID). The
	// director round trip runs outside the registry lock; memberOp keeps
	// local membership ops from interleaving.
	members, err := r.clusterMeta.SetMembers(ctx, epoch, infos)
	if err != nil {
		return 0, err
	}
	r.reg.Lock()
	r.reg.epoch = members.Epoch
	r.reg.nodes = append(r.reg.nodes, &registryNode{id: id, addr: addr})
	r.reg.Unlock()
	return id, nil
}

// liveNodes is the plane's membership snapshot: the member IDs of one
// consistent registry read and their (lazily dialed) control
// connections — a topology change landing between two registry reads
// cannot hand the caller a member it holds no connection for.
func (r *Remote) liveNodes(ctx context.Context) ([]int, func(int) (migrate.Node, bool), error) {
	_, nodes := r.reg.snapshot()
	conns := make(map[int]*rpc.Client, len(nodes))
	ids := make([]int, 0, len(nodes))
	for _, n := range nodes {
		conn, err := r.nodeConn(ctx, n)
		if err != nil {
			return nil, nil, err
		}
		conns[n.id] = conn
		ids = append(ids, n.id)
	}
	return ids, func(id int) (migrate.Node, bool) {
		conn, ok := conns[id]
		return conn, ok
	}, nil
}

// engine builds the migration engine over one membership snapshot; the
// returned membership covers exactly the nodes the engine can reach
// (callers hold memberOp, so the epoch cannot move under the snapshot).
func (r *Remote) engine(ctx context.Context) (*migrate.Engine, core.Membership, error) {
	epoch, _ := r.reg.snapshot()
	ids, nodes, err := r.liveNodes(ctx)
	if err != nil {
		return nil, core.Membership{}, err
	}
	e := &migrate.Engine{
		Catalog:    r.clusterMeta,
		Nodes:      nodes,
		HandprintK: r.cfg.HandprintSize,
		Replicas:   r.cfg.Replicas,
		Fault:      r.migrateFault,
	}
	return e, core.NewMembership(epoch, ids), nil
}

// RemoveNode implements Backend: every super-chunk on the node migrates
// to a surviving member under the journaled commit protocol (recipes
// repointed, references released), then the shrunken membership epoch
// commits and the node's connection closes. Quiesce backup sessions
// first — an actively written node fails the drain.
func (r *Remote) RemoveNode(ctx context.Context, id int) (MigrationResult, error) {
	var res MigrationResult
	r.memberOp.Lock()
	defer r.memberOp.Unlock()
	if err := migrate.GuardNoPending(ctx, r.clusterMeta); err != nil {
		return res, err
	}
	// Settle the default stream's buffered tail before planning: an
	// unflushed one-shot backup could otherwise route its final
	// super-chunk to the node after the drain scanned it.
	if err := r.Flush(ctx); err != nil {
		return res, err
	}
	e, members, err := r.engine(ctx)
	if err != nil {
		return res, err
	}
	if !members.Contains(id) {
		return res, fmt.Errorf("sigmadedupe: no node %d in the current epoch", id)
	}
	if members.Len() == 1 {
		return res, fmt.Errorf("sigmadedupe: cannot remove the last node")
	}
	// Drain, then commit. The epoch commits only after the node is
	// empty, so a crash mid-drain leaves the node in the membership —
	// its address stays discoverable and a rerun finishes the job.
	moved, err := e.Drain(ctx, id, members)
	res = toMigrationResult(moved)
	if err != nil {
		return res, err
	}
	return res, r.dropNode(ctx, id)
}

// dropNode commits the membership epoch without node id and applies it
// to the registry, closing the node's control connection (best effort:
// a killed node's peer may already be gone). The director round trip
// runs outside the registry lock — memberOp serializes local membership
// ops, the director's epoch CAS catches remote ones. Caller holds
// memberOp.
func (r *Remote) dropNode(ctx context.Context, id int) error {
	epoch, nodes := r.reg.snapshot()
	infos := make([]director.NodeInfo, 0, len(nodes))
	keep := make([]*registryNode, 0, len(nodes))
	var removed *registryNode
	for _, n := range nodes {
		if n.id == id {
			removed = n
			continue
		}
		infos = append(infos, director.NodeInfo{ID: n.id, Addr: n.addr})
		keep = append(keep, n)
	}
	if removed == nil {
		return fmt.Errorf("sigmadedupe: no node %d in the current epoch: %w", id, ErrNotFound)
	}
	if len(keep) == 0 {
		return fmt.Errorf("sigmadedupe: cannot drop the last node")
	}
	committed, err := r.clusterMeta.SetMembers(ctx, epoch, infos)
	if err != nil {
		return err
	}
	r.reg.Lock()
	r.reg.epoch = committed.Epoch
	r.reg.nodes = keep
	conn := removed.conn
	r.reg.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	return nil
}

// Rebalance implements Backend: super-chunk segments migrate from
// members above the cluster's mean storage usage onto underloaded
// rendezvous owners — the follow-up that spreads existing data onto a
// node AddNode just joined. Safe to run while backup sessions proceed:
// migration commits per segment, and a backup superseding a recipe
// mid-move wins (the migration rolls that segment back).
func (r *Remote) Rebalance(ctx context.Context) (MigrationResult, error) {
	var res MigrationResult
	r.memberOp.Lock()
	defer r.memberOp.Unlock()
	if err := migrate.GuardNoPending(ctx, r.clusterMeta); err != nil {
		return res, err
	}
	e, members, err := r.engine(ctx)
	if err != nil {
		return res, err
	}
	moved, err := e.Rebalance(ctx, members)
	return toMigrationResult(moved), err
}

// KillNode implements Backend: the node leaves the membership without a
// drain — the hard-crash path, taken when the node's server is already
// gone (or about to be). The shrunken epoch commits on the director,
// the registry drops the node and its connections close; nothing
// migrates. The default backup stream is retired without a flush —
// flushing through a dead node cannot succeed, and kill semantics mean
// its unflushed tail is lost. With RemoteConfig.Replicas ≥ 2 every
// completed backup keeps restoring through failover reads; run Repair
// to restore R=2 and release strays.
func (r *Remote) KillNode(ctx context.Context, id int) error {
	r.memberOp.Lock()
	defer r.memberOp.Unlock()
	if err := r.dropNode(ctx, id); err != nil {
		return err
	}
	// Retire the default stream (it may hold connections to the dead
	// node); the next one-shot verb re-dials against the new epoch.
	r.mu.Lock()
	if r.def != nil {
		_ = r.def.close()
		r.def = nil
	}
	r.mu.Unlock()
	return nil
}

// Repair implements Backend: the anti-entropy pass after a crash —
// settle pending transactions, promote replicas of dead primaries,
// re-replicate under-replicated runs, reconcile per-node reference
// counts against the recipe catalog. Quiesce backups, deletes and
// membership changes first.
func (r *Remote) Repair(ctx context.Context) (RepairResult, error) {
	r.memberOp.Lock()
	defer r.memberOp.Unlock()
	e, members, err := r.engine(ctx)
	if err != nil {
		return RepairResult{}, err
	}
	res, err := e.Repair(ctx, members)
	return toRepairResult(res), err
}

// RecoverMigrations settles migration transactions left pending in the
// director's MEMBERS journal by a crash: per-node reference counts
// reconcile against the recipe catalog, converging every backup to
// old-or-new placement with zero leaked references. Quiesce backups
// first.
func (r *Remote) RecoverMigrations(ctx context.Context) error {
	r.memberOp.Lock()
	defer r.memberOp.Unlock()
	e, _, err := r.engine(ctx)
	if err != nil {
		return err
	}
	return e.Recover(ctx)
}

// setMigrateFault installs the migration crash-injection hook (tests).
func (r *Remote) setMigrateFault(fn migrate.Fault) { r.migrateFault = fn }

// BackupStats returns the default backup stream's session counters
// (zero before the first one-shot Backup) plus the restore counters of
// this backend's Restore and RestoreTenant calls.
func (r *Remote) BackupStats() SessionStats {
	r.mu.Lock()
	c := r.def
	r.mu.Unlock()
	var st SessionStats
	if c != nil {
		st = toSessionStats(c.Stats())
	}
	st.RestoredBytes = r.restoredBytes.Load()
	st.RestoreRPCs = r.readBatches.Load()
	st.FailoverReads = r.failoverReads.Load()
	// Restored payloads are written straight out of the recycled receive
	// frames: one buffer reuse per chunk delivered.
	st.ChunkBufReuses += r.restoredChunks.Load()
	return st
}

// RPCMessages returns the RPC requests the default stream has issued
// across its node connections — bids, queries and stores, plus the
// per-node flush — the prototype-side Fig. 7 overhead accounting.
func (r *Remote) RPCMessages() int64 {
	r.mu.Lock()
	c := r.def
	r.mu.Unlock()
	if c == nil {
		return 0
	}
	var n int64
	for _, conn := range c.conns {
		n += conn.Calls()
	}
	return n
}

// Close releases the default stream's connections, the registry's
// control connections and the director connection (when dialed),
// propagating the first failure.
func (r *Remote) Close() error {
	r.mu.Lock()
	c := r.def
	r.def = nil
	r.mu.Unlock()
	var first error
	if c != nil {
		first = c.close()
	}
	r.reg.Lock()
	for _, n := range r.reg.nodes {
		if n.conn != nil {
			if err := n.conn.Close(); first == nil {
				first = err
			}
			n.conn = nil
		}
	}
	r.reg.Unlock()
	if r.remoteMeta != nil {
		if err := r.remoteMeta.Close(); first == nil {
			first = err
		}
	}
	return first
}
