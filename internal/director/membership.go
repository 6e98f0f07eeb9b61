// Membership and migration metadata: the MEMBERS journal next to
// RECIPES.
//
// The director is the cluster's source of truth for which nodes are
// live. Membership is versioned by an epoch: every AddNode/RemoveNode
// commits a new epoch record — the full member list, fsynced — to the
// MEMBERS journal, and in-flight backup sessions pin the epoch they
// started on so no session ever observes a torn member list.
//
// The same journal carries super-chunk migration transactions: a "mig"
// record (fsynced) opens one segment's move before any byte lands on
// the target, and a "migend" record closes it after the source's
// references are released. A transaction left open by a crash is found
// by PendingMigrations, and the migration engine's recovery reconciles
// the involved chunks' reference counts against the recipe catalog —
// converging to old-or-new placement with zero leaked references (see
// package migrate).
package director

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"

	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/sderr"
	"sigmadedupe/internal/tenant"
	"sigmadedupe/internal/wire"
)

// MembersJournalName is the membership journal's file name under a
// durable director's directory.
const MembersJournalName = "MEMBERS"

// NodeInfo describes one deduplication node: its stable cluster ID and,
// for TCP deployments, its dial address (empty on the simulator).
type NodeInfo struct {
	ID   int    `json:"id"`
	Addr string `json:"addr,omitempty"`
}

// MembershipInfo is one epoch of the cluster's member set.
type MembershipInfo struct {
	// Epoch is the membership generation; 0 means membership was never
	// initialized (a legacy fixed-cluster deployment).
	Epoch uint64
	// Nodes lists the live nodes, ascending by ID.
	Nodes []NodeInfo
}

// IDs returns the live node IDs, ascending.
func (m MembershipInfo) IDs() []int {
	out := make([]int, len(m.Nodes))
	for i, n := range m.Nodes {
		out[i] = n.ID
	}
	return out
}

// Migration is one journaled super-chunk migration transaction: the
// chunks [Start, Start+Count) of Path's recipe move from node From to
// node To. FPs snapshots the moved fingerprints so crash recovery can
// reconcile reference counts even if the recipe has since changed.
type Migration struct {
	ID    uint64
	Path  string
	From  int32
	To    int32
	Start int
	Count int
	FPs   []fingerprint.Fingerprint
}

// ErrRecipeConflict reports a conditional recipe update losing its
// race: the recipe changed (or disappeared) since the caller read it.
// Wraps sderr.ErrConflict so the verdict survives the wire.
var ErrRecipeConflict = fmt.Errorf("director: recipe changed since read: %w", sderr.ErrConflict)

// ClusterMeta is the membership/migration surface of the director, used
// by the elastic-cluster backends. Both the in-process *Director and
// the TCP client (rpc.DialDirector) satisfy it.
type ClusterMeta interface {
	// Members returns the current membership epoch.
	Members(ctx context.Context) (MembershipInfo, error)
	// SetMembers commits the next membership epoch (fsync-journaled on a
	// durable director) and returns it — conditionally: ifEpoch must
	// match the current epoch, or the change fails with a wire-surviving
	// ErrConflict. The compare-and-swap is what keeps two admin clients
	// from silently overwriting each other's membership changes (and
	// from re-allocating a just-taken node ID).
	SetMembers(ctx context.Context, ifEpoch uint64, nodes []NodeInfo) (MembershipInfo, error)
	// BeginMigration journals (fsynced) the opening of one migration
	// transaction and returns its ID.
	BeginMigration(ctx context.Context, m Migration) (uint64, error)
	// EndMigration journals (fsynced) the close of a migration.
	EndMigration(ctx context.Context, id uint64) error
	// PendingMigrations lists transactions begun but never ended — the
	// crash-recovery work list.
	PendingMigrations(ctx context.Context) ([]Migration, error)
	// Recipes snapshots the whole recipe catalog (migration planning and
	// reference reconciliation).
	Recipes(ctx context.Context) ([]Recipe, error)
	// ReplaceRecipe atomically rewrites one recipe's chunk placement iff
	// the recipe is still the exact version the caller planned from —
	// same owning session AND same modification generation — and bumps
	// the generation. This is the migration's commit point; a recipe
	// that changed hands (re-backup), vanished (delete), or was
	// rewritten by a concurrent migration fails with ErrRecipeConflict
	// and the caller gives way.
	ReplaceRecipe(ctx context.Context, path string, ifSession, ifGen uint64, chunks []ChunkEntry) error
}

var _ ClusterMeta = (*Director)(nil)

// openMembers replays (and opens for append) the MEMBERS journal under
// dir; called from OpenAt.
func (d *Director) openMembers(dir string) error {
	n := 0
	var err error
	d.memberLog, err = wire.OpenLog(filepath.Join(dir, MembersJournalName), wire.LogMembers, legacyMemberLine, func(body []byte) error {
		n++
		rec, err := decodeMemberRecord(body)
		if err != nil {
			return fmt.Errorf("record %d: %w", n, err)
		}
		switch m := rec.mig; rec.kind {
		case recEpoch:
			d.members = rec.members
		case recMig:
			d.pendingMigs[m.ID] = m
			d.nextMig = max(d.nextMig, m.ID)
		case recMigEnd:
			if _, ok := d.pendingMigs[m.ID]; !ok {
				return fmt.Errorf("record %d: end of migration %d the journal never began", n, m.ID)
			}
			delete(d.pendingMigs, m.ID)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("director: %w", err)
	}
	return nil
}

// Members implements ClusterMeta.
func (d *Director) Members(ctx context.Context) (MembershipInfo, error) {
	if err := ctx.Err(); err != nil {
		return MembershipInfo{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.membersLocked(), nil
}

func (d *Director) membersLocked() MembershipInfo {
	out := MembershipInfo{Epoch: d.members.Epoch, Nodes: make([]NodeInfo, len(d.members.Nodes))}
	copy(out.Nodes, d.members.Nodes)
	return out
}

// SetMembers implements ClusterMeta: the next epoch is journaled
// (fsynced) before it becomes visible, and only if ifEpoch still names
// the current epoch — the loser of a concurrent membership change gets
// ErrConflict, never a silent overwrite.
func (d *Director) SetMembers(ctx context.Context, ifEpoch uint64, nodes []NodeInfo) (MembershipInfo, error) {
	if err := ctx.Err(); err != nil {
		return MembershipInfo{}, err
	}
	sorted := make([]NodeInfo, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.members.Epoch != ifEpoch {
		return MembershipInfo{}, fmt.Errorf(
			"director: membership moved to epoch %d while the caller planned against %d: %w",
			d.members.Epoch, ifEpoch, sderr.ErrConflict)
	}
	// The epoch counts node-set generations: only a change to the member
	// IDs bumps it. A pure re-addressing (servers restarting on new
	// ports) is journaled at the same epoch, so a never-grown cluster
	// keeps the paper-exact epoch-1 candidate width forever.
	next := MembershipInfo{Epoch: d.members.Epoch, Nodes: sorted}
	if !sameIDs(d.members.Nodes, sorted) {
		next.Epoch++
	}
	if err := d.writeRecord(d.memberLog, func(b []byte) []byte { return appendEpoch(b, next.Epoch, sorted) }); err != nil {
		return MembershipInfo{}, err
	}
	d.members = next
	return d.membersLocked(), nil
}

// sameIDs reports whether two sorted member lists name the same node
// IDs.
func sameIDs(a, b []NodeInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return len(a) > 0
}

// BeginMigration implements ClusterMeta.
func (d *Director) BeginMigration(ctx context.Context, m Migration) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextMig++
	m.ID = d.nextMig
	if err := d.writeRecord(d.memberLog, func(b []byte) []byte { return appendMig(b, &m) }); err != nil {
		return 0, err
	}
	d.pendingMigs[m.ID] = m
	return m.ID, nil
}

// EndMigration implements ClusterMeta.
func (d *Director) EndMigration(ctx context.Context, id uint64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.pendingMigs[id]; !ok {
		return fmt.Errorf("director: no pending migration %d: %w", id, sderr.ErrNotFound)
	}
	if err := d.writeRecord(d.memberLog, func(b []byte) []byte { return appendMigEnd(b, id) }); err != nil {
		return err
	}
	delete(d.pendingMigs, id)
	return nil
}

// PendingMigrations implements ClusterMeta, sorted by ID.
func (d *Director) PendingMigrations(ctx context.Context) ([]Migration, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Migration, 0, len(d.pendingMigs))
	for _, m := range d.pendingMigs {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Recipes implements ClusterMeta: a deep snapshot of the catalog,
// sorted by path.
func (d *Director) Recipes(ctx context.Context) ([]Recipe, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Recipe, 0, len(d.recipes))
	for _, r := range d.recipes {
		cp := *r
		cp.Chunks = make([]ChunkEntry, len(r.Chunks))
		copy(cp.Chunks, r.Chunks)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// ReplaceRecipe implements ClusterMeta. The rewrite keeps the recipe's
// owning session (placement moved; provenance did not), bumps the
// modification generation, and is journaled (fsynced) before it
// becomes visible — the migration's commit point. The generation check
// is what makes two concurrent migrations of one recipe safe: the
// second committer's ifGen is stale, so it conflicts instead of
// silently reverting the first one's placement (and double-releasing
// source references).
func (d *Director) ReplaceRecipe(ctx context.Context, path string, ifSession, ifGen uint64, chunks []ChunkEntry) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	path = normKey(path)
	r, ok := d.recipes[path]
	if !ok || r.Session != ifSession || r.Gen != ifGen {
		return fmt.Errorf("%w: %s", ErrRecipeConflict, path)
	}
	gen := r.Gen + 1
	tn, name := tenant.SplitKey(path)
	if err := d.writeRecord(d.recipeLog, func(b []byte) []byte { return appendPut(b, tn, name, r.Session, gen, chunks) }); err != nil {
		return err
	}
	prevSize := r.Size()
	cp := make([]ChunkEntry, len(chunks))
	copy(cp, chunks)
	d.recipes[path] = &Recipe{Path: path, Session: r.Session, Gen: gen, Chunks: cp}
	// Migration rewrites re-home chunks without changing content, so
	// this is normally a zero delta; account it anyway so live bytes
	// stay exact if a rewrite ever resizes.
	if newSize := d.recipes[path].Size(); newSize != prevSize {
		d.tenants.AccountPut(tn, newSize, prevSize, false)
	}
	return nil
}
