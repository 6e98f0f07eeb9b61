package migrate

import (
	"context"
	"fmt"
	"sync"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/router"
	"sigmadedupe/internal/sderr"
)

// View is a router.View over node transports for one routing decision
// within one membership: bids go out through Node.Bid under the view's
// context, a node's usage is what its bid reply reported, and the first
// bid that fails is kept for the caller (Err) while scoring zero. Not
// safe for concurrent use; build one per decision.
type View struct {
	ctx     context.Context
	members core.Membership
	nodes   func(id int) (Node, bool)
	bids    map[int]bid
	err     error
}

type bid struct {
	count int
	usage int64
}

var _ router.View = (*View)(nil)

// NewView builds a view of members whose bids run under ctx.
func NewView(ctx context.Context, members core.Membership, nodes func(id int) (Node, bool)) *View {
	return &View{ctx: ctx, members: members, nodes: nodes}
}

// N implements router.View.
func (v *View) N() int { return v.members.Len() }

// Membership implements router.View.
func (v *View) Membership() core.Membership { return v.members }

func (v *View) ask(id int, hp core.Handprint) (bid, error) {
	nd, ok := v.nodes(id)
	if !ok {
		return bid{}, fmt.Errorf("bid node %d: not in the cluster: %w", id, sderr.ErrNotFound)
	}
	count, usage, err := nd.Bid(v.ctx, hp)
	if err != nil {
		return bid{}, fmt.Errorf("bid node %d: %w", id, err)
	}
	return bid{count, usage}, nil
}

// BidHandprint implements router.View. The first bid of the decision
// asks every rendezvous candidate of hp at once — over a network a
// decision then costs one round trip, not one per candidate — and the
// router's further questions are answered from those replies.
func (v *View) BidHandprint(id int, hp core.Handprint) int {
	if v.bids == nil {
		cands := v.members.Candidates(hp, 0)
		replies, errs := make([]bid, len(cands)), make([]error, len(cands))
		var wg sync.WaitGroup
		for i, c := range cands {
			wg.Add(1)
			go func() {
				defer wg.Done()
				replies[i], errs[i] = v.ask(c, hp)
			}()
		}
		wg.Wait()
		v.bids = make(map[int]bid, len(cands))
		for i, c := range cands {
			if v.bids[c] = replies[i]; errs[i] != nil && v.err == nil {
				v.err = errs[i]
			}
		}
	}
	b, ok := v.bids[id]
	if !ok { // not a rendezvous candidate: ask now
		var err error
		if b, err = v.ask(id, hp); err != nil && v.err == nil {
			v.err = err
		}
		v.bids[id] = b
	}
	return b.count
}

// BidChunks implements router.View; the transport has no chunk-sample
// bid, and the Sigma router never asks for one.
func (v *View) BidChunks(int, []fingerprint.Fingerprint) int { return 0 }

// Usage implements router.View.
func (v *View) Usage(id int) int64 { return v.bids[id].usage }

// Err returns the first bid failure, if any.
func (v *View) Err() error { return v.err }
