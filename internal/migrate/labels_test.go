package migrate

import (
	"bytes"
	"context"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/store"
)

// parked is a node transport whose Compact and Bid wait for release.
type parked struct {
	Node
	release chan struct{}
}

func (p parked) Compact(ctx context.Context, threshold float64) (store.CompactResult, error) {
	<-p.release
	return p.Node.Compact(ctx, threshold)
}

func (p parked) Bid(ctx context.Context, hp core.Handprint) (int, int64, error) {
	<-p.release
	return p.Node.Bid(ctx, hp)
}

// goroutineRecords is the debug=1 goroutine profile, one record per
// distinct stack.
func goroutineRecords(t *testing.T) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	return strings.Split(buf.String(), "\n\n")
}

// TestFanOutsRunUnderPhaseLabels: the compaction fan-out runs under
// phase=reclaim and a rebalance under phase=migrate — the goroutine
// profile shows each parked in its node call under its label — and each
// hands the caller's goroutine back with the caller's labels.
func TestFanOutsRunUnderPhaseLabels(t *testing.T) {
	r := newRig(t)
	release := make(chan struct{})
	nodes := func(id int) (Node, bool) {
		n, ok := r.nodes[id]
		return parked{Local(n), release}, ok
	}
	e := r.engine(1, nil)
	e.Nodes = nodes
	callers := pprof.WithLabels(context.Background(), pprof.Labels("caller", "test"))
	done, parkedAfter := make(chan error, 2), make(chan struct{})
	defer close(parkedAfter)
	for _, fn := range []string{"Compact", "Rebalance"} {
		go func() {
			pprof.SetGoroutineLabels(callers)
			var err error
			if fn == "Compact" {
				_, err = Compact(callers, r.members.Nodes, nodes, 0.5)
			} else {
				_, err = e.Rebalance(callers, r.members)
			}
			done <- err
			<-parkedAfter // under whatever labels the call left, for the profile below
		}()
	}
	want := map[string]string{
		"migrate.Compact+":             `"phase":"reclaim"`,
		"migrate.(*Engine).Rebalance+": `"phase":"migrate"`,
	}
	for deadline := time.Now().Add(10 * time.Second); len(want) > 0; time.Sleep(5 * time.Millisecond) {
		for _, rec := range goroutineRecords(t) {
			for fn, label := range want {
				if strings.Contains(rec, fn) && strings.Contains(rec, label) {
					delete(want, fn)
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no goroutine in %v under its phase label", want)
		}
	}
	close(release)
	for range 2 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	back := 0 // the callers, returned from the fan-outs
	for _, rec := range goroutineRecords(t) {
		if strings.Contains(rec, "TestFanOutsRunUnderPhaseLabels.func") {
			if strings.Contains(rec, `"phase":`) || !strings.Contains(rec, `"caller":"test"`) {
				t.Fatalf("a caller's labels were not given back after the fan-out returned:\n%s", rec)
			}
			back++
		}
	}
	if back == 0 {
		t.Fatal("no caller in the goroutine profile")
	}
}
