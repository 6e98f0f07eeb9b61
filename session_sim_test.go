package sigmadedupe

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
)

func TestSimSessionTransferredBytes(t *testing.T) {
	ctx := context.Background()
	c, err := NewCluster(ClusterConfig{Nodes: 2, KeepPayloads: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.NewSession(ctx, WithSuperChunkSize(32<<10))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(5)).Read(data)
	if err := sess.Backup(ctx, "/u", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Backup(ctx, "/dup", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	t.Logf("logical=%d transferred=%d saving=%.2f peak=%d", st.LogicalBytes, st.TransferredBytes, st.BandwidthSaving(), st.PeakBufferedBytes)
	if st.TransferredBytes <= 0 || st.TransferredBytes >= st.LogicalBytes {
		t.Fatalf("transferred=%d out of (0,%d)", st.TransferredBytes, st.LogicalBytes)
	}
	if s := st.BandwidthSaving(); s < 0.4 || s > 0.6 {
		t.Fatalf("saving=%.2f, want ~0.5 for one duplicate generation", s)
	}
	// Peak buffered stays within the window bound — in flight, completed
	// but unapplied, and the one just cut, each at most 2x the target —
	// as on the prototype.
	if bound := int64(2*4+1) * 2 * (32 << 10); st.PeakBufferedBytes <= 0 || st.PeakBufferedBytes > bound {
		t.Fatalf("peak=%d outside the window bound %d", st.PeakBufferedBytes, bound)
	}
}
