package sigmadedupe

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

// commitUnflushed backs up each of items through sess, then a 1 MB item
// whose window settles their routes, so every one of them is committed
// while the session, unflushed, still holds its containers open. It
// returns their contents by name.
func commitUnflushed(t *testing.T, be Backend, sess *Session, seed int64, items ...string) map[string][]byte {
	t.Helper()
	ctx := context.Background()
	content := make(map[string][]byte)
	for i, name := range items {
		content[name] = gcRandBytes(seed+int64(i), 128<<10)
		if err := sess.Backup(ctx, name, bytes.NewReader(content[name])); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Backup(ctx, fmt.Sprintf("/settle%d", seed), bytes.NewReader(gcRandBytes(seed-1, 1<<20))); err != nil {
		t.Fatal(err)
	}
	for _, name := range items {
		if rec, err := planeOf(t, be).meta.GetRecipe(ctx, name); err != nil || rec.Size() != int64(len(content[name])) {
			t.Fatalf("%s: recipe of %d bytes (%v) before the session flushed, want %d: not committed", name, rec.Size(), err, len(content[name]))
		}
	}
	return content
}

// TestCommittedUnflushedIsReadable: an item is readable once it commits,
// not once its writer flushes. While the writing session holds its
// containers open, on both backends, a committed item restores; a copy
// that a second session committed on top of its chunks restores;
// Rebalance onto an empty node moves it; and at R=2, after a node is
// killed, a restore reads the surviving copy and Repair re-replicates it.
func TestCommittedUnflushedIsReadable(t *testing.T) {
	ctx := context.Background()
	open := func(t *testing.T, be Backend, name string) *Session {
		sess, err := be.NewSession(ctx, WithSessionName(name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		return sess
	}
	t.Run("restore", func(t *testing.T) {
		eachBackend(t, 0, func(t *testing.T, be Backend) {
			for name, data := range commitUnflushed(t, be, open(t, be, "writer"), 2600, "/a") {
				mustRestore(t, be, name, data)
			}
		})
	})
	t.Run("second-session", func(t *testing.T) {
		eachBackend(t, 0, func(t *testing.T, be Backend) {
			a := commitUnflushed(t, be, open(t, be, "writer"), 2610, "/a")["/a"]
			second := open(t, be, "second")
			if err := second.Backup(ctx, "/copy", bytes.NewReader(a)); err != nil {
				t.Fatal(err)
			}
			commitUnflushed(t, be, second, 2620, "/b")
			if st := second.Stats(); st.TransferredBytes >= st.LogicalBytes-int64(len(a))/2 {
				t.Fatalf("the copy transferred %d of %d bytes: it did not dedup against the writer's chunks", st.TransferredBytes, st.LogicalBytes)
			}
			mustRestore(t, be, "/copy", a)
		})
	})
	t.Run("rebalance", func(t *testing.T) {
		// One node holds every item; the joined one owns about half of
		// the sixteen items' segments.
		eachBackendOf(t, 1, 0, func(t *testing.T, be Backend) {
			items := make([]string, 16)
			for i := range items {
				items[i] = fmt.Sprintf("/item%02d", i)
			}
			writer := open(t, be, "writer")
			content := commitUnflushed(t, be, writer, 2630, items...)
			if _, err := be.AddNode(ctx, joinAddr(t, be, 1)); err != nil {
				t.Fatal(err)
			}
			res, err := be.Rebalance(ctx)
			if err != nil {
				t.Fatalf("Rebalance of committed, unflushed items: %v", err)
			}
			if res.SuperChunks == 0 {
				t.Fatalf("Rebalance onto an empty node moved nothing: %+v", res)
			}
			for name, data := range content {
				mustRestore(t, be, name, data)
			}
			if err := writer.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			assertCatalogConsistent(t, be)
		})
	})
	t.Run("R=2", func(t *testing.T) {
		for _, repair := range []bool{false, true} {
			t.Run(map[bool]string{false: "failover", true: "repair"}[repair], func(t *testing.T) {
				eachBackend(t, 2, func(t *testing.T, be Backend) {
					content := commitUnflushed(t, be, open(t, be, "writer"), 2640, "/a", "/b")
					if err := be.KillNode(ctx, 1); err != nil {
						t.Fatal(err)
					}
					if repair {
						if _, err := be.Repair(ctx); err != nil {
							t.Fatalf("Repair of committed, unflushed items: %v", err)
						}
					}
					for name, data := range content {
						mustRestore(t, be, name, data)
					}
				})
			})
		}
	})
}
