package sigmadedupe

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"sigmadedupe/internal/director"
)

// BenchmarkReplicatedIngest measures R=2 ingest — the one ingest path
// none of the BENCHMARK.json workloads covers: unique data through the
// one-shot Backup, then Flush, with Replicas 2. Four shapes: on an 8-node
// simulator, many small items on RAM nodes and on durable nodes (per-item
// overheads: seals, read-backs) and one large item (costs that grow with
// an item's super-chunk count); on the prototype, many small items over
// loopback TCP into 4 RAM servers with a durable director. Reports ingest
// MB/s (b.SetBytes) and the sealed containers the run left across the
// cluster ("containers": replication must not seal containers of its
// own); the prototype also reports the director's RECIPES + MEMBERS
// journal bytes per item and the session's node RPCs per item. One
// iteration is one fresh deployment, set up and torn down off the clock;
// compare commits in alternating pairs of
//
//	go test -run '^$' -bench ReplicatedIngest -benchtime 1x .
func BenchmarkReplicatedIngest(b *testing.B) {
	for _, shape := range []struct {
		name            string
		items, itemSize int
		durable, remote bool
	}{
		{"small-ram", 1500, 96 << 10, false, false},
		{"small-dir", 1500, 96 << 10, true, false},
		{"large-ram", 1, 256 << 20, false, false},
		{"remote", 1500, 96 << 10, false, true},
	} {
		b.Run(shape.name, func(b *testing.B) {
			data := make([]byte, shape.items*shape.itemSize)
			rand.New(rand.NewSource(1)).Read(data)
			ctx := context.Background()
			b.SetBytes(int64(len(data)))
			var containers int
			var journal, rpcs int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				be, teardown := replicatedDeployment(b, shape.durable, shape.remote)
				b.StartTimer()
				for j := 0; j < shape.items; j++ {
					item := data[j*shape.itemSize : (j+1)*shape.itemSize]
					if err := be.Backup(ctx, fmt.Sprintf("item-%04d", j), readerOf(item)); err != nil {
						b.Fatal(err)
					}
				}
				if err := be.Flush(ctx); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				gc, err := gcStatsOf(ctx, be)
				if err != nil {
					b.Fatal(err)
				}
				containers = gc.Containers
				st, err := be.Stats(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if want := int64(2 * len(data)); st.PhysicalBytes != want {
					b.Fatalf("physical bytes %d, want %d (two copies of every unique byte)", st.PhysicalBytes, want)
				}
				if r, ok := be.(*Remote); ok {
					rpcs = r.RPCMessages()
				}
				journal = teardown()
				b.StartTimer()
			}
			b.ReportMetric(float64(containers), "containers")
			if shape.remote {
				b.ReportMetric(float64(journal)/float64(shape.items), "journal_B/item")
				b.ReportMetric(float64(rpcs)/float64(shape.items), "rpc/item")
			}
		})
	}
}

// replicatedDeployment starts one R=2 deployment for
// BenchmarkReplicatedIngest: an 8-node simulator (durable: on disk), or
// 4 loopback RAM servers behind a durable director. teardown closes it and
// returns the director's journal bytes (0 for the simulator).
func replicatedDeployment(b *testing.B, durable, remote bool) (be Backend, teardown func() int64) {
	b.Helper()
	if !remote {
		cfg := ClusterConfig{Nodes: 8, KeepPayloads: true, Replicas: 2}
		if durable {
			cfg.Dir = b.TempDir()
		}
		c, err := NewCluster(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return c, func() int64 {
			if err := c.Close(); err != nil {
				b.Fatal(err)
			}
			return 0
		}
	}
	dir := b.TempDir()
	meta, err := OpenDirectorAt(dir)
	if err != nil {
		b.Fatal(err)
	}
	srvs := make([]*Server, 4)
	addrs := make([]string, len(srvs))
	for i := range srvs {
		if srvs[i], err = StartServer(ServerConfig{ID: i}); err != nil {
			b.Fatal(err)
		}
		addrs[i] = srvs[i].Addr()
	}
	r, err := NewRemote(context.Background(), RemoteConfig{Director: meta, Nodes: addrs, Replicas: 2})
	if err != nil {
		b.Fatal(err)
	}
	return r, func() (journal int64) {
		err := r.Close()
		for _, srv := range srvs {
			if cerr := srv.Close(); err == nil {
				err = cerr
			}
		}
		if cerr := meta.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range []string{director.JournalName, director.MembersJournalName} {
			fi, err := os.Stat(filepath.Join(dir, name))
			if err != nil {
				b.Fatal(err)
			}
			journal += fi.Size()
		}
		return journal
	}
}
