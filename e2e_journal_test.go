package sigmadedupe

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/rpc"
	"sigmadedupe/internal/store"
	"sigmadedupe/internal/tenant"
	"sigmadedupe/internal/wire"
)

// tearTail cuts the last n bytes off a journal: a crash in the middle of
// its final append.
func tearTail(t *testing.T, path string, n int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// journalSC is a small payload-carrying super-chunk for the manifest rows.
func journalSC(seed int64) *core.SuperChunk {
	rng := rand.New(rand.NewSource(seed))
	sc := &core.SuperChunk{}
	for i := 0; i < 4; i++ {
		data := make([]byte, 1024)
		rng.Read(data)
		sc.Chunks = append(sc.Chunks, core.ChunkRef{FP: fingerprint.Sum(data), Size: 1024, Data: data})
	}
	return sc
}

// TestTornJournalTailSurvivesTwoRestarts: every durable journal tolerates
// a torn final record on open, and the next record appended after it must
// not be glued onto the fragment — the open after that one sees every
// whole record. One row per journal: write, tear the last record, open,
// append, close, open again.
func TestTornJournalTailSurvivesTwoRestarts(t *testing.T) {
	ctx := context.Background()
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		file string
		// first writes the records the test keeps, then the one it tears.
		first func(t *testing.T, dir string)
		// then reopens (the torn open), appends one record, closes.
		then func(t *testing.T, dir string)
		// check opens a third time and asserts every whole record.
		check func(t *testing.T, dir string)
	}{
		{
			name: "MANIFEST", file: store.ManifestName,
			first: func(t *testing.T, dir string) {
				cfg := store.Config{Dir: dir, KeepPayloads: true}
				e, err := store.New(cfg)
				must(t, err)
				_, err = e.StoreSuperChunk("s", journalSC(1))
				must(t, err)
				_, err = e.StoreSuperChunk("s", journalSC(1))
				must(t, err)
				must(t, e.Close())
				// The torn record: one decref, the journal's last.
				cfg.Recover = true
				e, err = store.New(cfg)
				must(t, err)
				sc := journalSC(1)
				fps, ns := core.AggregateRefs([]fingerprint.Fingerprint{sc.Chunks[0].FP})
				must(t, e.DecRef(fps, ns))
				must(t, e.Close())
			},
			then: func(t *testing.T, dir string) {
				e, err := store.New(store.Config{Dir: dir, KeepPayloads: true, Recover: true})
				must(t, err)
				_, err = e.StoreSuperChunk("s", journalSC(2))
				must(t, err)
				must(t, e.Close())
			},
			check: func(t *testing.T, dir string) {
				e, err := store.New(store.Config{Dir: dir, KeepPayloads: true, Recover: true})
				must(t, err)
				defer e.Close()
				for _, ch := range journalSC(1).Chunks {
					if got := e.RefCount(ch.FP); got != 2 {
						t.Fatalf("first super-chunk RefCount = %d, want 2 (the torn decref never committed)", got)
					}
				}
				for _, ch := range journalSC(2).Chunks {
					if got := e.RefCount(ch.FP); got != 1 {
						t.Fatalf("super-chunk stored after the torn open: RefCount = %d, want 1", got)
					}
				}
			},
		},
		{
			name: "RECIPES", file: director.JournalName,
			first: func(t *testing.T, dir string) {
				d, err := director.OpenAt(dir)
				must(t, err)
				s, err := d.BeginSession(ctx, "c", "")
				must(t, err)
				must(t, d.PutRecipe(ctx, s, "a", []director.ChunkEntry{{Size: 1, Replica: -1}}))
				must(t, d.PutRecipe(ctx, s, "b", []director.ChunkEntry{{Size: 2, Replica: -1}}))
				must(t, d.Close())
			},
			then: func(t *testing.T, dir string) {
				d, err := director.OpenAt(dir)
				must(t, err)
				s, err := d.BeginSession(ctx, "c", "")
				must(t, err)
				must(t, d.PutRecipe(ctx, s, "c", []director.ChunkEntry{{Size: 3, Replica: 1}}))
				must(t, d.Close())
			},
			check: func(t *testing.T, dir string) {
				d, err := director.OpenAt(dir)
				must(t, err)
				defer d.Close()
				want := []string{tenant.Key("", "a"), tenant.Key("", "c")}
				if got := d.Files(); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("recipes %q, want %q", got, want)
				}
			},
		},
		{
			name: "MEMBERS", file: director.MembersJournalName,
			first: func(t *testing.T, dir string) {
				d, err := director.OpenAt(dir)
				must(t, err)
				_, err = d.SetMembers(ctx, 0, []director.NodeInfo{{ID: 0}, {ID: 1}})
				must(t, err)
				_, err = d.BeginMigration(ctx, director.Migration{Path: "x", From: 0, To: 1, Count: 1})
				must(t, err)
				must(t, d.Close())
			},
			then: func(t *testing.T, dir string) {
				d, err := director.OpenAt(dir)
				must(t, err)
				_, err = d.BeginMigration(ctx, director.Migration{Path: "y", From: 1, To: 0, Count: 2})
				must(t, err)
				must(t, d.Close())
			},
			check: func(t *testing.T, dir string) {
				d, err := director.OpenAt(dir)
				must(t, err)
				defer d.Close()
				m, err := d.Members(ctx)
				must(t, err)
				if m.Epoch != 1 || len(m.Nodes) != 2 {
					t.Fatalf("members %+v, want epoch 1 with 2 nodes", m)
				}
				p, err := d.PendingMigrations(ctx)
				must(t, err)
				if len(p) != 1 || p[0].Path != "y" {
					t.Fatalf("pending migrations %+v, want only the one begun after the torn open", p)
				}
			},
		},
		{
			name: "TENANTS", file: director.TenantJournalName,
			first: func(t *testing.T, dir string) {
				d, err := director.OpenAt(dir)
				must(t, err)
				must(t, d.CreateTenant(ctx, tenant.Info{Name: "t1"}))
				must(t, d.CreateTenant(ctx, tenant.Info{Name: "t2"}))
				must(t, d.Close())
			},
			then: func(t *testing.T, dir string) {
				d, err := director.OpenAt(dir)
				must(t, err)
				must(t, d.CreateTenant(ctx, tenant.Info{Name: "t3", Weight: 2}))
				must(t, d.Close())
			},
			check: func(t *testing.T, dir string) {
				d, err := director.OpenAt(dir)
				must(t, err)
				defer d.Close()
				var names []string
				for _, info := range d.Registry().List() {
					names = append(names, info.Name)
				}
				if want := fmt.Sprint([]string{tenant.Default, "t1", "t3"}); fmt.Sprint(names) != want {
					t.Fatalf("tenants %q, want %s", names, want)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.first(t, dir)
			tearTail(t, filepath.Join(dir, tc.file), 3)
			tc.then(t, dir)
			tc.check(t, dir)
		})
	}
}

// journalFixture is testdata/journal-v0/expect.json: what the JSON-lines
// journal code's own replay of the fixture yielded.
type journalFixture struct {
	Items   []struct{ Tenant, Name, SHA256 string }
	Refs    []map[string]int64 // per node: fingerprint hex -> refcount
	Pending []director.Migration
	Epoch   uint64
	Tenants []director.TenantStatus
	Recipes int
}

// TestLegacyJournalFixtureOpens pins the journal formats as contracts.
// testdata/journal-v0 was written by the JSON-lines journals, the format
// before the record log: two durable nodes at a 4 KB container capacity
// behind a durable director, R=2 and 1 KB chunks, whose MANIFESTs hold
// seal, rfp, ref, decref and retire records, RECIPES a superseded
// generation, a tenant's recipe and a del record, MEMBERS an epoch, a
// finished and a pending migration, TENANTS one tenant. The record-log
// code must open it to the state expect.json records, restore every live
// item byte-identical, compact, and rewrite each journal as a record log
// exactly once.
func TestLegacyJournalFixtureOpens(t *testing.T) {
	ctx := context.Background()
	root := t.TempDir()
	if err := os.CopyFS(root, os.DirFS(filepath.Join("testdata", "journal-v0"))); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "expect.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want journalFixture
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	nodeDir := func(i int) string { return filepath.Join(root, fmt.Sprintf("node%d", i)) }
	journals := []string{
		filepath.Join(nodeDir(0), store.ManifestName), filepath.Join(nodeDir(1), store.ManifestName),
		filepath.Join(root, "director", director.JournalName),
		filepath.Join(root, "director", director.MembersJournalName),
		filepath.Join(root, "director", director.TenantJournalName),
	}

	// open recovers the director and both nodes and checks the replayed
	// state against the fixture's.
	open := func(t *testing.T) (*director.Director, []*store.Engine) {
		t.Helper()
		meta, err := director.OpenAt(filepath.Join(root, "director"))
		if err != nil {
			t.Fatal(err)
		}
		recipes, _ := meta.Recipes(ctx)
		pending, _ := meta.PendingMigrations(ctx)
		members, _ := meta.Members(ctx)
		tenants, _ := meta.Tenants(ctx)
		if len(recipes) != want.Recipes || members.Epoch != want.Epoch ||
			!reflect.DeepEqual(pending, want.Pending) || !reflect.DeepEqual(tenants, want.Tenants) {
			t.Fatalf("director replayed %d recipes, epoch %d, pending %+v, tenants %+v; want %d, %d, %+v, %+v",
				len(recipes), members.Epoch, pending, tenants, want.Recipes, want.Epoch, want.Pending, want.Tenants)
		}
		var nodes []*store.Engine
		for i, refs := range want.Refs {
			n, err := store.New(store.Config{ID: i, KeepPayloads: true, Dir: nodeDir(i), ContainerCapacity: 4 << 10, Recover: true})
			if err != nil {
				t.Fatal(err)
			}
			for h, wantN := range refs {
				fp, err := fingerprint.Parse(h)
				if err != nil {
					t.Fatal(err)
				}
				if got := n.RefCount(fp); got != wantN {
					t.Errorf("node %d chunk %s: RefCount %d, want %d", i, h[:8], got, wantN)
				}
			}
			nodes = append(nodes, n)
		}
		return meta, nodes
	}

	meta, nodes := open(t)
	var addrs []string
	var srvs []*rpc.Server
	for _, n := range nodes {
		srv, err := rpc.NewServer(n, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srvs = append(srvs, srv)
		addrs = append(addrs, srv.Addr())
	}
	r, err := NewRemote(ctx, RemoteConfig{Director: meta, Nodes: addrs, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range want.Items {
		var buf bytes.Buffer
		if err := r.RestoreTenant(ctx, it.Tenant, it.Name, &buf); err != nil {
			t.Fatalf("restore %s/%s: %v", it.Tenant, it.Name, err)
		}
		if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != it.SHA256 {
			t.Fatalf("restore %s/%s: content differs from the backed-up item", it.Tenant, it.Name)
		}
	}
	if _, err := r.Compact(ctx, 0.99); err != nil {
		t.Fatalf("compact the converted stores: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for _, srv := range srvs {
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := meta.Close(); err != nil {
		t.Fatal(err)
	}

	var converted []os.FileInfo
	for _, path := range journals {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(raw, []byte(wire.LogMagic)) {
			t.Fatalf("%s was not rewritten as a record log", path)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		converted = append(converted, fi)
	}
	// The second open replays the record logs as they are: same state, and
	// no journal is rewritten again (a rewrite renames a new file in).
	meta, nodes = open(t)
	for _, n := range nodes {
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := meta.Close(); err != nil {
		t.Fatal(err)
	}
	for i, path := range journals {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(fi, converted[i]) {
			t.Fatalf("%s was rewritten by the second open", path)
		}
	}
}

// TestJournalBytesPerChunkEntry measures what a chunk entry costs the
// journals: one super-chunk of 256 distinct 4 KB chunks stored on a
// durable node, its recipe committed on a durable director. Everything
// else in the files — header, seal and rfp records, frames — is charged
// to the entries too.
func TestJournalBytesPerChunkEntry(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(37))
	sc := &core.SuperChunk{}
	entries := make([]director.ChunkEntry, 256)
	for i := range entries {
		data := make([]byte, 4096)
		rng.Read(data)
		fp := fingerprint.Sum(data)
		sc.Chunks = append(sc.Chunks, core.ChunkRef{FP: fp, Size: len(data), Data: data})
		entries[i] = director.ChunkEntry{FP: fp, Size: 4096, Node: 1, Replica: 2}
	}
	e, err := store.New(store.Config{Dir: filepath.Join(dir, "node"), KeepPayloads: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.StoreSuperChunk("s", sc); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := director.OpenAt(filepath.Join(dir, "director"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.BeginSession(ctx, "c", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PutRecipe(ctx, s, "vm/disk0", entries); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path string
		max  float64
	}{
		{filepath.Join(dir, "node", store.ManifestName), 23},
		{filepath.Join(dir, "director", director.JournalName), 26},
	} {
		fi, err := os.Stat(c.path)
		if err != nil {
			t.Fatal(err)
		}
		per := float64(fi.Size()) / float64(len(entries))
		t.Logf("%s: %d bytes, %.2f per chunk entry", filepath.Base(c.path), fi.Size(), per)
		if per > c.max {
			t.Errorf("%s costs %.2f bytes per chunk entry, want at most %.0f", filepath.Base(c.path), per, c.max)
		}
	}
}
