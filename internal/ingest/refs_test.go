package ingest_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/ingest"
	"sigmadedupe/internal/router"
)

// refsOf cuts data into the 4KB chunk references fixed chunking makes of
// it, payloads included.
func refsOf(data []byte) []core.ChunkRef {
	var refs []core.ChunkRef
	for off := 0; off < len(data); off += 4096 {
		chunk := data[off:min(off+4096, len(data))]
		refs = append(refs, core.ChunkRef{FP: fingerprint.Sum(chunk), Size: len(chunk), Data: chunk})
	}
	return refs
}

// files feeds refs to BackupRefs as files of the given chunk counts, the
// last one taking the rest.
func files(refs []core.ChunkRef, sizes ...int) func(yield func([]core.ChunkRef) error) error {
	return func(yield func([]core.ChunkRef) error) error {
		for _, n := range sizes {
			if err := yield(refs[:n]); err != nil {
				return err
			}
			refs = refs[n:]
		}
		return yield(refs)
	}
}

// TestChunkDHTRestoresInStreamOrder: a router that splits one super-chunk
// across nodes (chunk-level DHT) still gets its recipe recorded in stream
// order — entries are attributed by chunk position, not in the order the
// per-node assignments were stored — so the item restores
// byte-identically, through either door. The refs go first: the reader
// backup after them would overwrite their payloads — slices of data —
// were the session to pool buffers that are the caller's.
func TestChunkDHTRestoresInStreamOrder(t *testing.T) {
	eachTransport(t, func(t *testing.T, transport string) {
		r := newRig(t, transport, 4, rigOpt{})
		dht, err := router.New(router.ChunkDHT, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		s := r.session(t, ingest.Config{SuperChunkSize: 64 << 10, Router: dht})
		data := randBytes(3, 300<<10)
		if err := s.BackupRefs(context.Background(), "/refs", files(refsOf(data), 10, 30)); err != nil {
			t.Fatal(err)
		}
		mustBackup(t, s, "/reader", data)
		mustFlush(t, s)
		for _, name := range []string{"/reader", "/refs"} {
			if got := r.restore(t, name); !bytes.Equal(got, data) {
				t.Fatalf("%s: restored %d bytes differ from the %d backed up", name, len(got), len(data))
			}
		}
		rec, err := r.dir.GetRecipe(context.Background(), "/refs")
		if err != nil {
			t.Fatal(err)
		}
		nodes := map[int32]bool{}
		for _, e := range rec.Chunks {
			nodes[e.Node] = true
		}
		if len(nodes) < 2 {
			t.Fatalf("DHT placed every chunk on node(s) %v; the test needs super-chunks split", nodes)
		}
	})
}

// routeLog is a router that records, for every super-chunk it places, how
// many chunks it holds and the FileMinFP it was stamped with.
type routeLog struct {
	router.Router
	mu      sync.Mutex
	sizes   []int
	fileMin []fingerprint.Fingerprint
}

func (l *routeLog) Route(sc *core.SuperChunk, v router.View) router.Decision {
	l.mu.Lock()
	l.sizes = append(l.sizes, len(sc.Chunks))
	l.fileMin = append(l.fileMin, sc.FileMinFP)
	l.mu.Unlock()
	return l.Router.Route(sc, v)
}

// TestBackupRefsMatchesBackup: the pre-fingerprinted door is the reader
// door minus chunking and hashing. The same bytes, once read and once fed
// as refs in uneven files, make identical recipes and counters; the refs'
// super-chunks span files and carry the minimum fingerprint of the file
// that completed each, the reader's carry none.
func TestBackupRefsMatchesBackup(t *testing.T) {
	data := randBytes(4, 1<<20+5000)
	refs := refsOf(data)
	sizes := []int{3, 100, 1, 60} // the fifth file takes the rest
	type side struct {
		st  ingest.Stats
		rec string
		log *routeLog
	}
	run := func(viaRefs bool) side {
		r := newRig(t, "local", 4, rigOpt{})
		log := &routeLog{Router: &router.SigmaRouter{K: core.DefaultHandprintSize}}
		s := r.session(t, ingest.Config{SuperChunkSize: 128 << 10, Inflight: 1, Router: log})
		for _, name := range []string{"/a", "/b"} { // the second dedups against the first
			if viaRefs {
				if err := s.BackupRefs(context.Background(), name, files(refs, sizes...)); err != nil {
					t.Fatal(err)
				}
			} else {
				mustBackup(t, s, name, data)
			}
		}
		mustFlush(t, s)
		var rec bytes.Buffer
		for _, name := range []string{"/a", "/b"} {
			got, err := r.dir.GetRecipe(context.Background(), name)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range got.Chunks {
				rec.WriteString(e.FP.Short())
				rec.WriteByte(byte('0' + e.Node))
			}
		}
		return side{s.Stats(), rec.String(), log}
	}
	reader, fed := run(false), run(true)
	if reader.rec != fed.rec {
		t.Fatal("recipes differ between the reader and the refs door")
	}
	a, b := reader.st, fed.st
	if a.LogicalBytes != b.LogicalBytes || a.TransferredBytes != b.TransferredBytes || a.SuperChunks != b.SuperChunks ||
		a.PreRoutingMsgs != b.PreRoutingMsgs || a.AfterRoutingMsgs != b.AfterRoutingMsgs || a.BidsSent != b.BidsSent {
		t.Fatalf("counters differ:\nreader %+v\nrefs   %+v", a, b)
	}

	// The file each super-chunk's last chunk belongs to, per item.
	ends := make([]int, 0, len(sizes)+1)
	at := 0
	for _, n := range sizes {
		at += n
		ends = append(ends, at)
	}
	ends = append(ends, len(refs))
	fileMin := func(f int) fingerprint.Fingerprint {
		from := 0
		if f > 0 {
			from = ends[f-1]
		}
		return (&core.SuperChunk{Chunks: refs[from:ends[f]]}).MinFingerprint()
	}
	pos := 0
	for i, n := range fed.log.sizes {
		pos = (pos + n) % len(refs) // both items hold the same refs
		last := pos - 1
		if pos == 0 {
			last = len(refs) - 1
		}
		f := 0
		for last >= ends[f] {
			f++
		}
		if fed.log.fileMin[i] != fileMin(f) {
			t.Fatalf("super-chunk %d ends in file %d but carries FileMinFP %s", i, f, fed.log.fileMin[i].Short())
		}
		if !reader.log.fileMin[i].IsZero() {
			t.Fatalf("reader super-chunk %d carries FileMinFP %s", i, reader.log.fileMin[i].Short())
		}
	}
}
