package migrate

import (
	"testing"

	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
)

func fp(b byte) fingerprint.Fingerprint {
	var f fingerprint.Fingerprint
	f[0] = b
	return f
}

// runs walks nextRun over a recipe placed as nodes, collecting every run
// want accepts.
func runs(nodes []int32, want func(director.ChunkEntry) bool) []segment {
	chunks := make([]director.ChunkEntry, len(nodes))
	for i, n := range nodes {
		chunks[i] = director.ChunkEntry{Node: n, Replica: -1}
	}
	var out []segment
	for at := 0; ; {
		seg, ok := nextRun(chunks, at, want)
		if !ok {
			return out
		}
		out = append(out, seg)
		at = seg.start + seg.count
	}
}

func TestNextRun(t *testing.T) {
	nodes := []int32{1, 1, 2, 1, 1, 1, 2, 2}
	on := func(n int32) func(director.ChunkEntry) bool {
		return func(e director.ChunkEntry) bool { return e.Node == n }
	}
	segs := runs(nodes, on(1))
	want := []segment{{start: 0, count: 2}, {start: 3, count: 3}}
	if len(segs) != len(want) {
		t.Fatalf("runs = %+v, want %+v", segs, want)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("run %d = %+v, want %+v", i, segs[i], want[i])
		}
	}
	if s := runs(nodes, on(3)); len(s) != 0 {
		t.Fatalf("runs of absent node = %+v", s)
	}
	// An unrestricted walk still cuts at every node boundary.
	all := runs(nodes, func(director.ChunkEntry) bool { return true })
	if len(all) != 4 || all[1] != (segment{start: 2, count: 1}) {
		t.Fatalf("unrestricted runs = %+v, want 4 same-node runs", all)
	}
}

func TestNextRunSplitsAtMax(t *testing.T) {
	const n = 2*DefaultSegmentChunks + 10
	segs := runs(make([]int32, n), func(director.ChunkEntry) bool { return true })
	if len(segs) != 3 || segs[0].count != DefaultSegmentChunks || segs[2].count != 10 {
		t.Fatalf("max-chunk split wrong: %+v", segs)
	}
	total := 0
	for _, s := range segs {
		total += s.count
	}
	if total != n {
		t.Fatalf("split covers %d chunks, want %d", total, n)
	}
}

func TestSurplus(t *testing.T) {
	fps := []fingerprint.Fingerprint{fp(1), fp(2), fp(3)}
	gotFP, gotN := surplus(fps, []int64{5, 2, 1}, []int64{3, 2, 4})
	if len(gotFP) != 1 || gotFP[0] != fp(1) || gotN[0] != 2 {
		t.Fatalf("surplus = %v/%v, want only fp1:2 (never release a deficit)", gotFP, gotN)
	}
	if f, _ := surplus(fps, []int64{1, 1, 1}, []int64{1, 1, 1}); f != nil {
		t.Fatal("balanced counts must yield no surplus")
	}
}
