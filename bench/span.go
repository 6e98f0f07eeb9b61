package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one traced call into a layer. Spans of one super-chunk (or one
// restored item) share Item; Parent is the span that was open when this
// one began, -1 at the root. Count is the number of layer calls the span
// covers: the per-chunk layers (chunker, fingerprint, partitioner) are
// traced one span per item, not per chunk.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Item   int64  `json:"item"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count"`
}

// recorder keeps spans in memory; the replay is single-goroutine, so the
// open-span stack needs no lock. A nil recorder records nothing, which is
// how the seed portion is replayed untraced.
type recorder struct {
	t0    time.Time
	spans []span
	stack []int32
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, item int64) int32 {
	if r == nil {
		return -1
	}
	id := int32(len(r.spans))
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Item: item,
		Start: time.Since(r.t0).Nanoseconds()})
	r.stack = append(r.stack, id)
	return id
}

func (r *recorder) end(id int32, count int64) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.t0).Nanoseconds()
	r.spans[id].Count = count
	r.stack = r.stack[:len(r.stack)-1]
}

// selfSeconds returns, per span name, the summed self time: a span's
// duration minus the part of it its child spans cover.
func selfSeconds(spans []span) map[string]float64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		out[s.Name] += float64(s.End-s.Start-child[i]) / 1e9
	}
	return out
}

// checkSpans verifies the tree is well formed: every parent exists and
// precedes its child, every child lies inside its parent, and no span
// has negative self time.
func checkSpans(spans []span) error {
	child := make([]int64, len(spans))
	for i, s := range spans {
		if int(s.ID) != i || s.End < s.Start {
			return fmt.Errorf("span %d (%s): bad id or interval", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if int(s.Parent) >= i {
			return fmt.Errorf("span %d (%s): parent %d does not precede it", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", i, s.Name, p.ID, p.Name)
		}
		child[s.Parent] += s.End - s.Start
	}
	for i, s := range spans {
		if child[i] > s.End-s.Start {
			return fmt.Errorf("span %d (%s): negative self time", i, s.Name)
		}
	}
	return nil
}

// spanCostSeconds measures what recording one span costs on this host,
// so the traced run can report its own overhead.
func spanCostSeconds() float64 {
	const n = 200000
	r := newRecorder()
	r.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin("calibrate", 0), 1)
	}
	return time.Since(start).Seconds() / n
}

func writeTrace(path, workload string, seed int64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
