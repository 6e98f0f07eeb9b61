package main

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := newTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs := []traceRecord{
		{FP: fingerprint.Sum([]byte("a")), Size: 4096, FileID: 1},
		{FP: fingerprint.Sum([]byte("b")), Size: 123, FileID: 0},
		{FP: fingerprint.Sum([]byte("c")), Size: 1 << 20, FileID: 99},
	}
	for _, rec := range recs {
		if err := w.write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if w.count() != 3 {
		t.Fatalf("count = %d", w.count())
	}
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}

	r, err := newTraceReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := readAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
	if got[0].ref().Size != 4096 {
		t.Fatal("Ref conversion broken")
	}
}

func TestBadHeader(t *testing.T) {
	if _, err := newTraceReader(bytes.NewReader([]byte("XXXX----"))); !errors.Is(err, errBadHeader) {
		t.Fatalf("err = %v, want errBadHeader", err)
	}
	if _, err := newTraceReader(bytes.NewReader(nil)); !errors.Is(err, errBadHeader) {
		t.Fatalf("empty stream err = %v, want errBadHeader", err)
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := newTraceWriter(&buf)
	w.write(traceRecord{Size: 1})
	w.flush()
	raw := buf.Bytes()[:buf.Len()-5] // cut mid-record
	r, err := newTraceReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.next(); err == nil || err == io.EOF {
		t.Fatalf("truncated record err = %v, want explicit error", err)
	}
}

// TestCaptureWorkload captures a generated workload as a trace and
// replays it, checking logical/physical equivalence.
func TestCaptureWorkload(t *testing.T) {
	g, err := workload.ByName("web", 0.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	corpus := workload.NewCorpus(0)
	var buf bytes.Buffer
	w, _ := newTraceWriter(&buf)
	var logical int64
	err = g.Items(func(it workload.Item) error {
		for _, ref := range corpus.ChunkRefs(it, false) {
			logical += int64(ref.Size)
			if err := w.write(traceRecord{FP: ref.FP, Size: uint32(ref.Size), FileID: it.FileID}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	w.flush()

	r, _ := newTraceReader(bytes.NewReader(buf.Bytes()))
	recs, err := readAll(r)
	if err != nil {
		t.Fatal(err)
	}
	var replayed int64
	uniq := map[fingerprint.Fingerprint]bool{}
	for _, rec := range recs {
		replayed += int64(rec.Size)
		uniq[rec.FP] = true
	}
	if replayed != logical {
		t.Fatalf("replayed %d bytes, want %d", replayed, logical)
	}
	if len(uniq) == 0 || len(uniq) >= len(recs) {
		t.Fatalf("trace lost dedup structure: %d unique of %d", len(uniq), len(recs))
	}
}

// readAll drains r.
func readAll(r *traceReader) ([]traceRecord, error) {
	var out []traceRecord
	for {
		rec, err := r.next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}
