package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
)

// traceMagic opens a binary chunk trace: a compact stream of
// (fingerprint, size, file ID) records, so that a chunked-and-
// fingerprinted workload can be captured once and replayed through
// cluster configurations without re-hashing (the methodology of the
// paper's §4.4, which drives the cluster experiments from fingerprint
// traces rather than raw data).
//
// Format:
//
//	header:  "SDT1"
//	record:  fp[20] | size uint32 | fileID uint64   (big endian)
const traceMagic = "SDT1"

// traceRecord is one chunk observation in a trace.
type traceRecord struct {
	FP     fingerprint.Fingerprint
	Size   uint32
	FileID uint64
}

// ref converts the record to a payload-less chunk reference.
func (r traceRecord) ref() core.ChunkRef {
	return core.ChunkRef{FP: r.FP, Size: int(r.Size)}
}

// traceWriter streams records to an io.Writer.
type traceWriter struct {
	w   *bufio.Writer
	buf [32]byte
	n   int64
}

// newTraceWriter writes the trace header and returns a traceWriter.
func newTraceWriter(w io.Writer) (*traceWriter, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return nil, fmt.Errorf("trace: write header: %w", err)
	}
	return &traceWriter{w: bw}, nil
}

// write appends one record.
func (w *traceWriter) write(rec traceRecord) error {
	copy(w.buf[:20], rec.FP[:])
	binary.BigEndian.PutUint32(w.buf[20:], rec.Size)
	binary.BigEndian.PutUint64(w.buf[24:], rec.FileID)
	if _, err := w.w.Write(w.buf[:]); err != nil {
		return fmt.Errorf("trace: write record: %w", err)
	}
	w.n++
	return nil
}

// count returns the number of records written.
func (w *traceWriter) count() int64 { return w.n }

// flush flushes buffered records to the underlying writer.
func (w *traceWriter) flush() error {
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// errBadHeader reports a stream that is not a chunk trace.
var errBadHeader = errors.New("trace: bad header")

// traceReader streams records from an io.Reader.
type traceReader struct {
	r   *bufio.Reader
	buf [32]byte
}

// newTraceReader validates the header and returns a traceReader.
func newTraceReader(r io.Reader) (*traceReader, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadHeader, err)
	}
	if string(head) != traceMagic {
		return nil, errBadHeader
	}
	return &traceReader{r: br}, nil
}

// next returns the next record, or io.EOF at the end of the trace.
func (r *traceReader) next() (traceRecord, error) {
	if _, err := io.ReadFull(r.r, r.buf[:]); err != nil {
		if err == io.EOF {
			return traceRecord{}, io.EOF
		}
		return traceRecord{}, fmt.Errorf("trace: truncated record: %w", err)
	}
	var rec traceRecord
	copy(rec.FP[:], r.buf[:20])
	rec.Size = binary.BigEndian.Uint32(r.buf[20:])
	rec.FileID = binary.BigEndian.Uint64(r.buf[24:])
	return rec, nil
}
