package wire

// Record log: the on-disk journal format every durable catalog shares —
// the node's MANIFEST and the director's RECIPES, MEMBERS and TENANTS.
// Callers encode and decode record bodies with the Append*/Reader
// primitives; framing, the open-time scan, the torn-tail rule, legacy
// conversion and fsync live here, once.
//
//	file:   "SDRL" | version u8 | kind u8 | reserved u16   (8 bytes)
//	record: length u32 LE | crc32c(body) u32 LE | body (length bytes)
//
// A body is never empty (its first byte is the caller's record type).
// The header is written with the first record, so a log nothing was ever
// appended to stays an empty file.
//
// Torn tail: the first record that fails its frame — short header,
// length past the end of the file, zero length, CRC mismatch — is a
// crash mid-append only if no whole record begins anywhere after it. The
// open then truncates the file to the last whole record (and fsyncs), so
// the next append never lands behind a fragment. A damaged record that
// a whole record follows is corruption: the open fails with an error
// wrapping sderr.ErrCorrupt.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"sigmadedupe/internal/sderr"
)

// LogMagic opens every record log. A journal file that does not start
// with it was written as JSON lines, before the record log existed.
const LogMagic = "SDRL"

// logVersion is the record-log format version, carried in the header.
const logVersion = 1

// Journal kinds carried in the header's kind byte, so a log opened as
// the wrong journal fails instead of misparsing.
const (
	LogManifest byte = 1 // node MANIFEST (internal/store)
	LogRecipes  byte = 2 // director RECIPES
	LogMembers  byte = 3 // director MEMBERS
	LogTenants  byte = 4 // director TENANTS
)

const (
	logHeaderSize    = 8
	recordHeaderSize = 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func logHeader(kind byte) []byte {
	return append([]byte(LogMagic), logVersion, kind, 0, 0)
}

// BeginRecord starts a record at the end of b by reserving its frame
// header; append the body, then call EndRecord with the offset the
// record began at (len(b) before this call).
func BeginRecord(b []byte) []byte { return append(b, 0, 0, 0, 0, 0, 0, 0, 0) }

// EndRecord fills in the frame header of the record begun at b[start:].
func EndRecord(b []byte, start int) {
	body := b[start+recordHeaderSize:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(body, castagnoli))
}

// recordAt returns the body of the whole record framed at raw[off:], or
// false when the frame there is short, empty or fails its CRC.
func recordAt(raw []byte, off int) ([]byte, bool) {
	if len(raw)-off < recordHeaderSize {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(raw[off:])
	if n == 0 || uint64(n) > uint64(len(raw)-off-recordHeaderSize) {
		return nil, false
	}
	body := raw[off+recordHeaderSize : off+recordHeaderSize+int(n)]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(raw[off+4:]) {
		return nil, false
	}
	return body, true
}

// scanRecords hands the body of every whole record after the header to
// fn, in order, and returns the offset where the whole records end. A
// damaged record with a whole record anywhere after it is corruption.
func scanRecords(raw []byte, fn func(body []byte) error) (int, error) {
	off := logHeaderSize
	for n := 1; off < len(raw); n++ {
		body, ok := recordAt(raw, off)
		if !ok {
			for q := off + 1; q+recordHeaderSize < len(raw); q++ {
				if _, whole := recordAt(raw, q); whole {
					return off, fmt.Errorf("record %d at offset %d is damaged and a whole record follows at %d: %w",
						n, off, q, sderr.ErrCorrupt)
				}
			}
			return off, nil // torn tail: a crash mid-append
		}
		if err := fn(body); err != nil {
			return off, err
		}
		off += recordHeaderSize + len(body)
	}
	return off, nil
}

// LegacyLine converts one line of a JSON-lines journal into the body of
// the equivalent record, appended to b. A line with no counterpart
// returns b unchanged.
type LegacyLine func(b, line []byte) ([]byte, error)

// Log is an open record log. Write is safe for concurrent use; records
// land in the order their Write calls take the log's lock.
type Log struct {
	mu   sync.Mutex
	f    *os.File
	head []byte // the file header, until the first Write puts it on disk
}

// OpenLog opens the record log of the given kind at path for appending,
// creating it if absent, after handing the body of every whole record, in
// order, to replay (which may retain it: nothing reuses the buffer). A
// torn tail is truncated away first. A file without LogMagic is a legacy
// JSON-lines journal: each line is converted by legacy (an unterminated
// final line that fails to convert is a torn tail and dropped) and the
// file is rewritten once as a record log — temp file, fsync, rename,
// directory fsync — before anything is replayed or appended.
func OpenLog(path string, kind byte, legacy LegacyLine, replay func(body []byte) error) (*Log, error) {
	raw, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("read %s: %w", filepath.Base(path), err)
	}
	head := logHeader(kind)
	if n := min(len(raw), len(LogMagic)); !bytes.Equal(raw[:n], head[:n]) {
		if raw, err = convertLegacy(path, raw, head, legacy); err != nil {
			return nil, err
		}
	}
	whole := 0
	switch {
	case len(raw) >= logHeaderSize:
		if !bytes.Equal(raw[:logHeaderSize], head) {
			return nil, fmt.Errorf("%s: header %x, want %x (another journal kind or format version): %w",
				filepath.Base(path), raw[:logHeaderSize], head, sderr.ErrCorrupt)
		}
		if whole, err = scanRecords(raw, replay); err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
		}
	case !bytes.HasPrefix(head, raw):
		return nil, fmt.Errorf("%s: %d-byte file with header %x: %w", filepath.Base(path), len(raw), raw, sderr.ErrCorrupt)
	}
	// whole == 0 here means a torn header: the first append never landed.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", filepath.Base(path), err)
	}
	if whole < len(raw) {
		if err := f.Truncate(int64(whole)); err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("%s: drop torn tail: %w", filepath.Base(path), err)
		}
	}
	l := &Log{f: f}
	if whole == 0 {
		l.head = head
	}
	return l, nil
}

// convertLegacy rewrites a JSON-lines journal as a record log and returns
// the new file's bytes.
func convertLegacy(path string, raw, head []byte, legacy LegacyLine) ([]byte, error) {
	out := append([]byte(nil), head...)
	lines := bytes.Split(raw, []byte{'\n'})
	for i, ln := range lines {
		ln = bytes.TrimSpace(ln)
		if len(ln) == 0 {
			continue
		}
		start := len(out)
		rec, err := legacy(BeginRecord(out), ln)
		if err != nil {
			if i == len(lines)-1 {
				break // torn tail write from a crash mid-append
			}
			return nil, fmt.Errorf("%s: line %d: %w", filepath.Base(path), i+1, err)
		}
		if len(rec) > start+recordHeaderSize {
			out = rec
			EndRecord(out, start)
		}
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("convert %s: %w", filepath.Base(path), err)
	}
	_, err = f.Write(out)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err == nil {
		err = syncDir(filepath.Dir(path))
	}
	if err != nil {
		os.Remove(tmp)
		return nil, fmt.Errorf("convert %s: %w", filepath.Base(path), err)
	}
	return out, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

var errLogClosed = errors.New("wire: record log closed")

// Write appends frames — whole records built with BeginRecord/EndRecord —
// in one write, and fsyncs when sync is set (no frames: a bare fsync).
func (l *Log) Write(frames []byte, sync bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errLogClosed
	}
	if len(frames) > 0 {
		if l.head != nil {
			frames = append(l.head[:len(l.head):len(l.head)], frames...)
		}
		if _, err := l.f.Write(frames); err != nil {
			return fmt.Errorf("append %s: %w", filepath.Base(l.f.Name()), err)
		}
		l.head = nil
	}
	if sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("sync %s: %w", filepath.Base(l.f.Name()), err)
		}
	}
	return nil
}

// Close closes the file (without an fsync of its own). Safe to repeat.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
