package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sigmadedupe/internal/sderr"
)

// frames builds the framed records of bodies.
func frames(bodies ...[]byte) []byte {
	var b []byte
	for _, body := range bodies {
		start := len(b)
		b = append(BeginRecord(b), body...)
		EndRecord(b, start)
	}
	return b
}

// openBodies opens the log at path and returns copies of its bodies.
func openBodies(t *testing.T, path string, kind byte) (*Log, [][]byte, error) {
	t.Helper()
	var got [][]byte
	l, err := OpenLog(path, kind, nil, func(body []byte) error {
		got = append(got, append([]byte(nil), body...))
		return nil
	})
	return l, got, err
}

func testBodies() [][]byte {
	return [][]byte{[]byte("alpha"), {0}, bytes.Repeat([]byte{7}, 300), []byte("omega")}
}

func equalBodies(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestRecordLogGolden pins the framing: header, length, CRC-32C, body.
func TestRecordLogGolden(t *testing.T) {
	if got, want := hex.EncodeToString(logHeader(LogRecipes)), "5344524c01020000"; got != want {
		t.Errorf("header encoding %s, want %s", got, want)
	}
	if got, want := hex.EncodeToString(frames([]byte("abc"))), "03000000b73f4b36616263"; got != want {
		t.Errorf("record encoding %s, want %s", got, want)
	}
}

// TestRecordLogRoundTrip: a fresh log stays an empty file until its first
// record; records reopen in order; appends after a reopen follow them; a
// log opened as another journal kind fails.
func TestRecordLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "LOG")
	l, got, err := openBodies(t, path, LogManifest)
	if err != nil || len(got) != 0 {
		t.Fatalf("fresh open: %d records, %v", len(got), err)
	}
	if err := l.Write(nil, true); err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(path); fi.Size() != 0 {
		t.Fatalf("log without records is %d bytes, want 0", fi.Size())
	}
	want := testBodies()
	if err := l.Write(frames(want[:2]...), false); err != nil {
		t.Fatal(err)
	}
	if err := l.Write(frames(want[2]), true); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := l.Write(frames(want[3]), true); err == nil {
		t.Fatal("Write after Close must fail")
	}
	l, got, err = openBodies(t, path, LogManifest)
	if err != nil || !equalBodies(got, want[:3]) {
		t.Fatalf("reopen: %q, %v", got, err)
	}
	if err := l.Write(frames(want[3]), true); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, got, err = openBodies(t, path, LogManifest); err != nil || !equalBodies(got, want) {
		t.Fatalf("second reopen: %q, %v", got, err)
	}
	if _, _, err := openBodies(t, path, LogMembers); !errors.Is(err, sderr.ErrCorrupt) {
		t.Fatalf("open as another journal kind: err = %v, want ErrCorrupt", err)
	}
}

// TestRecordLogTornTail: whatever a crash leaves after the last whole
// record is cut off on open — the file is truncated to the whole records,
// and a record appended afterwards reopens behind them.
func TestRecordLogTornTail(t *testing.T) {
	body := testBodies()
	whole := append(logHeader(LogTenants), frames(body[:3]...)...)
	last := frames(body[3])
	crcFlip := append([]byte(nil), last...)
	crcFlip[len(crcFlip)-1] ^= 1
	for name, tail := range map[string][]byte{
		"partial header":       last[:5],
		"partial body":         last[:len(last)-2],
		"zero-filled tail":     make([]byte, 64),
		"CRC-failing last one": crcFlip,
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "LOG")
			if err := os.WriteFile(path, append(append([]byte(nil), whole...), tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			l, got, err := openBodies(t, path, LogTenants)
			if err != nil || !equalBodies(got, body[:3]) {
				t.Fatalf("open: %q, %v", got, err)
			}
			if fi, _ := os.Stat(path); fi.Size() != int64(len(whole)) {
				t.Fatalf("torn tail left: %d bytes, want %d", fi.Size(), len(whole))
			}
			if err := l.Write(frames([]byte("next")), true); err != nil {
				t.Fatal(err)
			}
			l.Close()
			if _, got, err = openBodies(t, path, LogTenants); err != nil || !equalBodies(got, append(body[:3:3], []byte("next"))) {
				t.Fatalf("reopen after append: %q, %v", got, err)
			}
		})
	}
	t.Run("torn header", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "LOG")
		if err := os.WriteFile(path, logHeader(LogTenants)[:3], 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, err := openBodies(t, path, LogTenants)
		if err != nil || len(got) != 0 {
			t.Fatalf("open: %q, %v", got, err)
		}
		if err := l.Write(frames([]byte("first")), true); err != nil {
			t.Fatal(err)
		}
		l.Close()
		if _, got, err = openBodies(t, path, LogTenants); err != nil || len(got) != 1 {
			t.Fatalf("reopen: %q, %v", got, err)
		}
	})
}

// TestRecordLogCorruptionIsNotATornTail: a damaged record that a whole
// record follows — a length, CRC or body byte changed — fails the open
// with ErrCorrupt, and the file is left as it was.
func TestRecordLogCorruptionIsNotATornTail(t *testing.T) {
	raw := append(logHeader(LogRecipes), frames(testBodies()...)...)
	for _, off := range []int{logHeaderSize, logHeaderSize + 3, logHeaderSize + 5, logHeaderSize + 9, len(raw) - 320} {
		t.Run(fmt.Sprint("byte ", off), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "LOG")
			bad := append([]byte(nil), raw...)
			bad[off] ^= 0x80
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := openBodies(t, path, LogRecipes); !errors.Is(err, sderr.ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, bad) {
				t.Fatal("a failed open modified the log")
			}
		})
	}
}

// TestRecordLogConvertsLegacyOnce: a JSON-lines journal is converted line
// by line, its torn (unterminated, unconvertible) final line dropped, and
// rewritten as a record log; a complete line that fails to convert fails
// the open and leaves the file alone.
func TestRecordLogConvertsLegacyOnce(t *testing.T) {
	conv := func(b, line []byte) ([]byte, error) {
		if !bytes.HasPrefix(line, []byte("{")) || !bytes.HasSuffix(line, []byte("}")) {
			return b, errors.New("not an object")
		}
		if string(line) == "{skip}" {
			return b, nil
		}
		return append(b, line[1:len(line)-1]...), nil
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "LOG")
	if err := os.WriteFile(path, []byte("{a}\n\n{skip}\n  {bc}\n{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	var got []string
	replay := func(body []byte) error { got = append(got, string(body)); return nil }
	l, err := OpenLog(path, LogMembers, conv, replay)
	if err != nil || fmt.Sprint(got) != "[a bc]" {
		t.Fatalf("legacy open: %q, %v", got, err)
	}
	l.Close()
	raw, _ := os.ReadFile(path)
	if want := append(logHeader(LogMembers), frames([]byte("a"), []byte("bc"))...); !bytes.Equal(raw, want) {
		t.Fatalf("converted file %x, want %x", raw, want)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("conversion left %d files behind", len(entries))
	}

	bad := []byte("{a}\nnope\n{b}\n")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(path, LogMembers, conv, replay); err == nil {
		t.Fatal("a complete line that fails to convert must fail the open")
	}
	if raw, _ := os.ReadFile(path); !bytes.Equal(raw, bad) {
		t.Fatal("a failed conversion modified the journal")
	}
}

// FuzzRecordLog fuzzes the open-time scan. Arbitrary bytes never panic;
// records built from the input, followed by garbage in which no whole
// record begins, scan to exactly those records; one byte changed in any
// record but the last is ErrCorrupt.
func FuzzRecordLog(f *testing.F) {
	f.Add([]byte("seed records"), []byte{}, uint16(0), byte(1))
	f.Add([]byte{3, 1, 2, 3, 0, 9}, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0}, uint16(7), byte(0x80))
	f.Add([]byte{200, 5}, frames([]byte("x"))[:6], uint16(40), byte(0xff))
	f.Fuzz(func(t *testing.T, data, garbage []byte, at uint16, flip byte) {
		scanRecords(append(logHeader(LogManifest), data...), func([]byte) error { return nil })

		// Split data into bodies of 1-32 bytes, the first byte of each
		// choosing its length.
		var bodies [][]byte
		for rest := data; len(rest) > 0; {
			n := min(1+int(rest[0])%32, len(rest))
			bodies, rest = append(bodies, rest[:n]), rest[n:]
		}
		prefix := append(logHeader(LogManifest), frames(bodies...)...)
		scan := func(raw []byte) ([][]byte, int, error) {
			var got [][]byte
			end, err := scanRecords(raw, func(b []byte) error { got = append(got, b); return nil })
			return got, end, err
		}

		raw := append(append([]byte(nil), prefix...), garbage...)
		clean := true
		for q := len(prefix); q < len(raw) && clean; q++ {
			_, whole := recordAt(raw, q)
			clean = !whole
		}
		if clean {
			got, end, err := scan(raw)
			if err != nil || end != len(prefix) || !equalBodies(got, bodies) {
				t.Fatalf("prefix + garbage: %d records ending at %d, %v; want %d ending at %d",
					len(got), end, err, len(bodies), len(prefix))
			}
		}

		if len(bodies) < 2 || flip == 0 {
			return
		}
		lastStart := len(prefix) - recordHeaderSize - len(bodies[len(bodies)-1])
		pos := logHeaderSize + int(at)%(lastStart-logHeaderSize)
		bad := append([]byte(nil), prefix...)
		bad[pos] ^= flip
		if _, _, err := scan(bad); !errors.Is(err, sderr.ErrCorrupt) {
			t.Fatalf("byte %d of %d changed (a non-final record): err = %v, want ErrCorrupt", pos, len(bad), err)
		}
	})
}
