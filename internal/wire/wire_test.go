package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// preamble builds a handshake with the given version and protocol bytes.
func preamble(version, proto byte) []byte {
	return []byte{'S', 'D', 'W', 'P', version, proto, 0, 0}
}

// TestHandshakeSkewRejectedTyped: a peer on another format version or
// dialing the other service's port is refused with ErrHandshake before
// any frame is interpreted; so is anything that is not a preamble.
func TestHandshakeSkewRejectedTyped(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHandshake(&buf, ProtoNode); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), preamble(Version, ProtoNode)) {
		t.Fatalf("preamble = %x", buf.Bytes())
	}
	if v, err := ReadHandshake(&buf, ProtoNode); err != nil || v != Version {
		t.Fatalf("matching handshake = %d, %v", v, err)
	}
	for name, in := range map[string][]byte{
		"newer version":  preamble(Version+1, ProtoNode),
		"older version":  preamble(Version-1, ProtoNode),
		"wrong protocol": preamble(Version, ProtoDirector),
		"bad magic":      append([]byte("HTTP"), Version, ProtoNode, 0, 0),
		"short preamble": preamble(Version, ProtoNode)[:5],
		"empty stream":   nil,
	} {
		if _, err := ReadHandshake(bytes.NewReader(in), ProtoNode); !errors.Is(err, ErrHandshake) {
			t.Errorf("%s: err = %v, want ErrHandshake", name, err)
		}
	}
}

// TestOversizedLengthPrefixRejectedBeforeAllocation: a length prefix
// above the frame cap fails with ErrTooLarge as soon as the header is
// read — the promised body is neither allocated nor waited for.
func TestOversizedLengthPrefixRejectedBeforeAllocation(t *testing.T) {
	for _, c := range []struct {
		name      string
		n, max    int
		wantLarge bool
	}{
		{"just over the default cap", DefaultMaxFrame + 1, 0, true},
		{"hostile 4GB prefix", 0xFFFFFFFF, 0, true},
		{"over a caller's cap", 1025, 1024, true},
		{"at a caller's cap", 1024, 1024, false},
	} {
		hdr := binary.LittleEndian.AppendUint32(nil, uint32(c.n))
		// Only the header is on the stream: a reader that believed the
		// prefix would report truncation, not size.
		r := bytes.NewReader(hdr)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadFrame(r, c.max)
		runtime.ReadMemStats(&after)
		if c.wantLarge != errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: err = %v, ErrTooLarge wanted: %v", c.name, err, c.wantLarge)
		}
		if !c.wantLarge && !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: an admissible prefix with no body = %v, want ErrTruncated", c.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; c.wantLarge && grew > 1<<20 {
			t.Errorf("%s: rejected prefix still allocated %d bytes", c.name, grew)
		}
	}
}

// TestTruncatedFrames: only a stream ending on a frame boundary is a
// clean io.EOF; a partial header or a short body is ErrTruncated.
func TestTruncatedFrames(t *testing.T) {
	var stream bytes.Buffer
	body := bytes.Repeat([]byte{0xAB}, 3000)
	if err := WriteFrame(&stream, body); err != nil {
		t.Fatal(err)
	}
	whole := stream.Bytes()

	r := bytes.NewReader(whole)
	got, err := ReadFrame(r, 0)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("round trip: %d bytes, %v", len(got), err)
	}
	PutBuf(got)
	if _, err := ReadFrame(r, 0); err != io.EOF {
		t.Fatalf("clean boundary = %v, want io.EOF verbatim", err)
	}
	for name, cut := range map[string]int{"partial header": 2, "header only": 4, "short body": len(whole) - 1} {
		if _, err := ReadFrame(bytes.NewReader(whole[:cut]), 0); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: err = %v, want ErrTruncated", name, err)
		}
	}
}

// sameArray reports whether two buffers share a backing array.
func sameArray(a, b []byte) bool { return &a[:1][0] == &b[:1][0] }

// TestReleasedBufferNeverAliasesHeldFrame: the free lists recycle a
// buffer only after its release, hand it out once per release, and never
// re-issue memory inside a frame somebody still holds.
func TestReleasedBufferNeverAliasesHeldFrame(t *testing.T) {
	frame := func(fill byte) []byte {
		var s bytes.Buffer
		if err := WriteFrame(&s, bytes.Repeat([]byte{fill}, 5000)); err != nil {
			t.Fatal(err)
		}
		b, err := ReadFrame(&s, 0)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	held := frame(1)
	released := frame(2)
	if sameArray(held, released) {
		t.Fatal("two live frames share a buffer")
	}
	PutBuf(released)

	reused := frame(3)
	if !sameArray(reused, released) {
		t.Fatal("a released buffer was not recycled for the next frame of its class")
	}
	if again := frame(4); sameArray(again, released) || sameArray(again, held) {
		t.Fatal("one release handed the same buffer out twice, or a held frame was re-issued")
	}
	if !bytes.Equal(held, bytes.Repeat([]byte{1}, 5000)) {
		t.Fatal("a held frame was overwritten by later traffic")
	}

	// A sub-slice of a live frame (what a zero-copy decoder hands out) is
	// not a whole pooled buffer: releasing it by mistake must drop it, not
	// put the middle of the held frame back in circulation.
	PutBuf(held[8:])
	if next := GetBuf(len(held)); sameArray(next, held[8:]) || sameArray(next, held) {
		t.Fatal("a sub-slice release re-issued memory inside a held frame")
	}
}

// TestVectoredWriter sends frames of more pieces than one writev takes
// (1024 iovecs) over real sockets of both kinds: each must read back as
// the concatenation of its pieces behind a correct length prefix, empty
// pieces are skipped, and the writer is reusable — after a good frame,
// after an oversized one (rejected before a byte is written) and after a
// write that failed.
func TestVectoredWriter(t *testing.T) {
	for _, network := range []string{"tcp", "unix"} {
		t.Run(network, func(t *testing.T) {
			addr := "127.0.0.1:0"
			if network == "unix" {
				dir, err := os.MkdirTemp("", "sd")
				if err != nil {
					t.Fatal(err)
				}
				defer os.RemoveAll(dir)
				addr = filepath.Join(dir, "w.sock")
			}
			ln, err := net.Listen(network, addr)
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			accepted := make(chan net.Conn, 1)
			go func() {
				c, err := ln.Accept()
				if err != nil {
					close(accepted)
					return
				}
				accepted <- c
			}()
			out, err := net.Dial(network, ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer out.Close()
			in := <-accepted
			if in == nil {
				t.Fatal("accept failed")
			}
			defer in.Close()

			var v VecWriter
			for round := 0; round < 2; round++ {
				var want []byte
				v.Add([]byte{0, 0, 0, 0, 'h', byte(round)})
				want = append(want, 'h', byte(round))
				for i := 0; i < 3000; i++ {
					p := bytes.Repeat([]byte{byte(i)}, i%7*30) // some empty
					v.Add(p)
					want = append(want, p...)
				}
				v.Add([]byte("tail"))
				want = append(want, "tail"...)
				werr := make(chan error, 1)
				go func() { werr <- v.Write(out) }()
				got, err := ReadFrame(in, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := <-werr; err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d: frame differs from the concatenated pieces", round)
				}
				PutBuf(got)

				v.Add(make([]byte, 4))
				v.Add(make([]byte, DefaultMaxFrame+1))
				if err := v.Write(out); !errors.Is(err, ErrTooLarge) {
					t.Fatalf("oversized frame: %v, want ErrTooLarge", err)
				}
			}

			out.Close()
			v.Add(make([]byte, 4))
			v.Add([]byte("lost"))
			if err := v.Write(out); err == nil {
				t.Fatal("write on a closed connection succeeded")
			}
			if len(v.back) != 0 {
				t.Fatal("a failed write left pieces queued for the next frame")
			}
		})
	}
}
