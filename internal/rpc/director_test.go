package rpc

import (
	"context"
	"errors"
	"testing"

	"sigmadedupe/internal/director"
	"sigmadedupe/internal/wire"
)

// TestDirectorVerbsRoundTrip: every director verb's argument and result
// survive the wire, with every field set, and every op has its own verb.
func TestDirectorVerbsRoundTrip(t *testing.T) {
	n := 0
	for _, s := range samples {
		if s.node {
			continue
		}
		n++
		if err := s.roundTrip(); err != nil {
			t.Fatalf("op %d: %v", s.op, err)
		}
	}
	if n != 18 {
		t.Fatalf("%d director verbs have a sample, want 18", n)
	}
}

// TestDirectorDecodeTypedErrors: corrupt director messages fail with the
// wire package's sentinels, and a bit-flipped count cannot allocate.
func TestDirectorDecodeTypedErrors(t *testing.T) {
	var enc coder
	swapRecipe.args(&enc, &swapArgs{1, "/p", []director.ChunkEntry{{FP: testFP(1), Size: 1}}})
	decode := func(b []byte) error {
		_, err := swapRecipe.serve(context.Background(), director.New(), wire.NewReader(b))
		return err
	}
	if err := decode(enc.b[:len(enc.b)-2]); !errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("truncated: %v, want ErrTruncated or ErrMalformed", err)
	}
	if err := decode(append(enc.b, 1)); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("trailing byte: %v, want ErrMalformed", err)
	}
	huge := append([]byte(nil), enc.b...)
	copy(huge[8+4+2:], []byte{0xFF, 0xFF, 0xFF, 0x7F}) // the chunk count
	if err := decode(huge); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("absurd count: %v, want ErrMalformed", err)
	}
}
