package sderr

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestWireRoundTripPreservesSentinels(t *testing.T) {
	cases := []error{
		fmt.Errorf("container: %w: container 7", ErrNotFound),
		fmt.Errorf("store node 3: %w", ErrChunkVanished),
		fmt.Errorf("open: %w: CRC mismatch", ErrCorrupt),
		fmt.Errorf("%w: 42", ErrNoSession),
		fmt.Errorf("handler: %w", context.Canceled),
		fmt.Errorf("handler: %w", context.DeadlineExceeded),
		fmt.Errorf("rpc: dial n3: %w: connection refused", ErrUnavailable),
	}
	sentinels := []error{
		ErrNotFound, ErrChunkVanished, ErrCorrupt, ErrNoSession,
		context.Canceled, context.DeadlineExceeded, ErrUnavailable,
	}
	for i, err := range cases {
		got := Decode(Encode(err))
		if got == nil {
			t.Fatalf("case %d decoded to nil", i)
		}
		if !errors.Is(got, sentinels[i]) {
			t.Fatalf("case %d: decoded %v does not match sentinel %v", i, got, sentinels[i])
		}
		// The sentinel match is exclusive: no cross-talk between codes.
		for j, s := range sentinels {
			if j != i && errors.Is(got, s) {
				t.Fatalf("case %d decoded error also matches sentinel %d", i, j)
			}
		}
	}
}

func TestWireOpaqueErrors(t *testing.T) {
	if Encode(nil) != "" {
		t.Fatal("Encode(nil) must be empty")
	}
	if Decode("") != nil {
		t.Fatal("Decode of empty string must be nil")
	}
	err := Decode(Encode(errors.New("something broke")))
	if err == nil || err.Error() != "something broke" {
		t.Fatalf("opaque round trip = %v", err)
	}
	for _, s := range []error{ErrNotFound, ErrCorrupt, ErrChunkVanished, ErrNoSession} {
		if errors.Is(err, s) {
			t.Fatalf("opaque error spuriously matches %v", s)
		}
	}
}

func TestBackupErrorWrapsCause(t *testing.T) {
	cause := fmt.Errorf("rpc: remote: %w", ErrNotFound)
	be := &BackupError{Name: "/data/a", Stage: "store", Err: cause}
	if !errors.Is(be, ErrNotFound) {
		t.Fatal("BackupError must unwrap to its cause")
	}
	var got *BackupError
	if !errors.As(error(be), &got) || got.Stage != "store" || got.Name != "/data/a" {
		t.Fatalf("errors.As lost fields: %+v", got)
	}
}
