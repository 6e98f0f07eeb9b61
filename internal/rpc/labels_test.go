package rpc

import (
	"bytes"
	"context"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/store"
)

// TestHandlersRunUnderVerbLabels: a handler worker runs under its verb's
// runtime/pprof labels — the op, and the phase and stage of the verbs the
// ingest and restore paths call — so a profile of a server splits the
// way the client's stages do. The handler delay holds the two calls in
// their handlers while the goroutine profile is read.
func TestHandlersRunUnderVerbLabels(t *testing.T) {
	nd, err := store.New(store.Config{KeepPayloads: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nd.Close() })
	srv, err := NewServer(nd, "127.0.0.1:0", WithHandlerDelay(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go c.Dedup(ctx, "labels", makeSC(1, 4), nil, true)
	go c.ReadBatch(ctx, []fingerprint.Fingerprint{{1}})

	want := []string{
		`# labels: {"op":"16", "phase":"ingest", "stage":"dedup"}`,
		`# labels: {"op":"15", "phase":"restore", "stage":"read"}`,
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			t.Fatal(err)
		}
		missing := 0
		for _, w := range want {
			if !strings.Contains(buf.String(), w) {
				missing++
			}
		}
		if missing == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("handler labels %q not in the goroutine profile:\n%s", want, buf.String())
		}
	}
}
