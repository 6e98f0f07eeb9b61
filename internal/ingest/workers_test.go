package ingest_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"sigmadedupe/internal/ingest"
)

// awaitGoroutines waits, polling until a deadline, for the process's
// goroutine count to fall back to baseline.
func awaitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestSessionLeavesNoGoroutines: a session's reader, hash and route
// workers live only while it has work. After Flush, after Close without
// Flush, after a canceled Backup, and after the session is dropped
// without Close once its window has drained, the goroutine count returns
// to what it was before the session's first call.
func TestSessionLeavesNoGoroutines(t *testing.T) {
	for _, end := range []string{"flush", "close", "canceled", "dropped"} {
		t.Run(end, func(t *testing.T) {
			r := newRig(t, "local", 2, rigOpt{})
			s := r.session(t, ingest.Config{SuperChunkSize: 64 << 10, Workers: 2})
			baseline := runtime.NumGoroutine()
			for i := 0; i < 10; i++ { // small items sharing batches, then a large one
				mustBackup(t, s, fmt.Sprintf("/small%d", i), randBytes(int64(300+i), 3*4096))
			}
			mustBackup(t, s, "/large", randBytes(310, 2<<20))
			switch end {
			case "flush":
				mustFlush(t, s)
			case "close":
				s.Close()
			case "canceled":
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				big := &cancelAfter{r: bytes.NewReader(randBytes(311, 2<<20)), n: 512 << 10, cancel: cancel}
				if err := s.Backup(ctx, "/canceled", big); !errors.Is(err, context.Canceled) {
					t.Fatalf("backup canceled mid-stream = %v, want context.Canceled", err)
				}
			}
			awaitGoroutines(t, baseline)
		})
	}
}
