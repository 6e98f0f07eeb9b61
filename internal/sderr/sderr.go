// Package sderr is the shared error taxonomy of the Σ-Dedupe system:
// the sentinel errors every layer dispatches on, the structured
// BackupError carrying backup provenance, and the wire codec that lets
// typed errors survive the string-only error field of the binary RPC
// protocol (node and director verbs alike).
//
// Internal packages wrap these sentinels (container.ErrNotFound wraps
// ErrNotFound, store's errChunkVanished wraps ErrChunkVanished, ...), the
// public sigmadedupe package re-exports them, and the RPC layers encode
// with Encode and rehydrate with Decode, so errors.Is/As hold across
// process boundaries: a restore of a missing chunk on a remote node
// satisfies errors.Is(err, ErrNotFound) at the client just as an
// in-process lookup would.
package sderr

import (
	"context"
	"errors"
	"fmt"
	"strings"
)

// Sentinel errors of the public taxonomy. Layer-specific sentinels wrap
// these, so errors.Is against a taxonomy sentinel matches regardless of
// which layer produced the failure.
var (
	// ErrNotFound reports a missing object: an unknown backup name, an
	// absent recipe, a chunk or container the store does not hold.
	ErrNotFound = errors.New("not found")
	// ErrCorrupt reports data that failed an integrity check (container
	// CRC mismatch, truncated file, bad journal record).
	ErrCorrupt = errors.New("corrupt data")
	// ErrChunkVanished reports the query/store race losing its chunk: a
	// chunk reported duplicate was deleted before the store landed. Only a
	// separate query followed by a store can meet it; ingest's store takes
	// the reference with the verdict.
	ErrChunkVanished = errors.New("chunk vanished between query and store")
	// ErrNoSession reports an operation against an unknown backup session.
	ErrNoSession = errors.New("unknown session")
	// ErrConflict reports an optimistic update losing its race: the
	// object changed (or disappeared) between read and write — e.g. a
	// migration's conditional recipe rewrite finding the backup
	// superseded by a newer generation. The loser gives way; nothing is
	// corrupted.
	ErrConflict = errors.New("concurrent modification conflict")
	// ErrQuotaExceeded reports a tenant over its configured byte quota:
	// session admission refused, or a stream cut off mid-backup once its
	// logical bytes would push the tenant past the limit.
	ErrQuotaExceeded = errors.New("tenant quota exceeded")
	// ErrMalformed reports a request a node refuses on its content, not
	// its encoding: a handprint longer than the node's bound or not in
	// strictly ascending order.
	ErrMalformed = errors.New("malformed request")
	// ErrUnavailable reports a peer that cannot be reached: its dial or
	// handshake failed, a redial is backing off, or the connection broke
	// with the call in flight (which may or may not have run; it is never
	// retried). Transient: a later call redials.
	ErrUnavailable = errors.New("peer unavailable")
)

// BackupError is a failure of one backup operation, carrying the backup
// name (the file path or stream name the failure is attributed to) and
// the pipeline stage that failed ("chunk", "quota", "route", "store",
// "finalize", ...). It wraps the underlying cause, so errors.Is/As see
// through it to the taxonomy sentinels and to context.Canceled.
type BackupError struct {
	// Name is the backup item or stream the failure belongs to.
	Name string
	// Stage is the pipeline stage that failed.
	Stage string
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *BackupError) Error() string {
	return fmt.Sprintf("backup %s: %s stage: %v", e.Name, e.Stage, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *BackupError) Unwrap() error { return e.Err }

// Wire codec.
//
// The RPC protocols carry errors as strings. Encode prefixes the message
// with a code naming the outermost matching sentinel; Decode strips the
// code and re-wraps the remote message in that sentinel, so errors.Is
// holds across the wire. Unknown codes and uncoded messages decode to
// plain opaque errors — the codec never invents types.

const wireSep = "\x1f" // unit separator: never appears in error prose

// wireCodes maps sentinel → wire code. Context errors are included so a
// server-side deadline or a canceled peer decodes back to the canonical
// context errors client code already dispatches on.
var wireCodes = []struct {
	code string
	err  error
}{
	{"notfound", ErrNotFound},
	{"corrupt", ErrCorrupt},
	{"vanished", ErrChunkVanished},
	{"nosession", ErrNoSession},
	{"conflict", ErrConflict},
	{"quota", ErrQuotaExceeded},
	{"malformed", ErrMalformed},
	{"unavailable", ErrUnavailable},
	{"canceled", context.Canceled},
	{"deadline", context.DeadlineExceeded},
}

// Encode renders err for the wire: "code\x1fmessage" when err matches a
// taxonomy sentinel, the bare message otherwise, "" for nil.
func Encode(err error) string {
	if err == nil {
		return ""
	}
	for _, wc := range wireCodes {
		if errors.Is(err, wc.err) {
			return wc.code + wireSep + err.Error()
		}
	}
	return err.Error()
}

// Decode rehydrates a wire error string: a coded message comes back
// wrapping its sentinel (errors.Is holds), anything else as an opaque
// error. Returns nil for the empty string.
func Decode(msg string) error {
	if msg == "" {
		return nil
	}
	code, rest, ok := strings.Cut(msg, wireSep)
	if !ok {
		return errors.New(msg)
	}
	for _, wc := range wireCodes {
		if wc.code == code {
			return fmt.Errorf("%w (remote: %s)", wc.err, rest)
		}
	}
	return errors.New(rest)
}
