package sigmadedupe

import "sigmadedupe/internal/sderr"

// The public error taxonomy. Every layer of the system wraps these
// sentinels, and the RPC protocols carry them across the wire, so
// errors.Is/As hold end to end: a restore of an unknown backup against a
// remote TCP cluster satisfies errors.Is(err, ErrNotFound) exactly like
// one against the in-process simulator.
var (
	// ErrNotFound reports a missing object: an unknown backup name, an
	// absent recipe, a chunk or container a node does not hold.
	ErrNotFound = sderr.ErrNotFound
	// ErrUnavailable reports a node or director that cannot be reached
	// over the wire: down, restarting, or its connection broke mid-call.
	// Transient — the next call redials — and a call it failed is never
	// retried for you (a backup may have been partly stored).
	ErrUnavailable = sderr.ErrUnavailable
	// ErrCorrupt reports data that failed an integrity check (container
	// CRC mismatch, truncated file, bad journal record).
	ErrCorrupt = sderr.ErrCorrupt
	// ErrChunkVanished reports the query/store race losing its chunk: a
	// chunk reported duplicate was deleted before the store landed. A
	// backup cannot meet it — a node takes a chunk's reference with its
	// duplicate verdict — only callers of the node's separate query and
	// store can.
	ErrChunkVanished = sderr.ErrChunkVanished
	// ErrConflict reports an optimistic update losing its race — e.g. a
	// super-chunk migration finding its backup superseded by a newer
	// generation mid-move. The loser gives way; nothing is corrupted.
	ErrConflict = sderr.ErrConflict
	// ErrQuotaExceeded reports a tenant over its configured byte quota:
	// session admission refused, or a backup stream cut off once its
	// bytes would push the tenant past the limit. Typed across both wire
	// protocols: errors.Is holds against a remote TCP cluster exactly
	// like in process.
	ErrQuotaExceeded = sderr.ErrQuotaExceeded
)

// BackupError is a failed backup operation, carrying the backup name and
// the pipeline stage that failed ("chunk", "quota", "route", "store",
// "finalize"). Recover it with errors.As; it unwraps to the underlying
// cause (taxonomy sentinels, context.Canceled, transport errors).
type BackupError = sderr.BackupError
