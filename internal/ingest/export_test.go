package ingest

// HashBatchBytes and HashBatchChunks let the tests place item sizes and
// memory bounds against the hand-off unit.
const (
	HashBatchBytes  = hashBatchBytes
	HashBatchChunks = hashBatchChunks
)
