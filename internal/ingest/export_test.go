package ingest

// HashBatchBytes lets the tests place item sizes and memory bounds
// against the hand-off unit.
const HashBatchBytes = hashBatchBytes
