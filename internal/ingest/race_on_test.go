//go:build race

package ingest_test

// raceEnabled reports whether the race detector instruments this build:
// the streaming memory test scales down under it (a plateau is
// size-independent) and the allocation count is skipped.
const raceEnabled = true
