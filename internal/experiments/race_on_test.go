//go:build race

package experiments

// raceEnabled reports whether the race detector instruments this build:
// the full-scale scale-out gate skips under it.
const raceEnabled = true
