//go:build !race

package ingest_test

const raceEnabled = false
