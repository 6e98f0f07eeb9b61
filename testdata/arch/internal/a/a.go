// Package a imports b, which its table entry does not allow, exports a
// helper only it calls, and keeps a function nothing calls.
package a

import "fixture/internal/b"

// Run is named by the root package.
func Run() {
	b.Serve()
	Helper(0)
}

// Helper is exported, but no other package names it. Its parameter
// shares the dead function's name and is not a use of it.
func Helper(dead int) int { return dead }

func dead() {}
