// Package fixture is a tree with one violation per arch_test.go rule.
package fixture

import "fixture/internal/a"

// Run is the root's one use of package a.
func Run() { a.Run() }
