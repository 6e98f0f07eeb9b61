// Package b is a request package that starts its own context.
package b

import "context"

// Serve is named by package a.
func Serve() { _ = context.Background() }
