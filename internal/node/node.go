// Package node names the storage engine by its old node API. bench/
// compiles against it; ROADMAP 17(b) deletes it. Product code uses
// package store.
package node

import "sigmadedupe/internal/store"

// Node is one deduplication server.
type Node = store.Engine

// Config parameterizes a deduplication node.
type Config = store.Config

// New creates a node from cfg.
func New(cfg Config) (*Node, error) { return store.New(cfg) }
