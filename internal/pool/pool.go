//go:build !mrpcdebug

// Package pool is the object pool behind the zero-allocation call path
// (DESIGN.md D16). In release builds Pool is sync.Pool itself, so the pool
// costs nothing and mrpclint's pool-safety rule sees plain sync.Pool
// Get/Put calls. The mrpcdebug build tag swaps in a checking wrapper
// (debug.go) that poisons objects on Put and panics on a dirty Get or a
// double-Put; each pooling package registers the poison and check
// functions for its own types from a mrpcdebug-only file. Enable with:
//
//	go test -tags mrpcdebug ./internal/pool ./internal/core ./internal/event
package pool

import "sync"

// Pool is a sync.Pool in release builds.
type Pool = sync.Pool

// New returns a pool whose Get falls back to f.
func New(f func() any) *Pool { return &Pool{New: f} }
