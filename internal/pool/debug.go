//go:build mrpcdebug

package pool

// Debug builds replace the raw sync.Pool with a checking wrapper: Put
// scribbles a sentinel into a field the release path has scrubbed and
// records the object as pooled; Get panics when the sentinel was disturbed
// (a use-after-Put wrote to the object while it sat in the pool) or when
// the pool hands an object out twice without an intervening Put (a
// double-Put gave two goroutines the same object). Objects born fresh from
// New carry the zero value and pass unexamined.

import (
	"fmt"
	"sync"
)

// Pool is a checking wrapper around sync.Pool in mrpcdebug builds.
type Pool struct {
	p      sync.Pool
	mu     sync.Mutex
	pooled map[any]bool // true = currently in the pool
}

// New returns a pool whose Get falls back to f.
func New(f func() any) *Pool {
	return &Pool{p: sync.Pool{New: f}, pooled: make(map[any]bool)}
}

// hooks are the registered poison/check pairs. They are appended only from
// package init functions, which complete before any pool is used.
var hooks []hook

type hook struct {
	poison func(any)
	check  func(any) bool
}

// Register adds one package's hooks. poison scribbles a sentinel into a
// field its release path scrubs to zero — never one it deliberately
// retains. check reports whether the object is clean (sentinel intact, or
// zero because it is fresh from New) and restores the zero value. Both
// ignore types they do not own.
func Register(poison func(any), check func(any) bool) {
	hooks = append(hooks, hook{poison, check})
}

// Restore is the usual check for one sentinel field: it reports whether *f
// holds the sentinel or the zero value, resetting it to zero.
func Restore[T comparable](f *T, sentinel T) bool {
	var zero T
	switch *f {
	case sentinel:
		*f = zero
		return true
	case zero:
		return true
	}
	return false
}

// Check verifies that x was not written while pooled and restores its
// sentinel fields; it panics on a dirty object. Get calls it.
func Check(x any) {
	for _, h := range hooks {
		if !h.check(x) {
			panic(fmt.Sprintf("mrpcdebug: dirty Get of %T: object was written while pooled (use-after-Put)", x))
		}
	}
}

// Get returns a checked object: never one already checked out, never one
// written to while pooled.
func (d *Pool) Get() any {
	x := d.p.Get()
	d.mu.Lock()
	if in, seen := d.pooled[x]; seen && !in {
		d.mu.Unlock()
		panic(fmt.Sprintf("mrpcdebug: pool handed out a checked-out %T (double-Put upstream)", x))
	}
	d.pooled[x] = false
	d.mu.Unlock()
	Check(x)
	return x
}

// Put poisons x and returns it to the pool; a second Put of x panics.
func (d *Pool) Put(x any) {
	d.mu.Lock()
	if d.pooled[x] {
		d.mu.Unlock()
		panic(fmt.Sprintf("mrpcdebug: double-Put of %T", x))
	}
	d.pooled[x] = true
	d.mu.Unlock()
	for _, h := range hooks {
		h.poison(x)
	}
	d.p.Put(x)
}
