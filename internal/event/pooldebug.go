//go:build mrpcdebug

package event

// Debug-build poison and check functions for dispatch's occurrence pool;
// the checking pool itself is internal/pool's. Put poisons the Arg field
// putOcc has scrubbed, and Get verifies the sentinel survived.

import "mrpc/internal/pool"

// poisonedArg is the sentinel a pooled Occurrence's Arg field holds.
var poisonedArg any = new(struct{ _ [1]byte })

func init() { pool.Register(poison, checkPoison) }

func poison(x any) {
	if o, ok := x.(*Occurrence); ok {
		o.Arg = poisonedArg
	}
}

func checkPoison(x any) bool {
	if o, ok := x.(*Occurrence); ok {
		return pool.Restore(&o.Arg, poisonedArg)
	}
	return true
}
