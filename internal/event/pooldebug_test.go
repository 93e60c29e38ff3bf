//go:build mrpcdebug

package event

import (
	"testing"

	"mrpc/internal/pool"
)

func TestOccPoolDebug(t *testing.T) {
	p := pool.New(func() any { return new(Occurrence) })
	o := p.Get().(*Occurrence)
	o.Arg = nil
	p.Put(o)
	if o.Arg != poisonedArg {
		t.Fatal("Put did not poison Arg")
	}
	o.Arg = "stale" // use-after-Put
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected dirty-Get panic")
			}
		}()
		pool.Check(o)
	}()
}
