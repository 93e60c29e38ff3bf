//go:build mrpcdebug

package pool

import "testing"

// obj is a pooled type whose n field the release path scrubs to zero.
type obj struct{ n int }

const sentinel = -0x6b6b6b6b

func init() {
	Register(func(x any) {
		if o, ok := x.(*obj); ok {
			o.n = sentinel
		}
	}, func(x any) bool {
		if o, ok := x.(*obj); ok {
			return Restore(&o.n, sentinel)
		}
		return true
	})
}

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic (%s), got none", want)
		}
	}()
	f()
}

func TestDoublePut(t *testing.T) {
	p := New(func() any { return new(obj) })
	o := p.Get().(*obj)
	p.Put(o)
	mustPanic(t, "double-Put", func() { p.Put(o) })
}

func TestDirtyGet(t *testing.T) {
	p := New(func() any { return new(obj) })
	o := p.Get().(*obj)
	p.Put(o)
	o.n = 3 // use-after-Put scribbles over the sentinel
	mustPanic(t, "dirty Get", func() { Check(o) })
}

func TestCleanCycle(t *testing.T) {
	p := New(func() any { return new(obj) })
	o := p.Get().(*obj)
	p.Put(o)
	if o.n != sentinel {
		t.Fatalf("Put did not poison: n=%d", o.n)
	}
	if got := p.Get().(*obj); got.n != 0 {
		t.Fatalf("Get returned a poisoned object: n=%d", got.n)
	}
}
