//go:build mrpcdebug

package core

import (
	"testing"

	"mrpc/internal/msg"
	"mrpc/internal/pool"
)

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic (%s), got none", want)
		}
	}()
	f()
}

func TestPoolDebugDirtyGet(t *testing.T) {
	p := pool.New(func() any { return new(NetEvent) })
	ev := p.Get().(*NetEvent)
	p.Put(ev)
	ev.Msg = new(msg.NetMsg) // use-after-Put scribbles over the sentinel
	mustPanic(t, "dirty Get", func() { pool.Check(ev) })
}

func TestPoolDebugCleanCycle(t *testing.T) {
	p := pool.New(func() any { return new(ClientRecord) })
	rec := p.Get().(*ClientRecord)
	if rec.NRes != 0 {
		t.Fatalf("fresh record not zeroed: NRes=%d", rec.NRes)
	}
	rec.NRes = 3
	*rec = ClientRecord{}
	p.Put(rec)
	if rec.NRes != poisonInt {
		t.Fatalf("Put did not poison: NRes=%d", rec.NRes)
	}
	got := p.Get().(*ClientRecord)
	if got == rec && got.NRes != 0 {
		t.Fatalf("Get did not restore the sentinel field: NRes=%d", got.NRes)
	}
}

func TestPoolDebugPoisonAllShapes(t *testing.T) {
	// Every pooled type round-trips poison -> check cleanly.
	for _, x := range []any{
		new(ClientRecord), new(ServerRecord), new(NetEvent),
		new(msg.UserMsg), new(msg.CallKey), new(msg.CallID), new(relEntry),
	} {
		poison(x)
		if !checkPoison(x) {
			t.Fatalf("%T: poisoned object reported dirty", x)
		}
	}
}
