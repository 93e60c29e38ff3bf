package proc

import (
	"testing"
	"time"
)

func TestThreadKill(t *testing.T) {
	r := NewThreads()
	th := r.Spawn(7)
	if th.IsKilled() {
		t.Fatal("fresh thread reports killed")
	}
	if th.Client() != 7 {
		t.Fatalf("client = %d", th.Client())
	}
	th.Kill()
	th.Kill() // idempotent
	if !th.IsKilled() {
		t.Fatal("killed thread reports alive")
	}
	select {
	case <-th.Killed():
	case <-time.After(time.Second):
		t.Fatal("Killed channel not closed")
	}
}

func TestThreadsRegistry(t *testing.T) {
	r := NewThreads()
	t1 := r.Spawn(1)
	t2 := r.Spawn(2)
	if t1.ID() == t2.ID() {
		t.Fatal("thread ids collide")
	}
	if r.Live() != 2 {
		t.Fatalf("live = %d, want 2", r.Live())
	}
	r.Finish(t1)
	r.Finish(t1) // idempotent
	if r.Live() != 1 {
		t.Fatalf("live = %d, want 1", r.Live())
	}
}

func TestKillAll(t *testing.T) {
	r := NewThreads()
	ths := []*Thread{r.Spawn(1), r.Spawn(2), r.Spawn(3)}
	if n := r.KillAll(); n != 3 {
		t.Fatalf("KillAll = %d, want 3", n)
	}
	for i, th := range ths {
		if !th.IsKilled() {
			t.Fatalf("thread %d not killed", i)
		}
	}
	if r.Live() != 0 {
		t.Fatalf("live = %d after KillAll", r.Live())
	}
	if n := r.KillAll(); n != 0 {
		t.Fatalf("second KillAll = %d, want 0", n)
	}
}

func TestSiteLifecycle(t *testing.T) {
	s := NewSite(9)
	if s.ID() != 9 || !s.Up() || s.Inc() != 1 {
		t.Fatalf("fresh site: id=%d up=%t inc=%d", s.ID(), s.Up(), s.Inc())
	}
	if !s.Crash() {
		t.Fatal("Crash on up site returned false")
	}
	if s.Crash() {
		t.Fatal("Crash on down site returned true")
	}
	if s.Up() {
		t.Fatal("site up after crash")
	}
	if inc := s.Recover(); inc != 2 {
		t.Fatalf("recover inc = %d, want 2", inc)
	}
	if !s.Up() || s.Inc() != 2 {
		t.Fatal("site state wrong after recovery")
	}
	s.Crash()
	if inc := s.Recover(); inc != 3 {
		t.Fatalf("second recovery inc = %d, want 3 (strictly increasing)", inc)
	}
}

// TestPoolClaimAndClose: a run blocked in the pool never delays the next
// value, parked workers are reused, and a closed pool runs nothing.
func TestPoolClaimAndClose(t *testing.T) {
	release := make(chan struct{})
	ran := make(chan int, 8)
	var p Pool[int]
	p.Init(func(v int) {
		if v == 0 {
			<-release
		}
		ran <- v
	})
	p.Dispatch(0) // blocks its worker
	for v := 1; v <= 3; v++ {
		if !p.Dispatch(v) {
			t.Fatal("open pool refused a value")
		}
		select {
		case got := <-ran:
			if got != v {
				t.Fatalf("ran %d, want %d", got, v)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("value %d waited behind a blocked run", v)
		}
	}
	close(release)
	if got := <-ran; got != 0 {
		t.Fatalf("ran %d, want the released 0", got)
	}
	p.Close()
	p.Close() // idempotent
	if p.Dispatch(4) {
		t.Fatal("closed pool accepted a value")
	}
}
