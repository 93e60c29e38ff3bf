// Package proc models processes (sites) and server threads for the
// configurable group RPC service.
//
// The paper's system model has sites that fail by crashing and later
// recover with a new incarnation number, and server threads that the
// Terminate Orphan micro-protocol can kill. Site captures the former;
// Thread the latter. Go cannot asynchronously kill a goroutine, so Thread
// kill is cooperative (deviation D5 in DESIGN.md): the handler executing a
// server procedure receives the Thread and must observe Killed().
package proc

import (
	"sync"

	"mrpc/internal/msg"
)

// Thread represents one server computation (the execution of a remote
// procedure for one call) or, when started with Go, a background goroutine
// owned by the framework. my_thread() of the pseudocode corresponds to the
// Thread value handed to the procedure; kill(thread) to the Kill method.
type Thread struct {
	id     int64
	client msg.ProcID // client whose call this thread serves
	// done is non-nil only for goroutine-backed threads (Go/Threads.Go);
	// it is closed when the thread's function returns. Set before the
	// goroutine starts and never reassigned.
	done chan struct{}

	mu     sync.Mutex
	killed bool
	// kill is created lazily by the first Killed() call: most threads run
	// to completion without anyone selecting on them, so the common case
	// allocates no channel.
	kill chan struct{}
}

// Go runs fn on its own goroutine bound to a fresh detached Thread and
// returns the Thread. The spawner owns the handle: Kill requests cooperative
// termination (fn observes it via Killed/IsKilled) and Done reports exit.
// All framework goroutines outside internal/proc are spawned through Go,
// Threads.Go or a Pool — never with a bare go statement — so every
// long-lived goroutine has a handle through which crash injection and
// shutdown paths can reap it (enforced by mrpclint's goroutine-discipline
// rule).
func Go(fn func(*Thread)) *Thread {
	t := &Thread{done: make(chan struct{})}
	go func() {
		defer close(t.done)
		fn(t)
	}()
	return t
}

// Done returns a channel closed when the function of a goroutine-backed
// thread (started with Go or Threads.Go) has returned. It returns nil for
// threads spawned with Spawn, which have no goroutine of their own.
func (t *Thread) Done() <-chan struct{} { return t.done }

// ID returns the thread identifier.
func (t *Thread) ID() int64 { return t.id }

// Client returns the client whose call the thread is executing.
func (t *Thread) Client() msg.ProcID { return t.client }

// Kill requests termination. It is idempotent and non-blocking; the running
// procedure observes it through Killed.
func (t *Thread) Kill() {
	t.mu.Lock()
	if !t.killed {
		t.killed = true
		if t.kill != nil {
			close(t.kill)
		}
	}
	t.mu.Unlock()
}

// Killed returns a channel closed when the thread has been killed. Server
// procedures select on it (or poll IsKilled) at convenient points.
func (t *Thread) Killed() <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.kill == nil {
		t.kill = make(chan struct{})
		if t.killed {
			close(t.kill)
		}
	}
	return t.kill
}

// IsKilled reports whether Kill has been called.
func (t *Thread) IsKilled() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.killed
}

// Threads is a registry of live server threads on one site.
type Threads struct {
	mu   sync.Mutex
	next int64
	live map[int64]*Thread
}

// NewThreads returns an empty registry.
func NewThreads() *Threads {
	return &Threads{live: make(map[int64]*Thread)}
}

// Spawn registers a new thread serving a call from client.
func (r *Threads) Spawn(client msg.ProcID) *Thread {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	t := &Thread{id: r.next, client: client}
	r.live[t.id] = t
	return t
}

// Go runs fn on its own goroutine bound to a new registered thread serving
// client, and removes the thread from the registry when fn returns. Unlike
// a bare go statement the goroutine is reaped by KillAll (site crash).
func (r *Threads) Go(client msg.ProcID, fn func(*Thread)) *Thread {
	t := r.Spawn(client)
	t.done = make(chan struct{})
	go func() {
		defer close(t.done)
		defer r.Finish(t)
		fn(t)
	}()
	return t
}

// Finish removes a completed thread from the registry.
func (r *Threads) Finish(t *Thread) {
	r.mu.Lock()
	delete(r.live, t.id)
	r.mu.Unlock()
}

// KillAll kills every live thread and empties the registry; used on site
// crash. It returns the number of threads killed.
func (r *Threads) KillAll() int {
	r.mu.Lock()
	ts := make([]*Thread, 0, len(r.live))
	for _, t := range r.live {
		ts = append(ts, t)
	}
	r.live = make(map[int64]*Thread)
	r.mu.Unlock()
	for _, t := range ts {
		t.Kill()
	}
	return len(ts)
}

// Live returns the number of live threads.
func (r *Threads) Live() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.live)
}

// Site tracks the crash/recovery lifecycle of one process. Incarnation
// numbers increase across recoveries; the orphan-handling micro-protocols
// use them to partition calls into generations.
type Site struct {
	id msg.ProcID

	mu  sync.Mutex
	inc msg.Incarnation
	up  bool
}

// NewSite returns an up site with incarnation 1.
func NewSite(id msg.ProcID) *Site {
	return &Site{id: id, inc: 1, up: true}
}

// ID returns the process id.
func (s *Site) ID() msg.ProcID { return s.id }

// Inc returns the current incarnation number.
func (s *Site) Inc() msg.Incarnation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inc
}

// Up reports whether the site is up.
func (s *Site) Up() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.up
}

// Crash marks the site down. It reports whether the site was up.
func (s *Site) Crash() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	was := s.up
	s.up = false
	return was
}

// Recover marks the site up under a fresh (strictly larger) incarnation and
// returns it.
func (s *Site) Recover() msg.Incarnation {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inc++
	s.up = true
	return s.inc
}
