package proc

import "sync"

// maxIdleWorkers bounds how many idle workers a Pool parks. Two cover the
// common call/ack (or call/retransmission) bursts without keeping a
// goroutine per historical peak alive.
const maxIdleWorkers = 2

// Pool is a claim-based worker pool: every value handed to Dispatch runs
// through the pool's function on a parked worker when one is free to claim
// it, and on a fresh goroutine otherwise. The mailbox is claim-based —
// Dispatch enqueues only after reserving a parked worker (idle is
// decremented first) — so queue length never exceeds the workers committed
// to draining it, and a run that blocks never delays an unrelated value. A
// worker parks after its run while the idle quota allows, so a busy pool
// converges to a few goroutines that spawn nothing in steady state.
//
// Both transports deliver through a Pool (see transport.Core); the owner
// quiesces it through its own in-flight count, since every dispatched
// value is counted until its run returns. Call Init before first use.
type Pool[T any] struct {
	run func(T)

	mu     sync.Mutex
	idle   int
	closed bool
	mail   chan T
}

// Init prepares p to run run for every dispatched value.
func (p *Pool[T]) Init(run func(T)) {
	p.run = run
	p.mail = make(chan T, maxIdleWorkers)
}

// Dispatch runs v on a claimed parked worker or a fresh goroutine. It
// reports false, running nothing, once Close has retired the pool.
func (p *Pool[T]) Dispatch(v T) bool {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false
	}
	if p.idle > 0 {
		p.idle-- // reserve the worker: the mailbox send below cannot block
		p.mu.Unlock()
		p.mail <- v
		return true
	}
	p.mu.Unlock()
	// A plain go over a method call avoids the closure and thread-handle
	// allocations Go would add: this is the hot path of every zero-delay
	// simulated delivery.
	go p.work(v)
	return true
}

// work runs first, then joins the pool: park (up to the idle quota) and
// drain claimed values until the pool is retired.
func (p *Pool[T]) work(first T) {
	v := first
	for {
		p.run(v)
		p.mu.Lock()
		if p.closed || p.idle >= maxIdleWorkers {
			p.mu.Unlock()
			return
		}
		p.idle++
		p.mu.Unlock()
		var ok bool
		if v, ok = <-p.mail; !ok {
			return
		}
	}
}

// Close retires the pool: parked workers exit and later Dispatch calls run
// nothing. The owner must call it only once no Dispatch can be between
// reserving a worker and handing it the value — for the transports, once
// their in-flight count has drained to zero.
func (p *Pool[T]) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.mail)
	}
	p.mu.Unlock()
}
