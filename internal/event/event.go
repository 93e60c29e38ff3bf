// Package event implements the event-driven execution model of the
// composite-protocol framework from Hiltunen & Schlichting (TR 94-28).
//
// Micro-protocols are collections of event handlers registered with a Bus.
// When an event is triggered, all handlers registered for it run
// sequentially on the triggering goroutine, in ascending priority order
// (ties broken by registration order). A handler may cancel the occurrence,
// skipping the remaining handlers — the framework's cancel_event().
//
// TIMEOUT is special, exactly as in the paper: a handler registered for it
// runs once after the given interval and is then automatically deregistered;
// periodic behaviour is obtained by re-registering from within the handler.
package event

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"mrpc/internal/clock"
	"mrpc/internal/pool"
)

// Type identifies an event. The set mirrors §4.3 of the paper.
type Type int

// Event types used by the gRPC composite protocol.
const (
	CallFromUser Type = iota + 1
	NewRPCCall
	ReplyFromServer
	MsgFromNetwork
	Recovery
	MembershipChange
	Timeout
)

var typeNames = map[Type]string{
	CallFromUser:     "CALL_FROM_USER",
	NewRPCCall:       "NEW_RPC_CALL",
	ReplyFromServer:  "REPLY_FROM_SERVER",
	MsgFromNetwork:   "MSG_FROM_NETWORK",
	Recovery:         "RECOVERY",
	MembershipChange: "MEMBERSHIP_CHANGE",
	Timeout:          "TIMEOUT",
}

// String returns the paper's name for the event type.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("EVENT(%d)", int(t))
}

// DefaultPriority is assigned when a micro-protocol omits the priority
// parameter; per the paper it is the lowest priority (handlers run last).
const DefaultPriority = 1 << 20

// Occurrence is one triggering of an event, passed to every handler.
type Occurrence struct {
	// Type is the event that occurred.
	Type Type
	// Arg carries the trigger's argument (a *msg.NetMsg, *msg.UserMsg,
	// call id, etc. depending on Type).
	Arg any

	cancelled bool
	cleanups  []func(*Occurrence)
}

// occPool recycles occurrences (and their cleanup slices) across triggers:
// dispatch is the hottest path in the composite, and an occurrence never
// outlives its Trigger call — handlers receive it synchronously and the
// compensation closures run before Trigger returns.
var occPool = pool.New(func() any { return new(Occurrence) })

func getOcc(t Type, arg any) *Occurrence {
	o := occPool.Get().(*Occurrence)
	o.Type, o.Arg, o.cancelled = t, arg, false
	return o
}

// putOcc takes ownership of a finished occurrence and recycles it.
//
//lint:owns o
func putOcc(o *Occurrence) {
	o.Arg = nil
	for i := range o.cleanups {
		o.cleanups[i] = nil // do not retain compensation closures
	}
	o.cleanups = o.cleanups[:0]
	occPool.Put(o)
}

// Cancel marks the occurrence cancelled: the remaining handlers registered
// for this event are skipped. This is the framework's cancel_event().
func (o *Occurrence) Cancel() { o.cancelled = true }

// Cancelled reports whether a handler cancelled the occurrence.
func (o *Occurrence) Cancelled() bool { return o.cancelled }

// OnCancel registers a compensation to run (in reverse registration order)
// if a later handler cancels this occurrence. Handlers that acquire
// resources or update counters use it so that cancellation by a
// higher-numbered-priority handler does not leak state — a hazard the
// paper's pseudocode leaves to inspection (deviation D6 in DESIGN.md).
// The compensation receives the occurrence it was registered on, so
// hot-path handlers can register one long-lived callback that reads its
// context from o.Arg instead of allocating a fresh capturing closure per
// event.
func (o *Occurrence) OnCancel(f func(*Occurrence)) { o.cleanups = append(o.cleanups, f) }

// Handler is an event handler. Handlers run on the triggering goroutine.
type Handler func(*Occurrence)

// Registration describes one registered handler; used to dump the
// composite-protocol structure (Figure 3).
type Registration struct {
	Event    Type
	Name     string
	Priority int
	seq      int
	fn       Handler
}

type timeoutEntry struct {
	name  string
	fn    Handler
	timer clock.Timer
}

// Observer receives a record of every handler invocation when installed
// with SetObserver — the introspection hook behind handler-level profiling
// of a composite protocol. It is called synchronously on the dispatching
// goroutine and must be fast.
type Observer func(ev Type, handler string, d time.Duration, cancelled bool)

// Bus is the event framework linked into a composite protocol. It owns the
// handler tables and the timeout machinery. The zero value is not usable;
// construct with New.
type Bus struct {
	clk clock.Clock

	mu sync.RWMutex
	// handlers maps each event to its dispatch slice in priority order. The
	// slices are immutable: Register and Deregister build a fresh sorted
	// slice and swap it in, so Trigger can iterate whatever slice it read
	// without copying or holding the lock.
	handlers map[Type][]*Registration
	timeouts map[*timeoutEntry]struct{}
	observer Observer
	gate     func() func()
	nextSeq  int
	closed   bool
}

// New returns a Bus using clk for TIMEOUT scheduling.
func New(clk clock.Clock) *Bus {
	return &Bus{
		clk:      clk,
		handlers: make(map[Type][]*Registration),
		timeouts: make(map[*timeoutEntry]struct{}),
	}
}

// Register requests that fn be invoked when t occurs, at the given priority
// (lower values run earlier). name identifies the registration for
// Deregister and for structure dumps; (t, name) pairs must be unique.
// Registering for Timeout through this method is an error; use
// RegisterTimeout.
func (b *Bus) Register(t Type, name string, priority int, fn Handler) error {
	if t == Timeout {
		return fmt.Errorf("event: register %q: use RegisterTimeout for TIMEOUT", name)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("event: register %q: bus closed", name)
	}
	for _, r := range b.handlers[t] {
		if r.Name == name {
			return fmt.Errorf("event: register %q for %v: already registered", name, t)
		}
	}
	r := &Registration{Event: t, Name: name, Priority: priority, seq: b.nextSeq, fn: fn}
	b.nextSeq++
	old := b.handlers[t]
	hs := make([]*Registration, 0, len(old)+1)
	hs = append(hs, old...)
	hs = append(hs, r)
	sort.SliceStable(hs, func(i, j int) bool {
		if hs[i].Priority != hs[j].Priority {
			return hs[i].Priority < hs[j].Priority
		}
		return hs[i].seq < hs[j].seq
	})
	b.handlers[t] = hs
	return nil
}

// Deregister reverses a Register. Unknown names are ignored (deregistering
// twice is harmless, matching the paper's informal semantics).
func (b *Bus) Deregister(t Type, name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	hs := b.handlers[t]
	for i, r := range hs {
		if r.Name == name {
			b.handlers[t] = append(append([]*Registration(nil), hs[:i]...), hs[i+1:]...)
			return
		}
	}
}

// Trigger notifies the framework that t has occurred with argument arg. All
// handlers registered for t execute sequentially on the calling goroutine in
// priority order; a handler may Cancel the occurrence to skip the rest.
// Trigger reports whether the occurrence ran to completion (not cancelled).
func (b *Bus) Trigger(t Type, arg any) bool {
	b.mu.RLock()
	hs := b.handlers[t] // immutable once published; safe to iterate unlocked
	obs := b.observer
	b.mu.RUnlock()

	if len(hs) == 0 {
		return true
	}
	occ := getOcc(t, arg)
	completed := true
	for _, r := range hs {
		if obs != nil {
			t0 := b.clk.Now()
			r.fn(occ)
			obs(t, r.Name, b.clk.Now().Sub(t0), occ.cancelled)
		} else {
			r.fn(occ)
		}
		if occ.cancelled {
			for i := len(occ.cleanups) - 1; i >= 0; i-- {
				occ.cleanups[i](occ)
			}
			completed = false
			break
		}
	}
	putOcc(occ)
	return completed
}

// SetObserver installs (or with nil, removes) the handler-invocation
// observer. Observation adds two clock reads per handler; leave it unset
// on hot paths.
func (b *Bus) SetObserver(o Observer) {
	b.mu.Lock()
	b.observer = o
	b.mu.Unlock()
}

// SetDispatchGate installs a gate every TIMEOUT firing passes through
// before it looks up its registration: the firing goroutine calls gate(),
// runs, and then calls the returned release function. The composite
// framework uses it to make timer dispatch participate in the
// reconfiguration barrier (handlers fired by timers must not run while a
// Composite.Swap is detaching the protocols that registered them).
//
// The gate is captured when a timeout is armed, so it must be installed
// before the first RegisterTimeout call; installing it later leaves
// already-armed timeouts ungated.
func (b *Bus) SetDispatchGate(gate func() func()) {
	b.mu.Lock()
	b.gate = gate
	b.mu.Unlock()
}

// RegisterTimeout arranges for fn to run once, after interval, as a TIMEOUT
// occurrence. Unlike ordinary registrations it is automatically removed when
// it fires; re-register from within fn for periodic behaviour. The returned
// cancel function stops the timeout if it has not fired (idempotent).
func (b *Bus) RegisterTimeout(name string, interval time.Duration, fn Handler) (cancel func()) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return func() {}
	}
	e := &timeoutEntry{name: name, fn: fn}
	b.timeouts[e] = struct{}{}
	gate := b.gate
	e.timer = b.clk.AfterFunc(interval, func() {
		// The gate is entered before b.mu so a gate holder (the swap
		// barrier) can cancel timeouts — which takes b.mu — without
		// deadlocking against a firing that is waiting at the gate.
		if gate != nil {
			release := gate()
			defer release()
		}
		b.mu.Lock()
		if _, live := b.timeouts[e]; !live {
			b.mu.Unlock()
			return
		}
		delete(b.timeouts, e)
		closed := b.closed
		obs := b.observer
		b.mu.Unlock()
		if closed {
			return
		}
		occ := getOcc(Timeout, nil)
		// TIMEOUT firings report to the observer like ordinary dispatch, so
		// handler-level profiling covers retransmission and failure-detector
		// work too.
		if obs != nil {
			t0 := b.clk.Now()
			fn(occ)
			obs(Timeout, e.name, b.clk.Now().Sub(t0), occ.cancelled)
		} else {
			fn(occ)
		}
		putOcc(occ)
	})
	b.mu.Unlock()
	return func() {
		b.mu.Lock()
		if _, live := b.timeouts[e]; live {
			delete(b.timeouts, e)
			e.timer.Stop()
		}
		b.mu.Unlock()
	}
}

// PendingTimeouts returns the number of armed TIMEOUT registrations.
func (b *Bus) PendingTimeouts() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.timeouts)
}

// Registrations returns a snapshot of all ordinary registrations, grouped by
// event type in dispatch order. Used to regenerate Figure 3.
func (b *Bus) Registrations() map[Type][]Registration {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make(map[Type][]Registration, len(b.handlers))
	for t, hs := range b.handlers {
		rs := make([]Registration, len(hs))
		for i, h := range hs {
			rs[i] = *h
		}
		out[t] = rs
	}
	return out
}

// Close stops all pending timeouts and rejects future registrations.
// In-flight Trigger calls are unaffected.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for e := range b.timeouts {
		e.timer.Stop()
		delete(b.timeouts, e)
	}
}

// Clock returns the bus's time source, shared with micro-protocols that need
// to measure intervals consistently with their timeouts.
func (b *Bus) Clock() clock.Clock { return b.clk }
