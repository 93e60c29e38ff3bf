package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mrpc/internal/msg"
	"mrpc/internal/proc"
)

// Frame is one delivery handed to an endpoint: the frozen message every
// recipient of a send shares, or — when the bytes crossed a codec — the
// shared wire bytes, decoded on the delivering worker.
type Frame struct {
	M    *msg.NetMsg
	Wire []byte
}

// Encode returns the frame a send hands to every destination: the frozen
// message itself, or with wire set its wire bytes, encoded once for the
// whole send — a relayed frame forwards its shared bytes unchanged (D17).
func Encode(m *msg.NetMsg, wire bool) Frame {
	if !wire {
		return Frame{M: m}
	}
	if w := m.Wire(); w != nil {
		return Frame{Wire: w}
	}
	return Frame{Wire: m.Encode()}
}

// Ledger is the transport-wide accounting every implementation shares: the
// Stats counters each substrate observes, and the in-flight count behind
// Quiesce and Stop. A frame is counted when it is admitted and retired
// when it is delivered or dropped, so Quiesce cannot return while an
// admitted frame is on its way. A WaitGroup cannot express this:
// retransmission timers admit concurrently with a waiter at a zero count.
type Ledger struct {
	mu       sync.Mutex
	inflight int
	idle     chan struct{} // closed when inflight drops to zero; nil if nobody waits

	Sent, Delivered, Dropped, DownDrops, Batches atomic.Int64
}

// Admit counts k admitted frames.
func (l *Ledger) Admit(k int) {
	l.mu.Lock()
	l.inflight += k
	l.mu.Unlock()
}

// Done retires one admitted frame.
func (l *Ledger) Done() {
	l.mu.Lock()
	l.inflight--
	if l.inflight == 0 && l.idle != nil {
		close(l.idle)
		l.idle = nil
	}
	l.mu.Unlock()
}

// Drop retires one admitted frame as lost.
func (l *Ledger) Drop() {
	l.Dropped.Add(1)
	l.Done()
}

// Quiesce blocks until no admitted frame remains in flight.
func (l *Ledger) Quiesce() {
	l.mu.Lock()
	for l.inflight > 0 {
		if l.idle == nil {
			l.idle = make(chan struct{})
		}
		idle := l.idle
		l.mu.Unlock()
		<-idle
		l.mu.Lock()
	}
	l.mu.Unlock()
}

// Stats returns the shared counters; the caller fills in the ones only its
// substrate observes.
func (l *Ledger) Stats() Stats {
	return Stats{
		Sent:      l.Sent.Load(),
		Delivered: l.Delivered.Load(),
		Dropped:   l.Dropped.Load(),
		DownDrops: l.DownDrops.Load(),
		Batches:   l.Batches.Load(),
	}
}

// Core is the part of an Endpoint that does not depend on the substrate:
// identity, the handler and up flag, the traffic counters, and delivery.
// Implementations embed it and add only Push and Multicast. Delivery
// follows the Handler contract: every admitted frame runs on a pooled
// worker or a fresh goroutine (proc.Pool), never behind another arrival's
// blocked handler, and stays counted in the Ledger until the handler
// returns or the frame is dropped.
type Core struct {
	ledger *Ledger
	id     msg.ProcID
	pool   proc.Pool[Frame]

	mu      sync.Mutex
	handler Handler
	up      bool

	egress, ingress atomic.Int64
}

// Init makes c the up endpoint id, accounted in l, delivering to h.
func (c *Core) Init(l *Ledger, id msg.ProcID, h Handler) {
	c.ledger, c.id, c.handler, c.up = l, id, h, true
	c.pool.Init(c.deliver)
}

// ID returns the endpoint's process id.
func (c *Core) ID() msg.ProcID { return c.id }

// SetHandler replaces the delivery handler (used on process recovery, when
// a fresh composite protocol instance takes over the endpoint).
func (c *Core) SetHandler(h Handler) {
	c.mu.Lock()
	c.handler = h
	c.mu.Unlock()
}

// SetUp marks the endpoint up or down. A down endpoint neither sends nor
// receives: frames toward it are dropped at delivery time, modelling a
// crashed site.
func (c *Core) SetUp(up bool) {
	c.mu.Lock()
	c.up = up
	c.mu.Unlock()
}

// Up reports whether the endpoint is up.
func (c *Core) Up() bool {
	c.mu.Lock()
	up := c.up
	c.mu.Unlock()
	return up
}

// Stats returns a snapshot of the endpoint's traffic counters.
func (c *Core) Stats() EndpointStats {
	return EndpointStats{Egress: c.egress.Load(), Ingress: c.ingress.Load()}
}

// Prepare is the prologue of Push and Multicast. It reports false when the
// endpoint is down — a crashed site sends nothing — and otherwise freezes
// m, so every destination shares one read-only body, and counts it in
// Batches if it is one.
func (c *Core) Prepare(m *msg.NetMsg) bool {
	if !c.Up() {
		return false
	}
	m.Freeze()
	if m.Type == msg.OpBatch {
		c.ledger.Batches.Add(1)
	}
	return true
}

// Offer counts one destination of a send: Sent always, and Egress unless
// the destination is the endpoint's own process.
func (c *Core) Offer(to msg.ProcID) {
	c.ledger.Sent.Add(1)
	if to != c.id {
		c.egress.Add(1)
	}
}

// Dispatch delivers an admitted frame (already counted in the Ledger) on
// the worker pool; after Retire the frame is discarded.
func (c *Core) Dispatch(f Frame) {
	if !c.pool.Dispatch(f) {
		c.ledger.Done()
	}
}

// Retire retires the worker pool. Stop calls it once the Ledger has
// quiesced, so no Dispatch can be mid-hand-off.
func (c *Core) Retire() { c.pool.Close() }

// deliver runs one frame on a pool worker: decode the shared wire bytes if
// the frame carries them, then hand the message to the handler unless the
// endpoint is down.
func (c *Core) deliver(f Frame) {
	defer c.ledger.Done()
	m := f.M
	if f.Wire != nil {
		// Args are borrowed from the shared immutable buffer, not copied;
		// the buffer is never recycled, so retained Args stay valid (D13).
		decoded, err := msg.DecodeShared(f.Wire)
		if err != nil {
			// These bytes are our own encoding: a codec failure is a bug,
			// not a network fault, so surface it loudly.
			panic(fmt.Sprintf("transport: wire codec round-trip: %v", err))
		}
		m = decoded
	}
	c.mu.Lock()
	h, up := c.handler, c.up
	c.mu.Unlock()
	if !up || h == nil {
		c.ledger.DownDrops.Add(1)
		return
	}
	c.ledger.Delivered.Add(1)
	c.ingress.Add(1)
	h(m)
}
