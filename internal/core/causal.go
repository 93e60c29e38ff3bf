package core

import (
	"sync"

	"mrpc/internal/event"
	"mrpc/internal/msg"
)

// CausalOrder guarantees that causally related calls are executed in
// causal order by every group member. It is an extension beyond the
// paper's Figure 4 — §2.2 notes that "other variants such as partial or
// causal order have also been defined" — implemented as a CBCAST-style
// vector-clock protocol:
//
//   - a client's k-th call carries a timestamp T with T[client] = k and
//     T[q] = the number of q's calls the client causally knows about
//     (learned by merging the delivered-vectors servers attach to their
//     replies);
//   - a server executes the call only when T[client] is the next
//     undelivered call of that client and every other entry of T is
//     already delivered; otherwise the call is held.
//
// Causality therefore flows through replies: if client B issues a call
// after seeing a reply that reflects client A's call, every server
// executes A's call first. A reply's vector also counts the calls still
// executing, since under concurrent execution it may already reflect
// them, and Unique Execution's resent replies carry a vector too. Calls
// with no causal relation may execute in different orders at different
// members — strictly weaker than Total Order, strictly stronger than FIFO
// (a client's own calls are trivially causally related).
//
// Like FIFO and Total Order it requires Reliable Communication and Unique
// Execution. A recovered client restarts its numbering; the server resets
// the client's delivered count when it first hears the new incarnation,
// dropping any held calls of dead incarnations.
//
// Constraint: a client of a causally ordered service must address all its
// calls to the same group. CBCAST numbering is per-process, so a call sent
// to a subgroup would leave gaps in the sequence the other members wait
// for.
type CausalOrder struct {
	b  *Binding
	mu sync.Mutex
	// held/incs migrate across a causal→causal swap together with the
	// framework's delivered-vector (causalState), so the delivery condition
	// resumes exactly where the predecessor left off.
	held map[msg.CallKey]causalHeld
	incs map[msg.ProcID]msg.Incarnation
}

var _ MicroProtocol = (*CausalOrder)(nil)
var _ Stateful = (*CausalOrder)(nil)
var _ Sequencer = (*CausalOrder)(nil)

// Name implements MicroProtocol.
func (*CausalOrder) Name() string { return "Causal Order" }

func (*CausalOrder) spec() any { return struct{}{} }

type causalHeld struct {
	vc     msg.VClock
	client msg.ProcID
}

// causalState is CausalOrder's exported migration state.
type causalState struct {
	held map[msg.CallKey]causalHeld
	incs map[msg.ProcID]msg.Incarnation
	vc   msg.VClock
}

// ExportState implements Stateful.
func (c *CausalOrder) ExportState() any {
	c.mu.Lock()
	defer c.mu.Unlock()
	return causalState{held: c.held, incs: c.incs, vc: c.b.fw.VCSnapshot()}
}

// ImportState implements Stateful.
func (c *CausalOrder) ImportState(state any) {
	s := state.(causalState)
	c.mu.Lock()
	c.held = s.held
	c.incs = s.incs
	c.mu.Unlock()
	c.b.fw.RestoreVC(s.vc)
}

// Adopt implements Sequencer: a call admitted to sRPC before this instance
// attached re-enters the causal delivery condition. With a fresh vector
// the incarnation bookkeeping starts over; the reconfiguration engine
// adopts calls in (client, id) order, so each client's earliest held call
// seeds its sequence.
func (c *CausalOrder) Adopt(key msg.CallKey, m *msg.NetMsg) {
	fw := c.b.fw
	client := m.Client
	c.mu.Lock()
	known, seen := c.incs[client]
	switch {
	case !seen || m.Inc > known:
		c.incs[client] = m.Inc
		var stale []msg.CallKey
		for k, h := range c.held {
			if h.client == client {
				stale = append(stale, k)
			}
		}
		for _, k := range stale {
			delete(c.held, k)
		}
		c.mu.Unlock()
		fw.ResetDelivered(client)
		for _, k := range stale {
			fw.DropServerCall(k)
		}
	case m.Inc < known:
		c.mu.Unlock()
		fw.DropServerCall(key)
		return
	default:
		c.mu.Unlock()
	}

	if fw.CausalDeliverable(client, m.VC) {
		fw.ForwardUp(key, HoldCausal)
		return
	}
	c.mu.Lock()
	c.held[key] = causalHeld{vc: m.VC, client: client}
	c.mu.Unlock()
}

// popDeliverable removes and returns one held call that has become
// deliverable, if any.
func (c *CausalOrder) popDeliverable(fw *Framework) (msg.CallKey, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, h := range c.held {
		if fw.CausalDeliverable(h.client, h.vc) {
			delete(c.held, key)
			return key, true
		}
	}
	return msg.CallKey{}, false
}

// Attach implements MicroProtocol.
func (c *CausalOrder) Attach(fw *Framework) error {
	fw.EnableCausal()
	fw.SetHold(HoldCausal)
	b := NewBinding(fw)
	c.b = b
	c.held = make(map[msg.CallKey]causalHeld)
	c.incs = make(map[msg.ProcID]msg.Incarnation)

	// Client side: learn the server's delivered-vector so the next call
	// causally follows what the reply reflects. Registered early (before
	// Acceptance's dedupe stage) so even replies that arrive after the
	// call completed still contribute their knowledge.
	b.On(event.MsgFromNetwork, "CausalOrder.replyMerge", PrioReliable+2,
		func(o *event.Occurrence) {
			m := o.Arg.(*NetEvent).Msg
			if m.Type == msg.OpReply {
				fw.MergeVC(m.VC)
			}
		})

	b.On(event.MsgFromNetwork, "CausalOrder.msgFromNet", PrioOrder,
		func(o *event.Occurrence) {
			m := o.Arg.(*NetEvent).Msg
			switch m.Type {
			case msg.OpCall:
				key := m.Key()
				client := m.Client

				c.mu.Lock()
				known, seen := c.incs[client]
				switch {
				case !seen || m.Inc > known:
					// First contact with this incarnation: its numbering
					// starts afresh; held calls of older incarnations are
					// dead.
					c.incs[client] = m.Inc
					var stale []msg.CallKey
					for k, h := range c.held {
						if h.client == client {
							stale = append(stale, k)
						}
					}
					for _, k := range stale {
						delete(c.held, k)
					}
					c.mu.Unlock()
					fw.ResetDelivered(client)
					for _, k := range stale {
						fw.DropServerCall(k)
					}
				case m.Inc < known:
					c.mu.Unlock()
					o.Cancel()
					return
				default:
					c.mu.Unlock()
				}

				if fw.CausalDeliverable(client, m.VC) {
					fw.ForwardUp(key, HoldCausal)
					return
				}
				c.mu.Lock()
				c.held[key] = causalHeld{vc: m.VC, client: client}
				c.mu.Unlock()
				o.OnCancel(func(*event.Occurrence) {
					c.mu.Lock()
					delete(c.held, key)
					c.mu.Unlock()
				})
			}
		})

	b.On(event.ReplyFromServer, "CausalOrder.handleReply", PrioReplyBookkeep,
		func(o *event.Occurrence) {
			key := *o.Arg.(*msg.CallKey)
			var client msg.ProcID
			if !fw.WithServer(key, func(rec *ServerRecord) { client = rec.Client }) {
				return
			}
			fw.BumpDelivered(client)
			// Release one newly deliverable held call; its own reply event
			// releases the next, draining any chain without recursion
			// fan-out.
			if next, ok := c.popDeliverable(fw); ok {
				fw.ForwardUp(next, HoldCausal)
			}
		})
	return b.Err()
}

// Detach implements MicroProtocol.
func (c *CausalOrder) Detach(fw *Framework) {
	c.b.Detach()
	fw.ClearHold(HoldCausal)
	fw.DisableCausal()
}
