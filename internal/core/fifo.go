package core

import (
	"sync"

	"mrpc/internal/event"
	"mrpc/internal/msg"
)

// FIFOOrder guarantees that the calls of each client are served in issue
// order at every server (§4.4.6). Per the paper it deliberately tolerates
// duplicate and concurrent execution (unique execution is a separate
// property), tracking only a per-client next-expected call id within the
// client's current incarnation.
//
// Initialization of the per-client sequence follows the paper by default:
// the first call that *arrives* defines the starting point, which lets a
// restarted server resynchronize. The paper's rule assumes call k+1 is only
// issued after call k reached every server that will ever see it; that
// fails as soon as acceptance is below the whole group — the client moves
// on after the first replies while call k is still on its way to (or being
// relayed towards) slower members, and the substrate may deliver k+1 first.
// A server adopting k+1 as the start would then drop k forever. With
// Reliable Communication a FIFO-ordered client therefore stamps each call
// with a lane base (see Framework.LaneBase): the lowest earlier call it is
// still transmitting. A lane opened by a server in its first incarnation
// starts at the base and holds later calls until the earlier ones arrive;
// a recovered server may have received those calls before its crash, so
// it keeps the paper's rule.
//
// For *pipelined* asynchronous clients StrictInit goes further and expects
// each incarnation's sequence to start at its first call (which the D9 id
// scheme makes recognizable); the configuration layer enables it
// automatically for asynchronous-call services.
type FIFOOrder struct {
	// StrictInit makes the expected sequence of a newly seen incarnation
	// start at its first call instead of at the first call to arrive.
	StrictInit bool

	b  *Binding
	mu sync.Mutex
	// inProgress migrates across a swap (a FIFO→FIFO parameter change must
	// not forget where each client's sequence stands).
	inProgress map[msg.ProcID]*fifoEntry
}

var _ MicroProtocol = (*FIFOOrder)(nil)
var _ Stateful = (*FIFOOrder)(nil)
var _ Sequencer = (*FIFOOrder)(nil)

type fifoEntry struct {
	inc  msg.Incarnation
	next msg.CallID
}

// Name implements MicroProtocol.
func (*FIFOOrder) Name() string { return "FIFO Order" }

func (f *FIFOOrder) spec() any {
	return struct{ strict bool }{f.StrictInit}
}

// ExportState implements Stateful.
func (f *FIFOOrder) ExportState() any {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.inProgress
}

// ImportState implements Stateful.
func (f *FIFOOrder) ImportState(state any) {
	f.mu.Lock()
	f.inProgress = state.(map[msg.ProcID]*fifoEntry)
	f.mu.Unlock()
}

// firstCallID is the id a client's incarnation assigns to its first call
// under the D9 scheme (incarnation in the upper 32 bits, sequence 1).
func firstCallID(inc msg.Incarnation) msg.CallID {
	return msg.CallID(int64(inc)<<32 | 1)
}

// start returns where a new lane for m's client incarnation begins. An
// arriving call may start it at its lane base; an adopted one may not.
func (f *FIFOOrder) start(m *msg.NetMsg, arriving bool) msg.CallID {
	if f.StrictInit {
		return firstCallID(m.Inc)
	}
	if base := m.AckID; arriving && base != 0 && base < m.ID &&
		msg.Incarnation(base>>32) == m.Inc && f.fw().Inc() == firstIncarnation {
		return base
	}
	return m.ID
}

// firstIncarnation is a site's incarnation until its first recovery.
const firstIncarnation msg.Incarnation = 1

// admit applies the FIFO delivery rule to an arriving (or, with arriving
// false, adopted) call. It returns release=true when the call is next in
// its client's sequence (the caller forwards it up) and stale=true when the
// call belongs to a dead incarnation or an already-served position (the
// caller discards it).
func (f *FIFOOrder) admit(m *msg.NetMsg, arriving bool) (release, stale bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ip, seen := f.inProgress[m.Client]
	if !seen {
		ip = &fifoEntry{inc: m.Inc, next: f.start(m, arriving)}
		f.inProgress[m.Client] = ip
	} else {
		if ip.inc > m.Inc || (ip.inc == m.Inc && m.ID < ip.next) {
			return false, true
		}
		if ip.inc < m.Inc {
			ip.inc = m.Inc
			ip.next = f.start(m, arriving)
		}
	}
	return m.ID == ip.next, false
}

// Adopt implements Sequencer: a call admitted to sRPC before this instance
// attached is offered to the FIFO rule as if it had just arrived. Stale
// calls are dropped from the table directly (there is no occurrence to
// cancel). The reconfiguration engine adopts calls in (client, id) order,
// so a freshly initialized sequence adopts each client's earliest held call
// as its starting point — not its lane base: the drain before the swap
// settled every earlier call, so none of them is still coming.
func (f *FIFOOrder) Adopt(key msg.CallKey, m *msg.NetMsg) {
	release, stale := f.admit(m, false)
	switch {
	case stale:
		f.fw().DropServerCall(key)
	case release:
		f.fw().ForwardUp(key, HoldFIFO)
	}
}

func (f *FIFOOrder) fw() *Framework { return f.b.fw }

// Attach implements MicroProtocol.
func (f *FIFOOrder) Attach(fw *Framework) error {
	fw.SetHold(HoldFIFO)
	b := NewBinding(fw)
	f.b = b
	f.inProgress = make(map[msg.ProcID]*fifoEntry)

	b.On(event.MsgFromNetwork, "FIFOOrder.msgFromNet", PrioOrder,
		func(o *event.Occurrence) {
			m := o.Arg.(*NetEvent).Msg
			if m.Type != msg.OpCall {
				return
			}
			release, stale := f.admit(m, true)
			switch {
			case stale:
				// Stale incarnation or already-served call: discard
				// (Main's cancellation cleanup drops the record).
				o.Cancel()
			case release:
				fw.ForwardUp(m.Key(), HoldFIFO)
			}
		})

	b.On(event.ReplyFromServer, "FIFOOrder.handleReply", PrioReplyBookkeep,
		func(o *event.Occurrence) {
			key := *o.Arg.(*msg.CallKey)
			var inc msg.Incarnation
			if !fw.WithServer(key, func(rec *ServerRecord) { inc = rec.Inc }) {
				return
			}
			f.mu.Lock()
			advanced := false
			if ip := f.inProgress[key.Client]; ip != nil && ip.inc == inc && ip.next == key.ID {
				ip.next = key.ID + 1
				advanced = true
			}
			f.mu.Unlock()
			if advanced {
				// If the successor is already held, release it (ForwardUp
				// no-ops when it is not here yet; its own arrival handler
				// will find next already advanced).
				fw.ForwardUp(msg.CallKey{Client: key.Client, ID: key.ID + 1}, HoldFIFO)
			}
		})
	return b.Err()
}

// Detach implements MicroProtocol.
func (f *FIFOOrder) Detach(fw *Framework) {
	f.b.Detach()
	fw.ClearHold(HoldFIFO)
}
