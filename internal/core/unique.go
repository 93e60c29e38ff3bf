package core

import (
	"sync"

	"mrpc/internal/event"
	"mrpc/internal/msg"
	"mrpc/internal/trace"
)

// UniqueExecution guarantees that a call is not executed more than once at
// each server (§4.4.5): the server remembers calls it has seen (OldCalls)
// and retains its response (OldResults) until the client acknowledges it; a
// duplicate request is answered from the stored response or, if execution
// is in progress, simply discarded. Combined with Reliable Communication
// this lifts "at least once" to "exactly once" semantics.
//
// As in the paper, OldCalls entries are retained indefinitely so that a
// straggler duplicate arriving after the acknowledgement is still
// recognized as old; the table is bounded by the number of distinct calls
// served in the incarnation.
type UniqueExecution struct {
	b  *Binding
	mu sync.Mutex
	// oldCalls/oldResults migrate across a swap: the no-double-execution
	// guarantee must hold for calls that executed before the swap too.
	oldCalls   map[msg.CallKey]bool
	oldResults map[msg.CallKey][]byte
}

var _ MicroProtocol = (*UniqueExecution)(nil)
var _ Stateful = (*UniqueExecution)(nil)

// uniqueState is UniqueExecution's exported migration state.
type uniqueState struct {
	oldCalls   map[msg.CallKey]bool
	oldResults map[msg.CallKey][]byte
}

// Name implements MicroProtocol.
func (*UniqueExecution) Name() string { return "Unique Execution" }

func (*UniqueExecution) spec() any { return struct{}{} }

// ExportState implements Stateful.
func (u *UniqueExecution) ExportState() any {
	u.mu.Lock()
	defer u.mu.Unlock()
	return uniqueState{oldCalls: u.oldCalls, oldResults: u.oldResults}
}

// ImportState implements Stateful.
func (u *UniqueExecution) ImportState(state any) {
	s := state.(uniqueState)
	u.mu.Lock()
	u.oldCalls = s.oldCalls
	u.oldResults = s.oldResults
	u.mu.Unlock()
}

// executed reports whether key has been executed here (seen and not merely
// in progress — a retained or acknowledged response exists, or the call is
// recorded as old without a pending sRPC record).
func (u *UniqueExecution) executed(key msg.CallKey) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.oldCalls[key]
}

// Attach implements MicroProtocol.
func (u *UniqueExecution) Attach(fw *Framework) error {
	b := NewBinding(fw)
	u.b = b
	u.oldCalls = make(map[msg.CallKey]bool)
	u.oldResults = make(map[msg.CallKey][]byte)

	// Publish the executed-call predicate: a freshly attached ordering
	// protocol must not sequence duplicates of calls that executed before
	// it attached (see Framework.AlreadyExecuted).
	fw.SetExecutedQuery(u.executed)

	// Retain the response until the client's ACK (priority 1: before
	// Atomic Execution's checkpoint on the same event).
	b.On(event.ReplyFromServer, "UniqueExec.handleReply", PrioReplyBookkeep,
		func(o *event.Occurrence) {
			key := *o.Arg.(*msg.CallKey)
			var (
				args []byte
				ok   bool
			)
			ok = fw.WithServer(key, func(rec *ServerRecord) { args = rec.Args })
			if ok {
				u.mu.Lock()
				u.oldResults[key] = args
				u.mu.Unlock()
			}
		})

	// One long-lived cancellation compensation (it reads its key from the
	// occurrence) instead of a per-event capturing closure; see D6.
	forgetOnCancel := func(o *event.Occurrence) {
		key := o.Arg.(*NetEvent).Msg.Key()
		u.mu.Lock()
		delete(u.oldCalls, key)
		u.mu.Unlock()
	}

	b.On(event.MsgFromNetwork, "UniqueExec.msgFromNet", PrioUnique,
		func(o *event.Occurrence) {
			m := o.Arg.(*NetEvent).Msg
			switch m.Type {
			case msg.OpCall:
				key := m.Key()
				u.mu.Lock()
				if res, done := u.oldResults[key]; done {
					u.mu.Unlock()
					// Already executed and unacknowledged: resend the
					// retained response. Under Causal Order it carries a
					// current timestamp, which covers everything the
					// original reply's did: without one, a resend that
					// overtook the original let the client fold the result
					// but not its causal dependencies.
					if fw.Tracing() {
						fw.Emit(trace.Event{Kind: trace.KDupDropped, Client: m.Client, ID: m.ID})
					}
					fw.Net().Push(m.Sender, &msg.NetMsg{
						Type:   msg.OpReply,
						ID:     m.ID,
						Client: m.Client,
						Op:     m.Op,
						Args:   res,
						Server: m.Server,
						Sender: fw.Self(),
						Inc:    fw.Inc(),
						VC:     fw.replyVC(),
					})
					o.Cancel()
					return
				}
				if u.oldCalls[key] {
					u.mu.Unlock()
					// Execution in progress (or acknowledged): discard.
					if fw.Tracing() {
						fw.Emit(trace.Event{Kind: trace.KDupDropped, Client: m.Client, ID: m.ID})
					}
					o.Cancel()
					return
				}
				u.oldCalls[key] = true
				u.mu.Unlock()
				// If a later handler cancels this delivery (the call never
				// executes now), forget it so a retransmission can succeed
				// (deviation D6).
				o.OnCancel(forgetOnCancel)

			case msg.OpReply:
				// Client side: acknowledge the response so the server can
				// release it.
				fw.Net().Push(m.Sender, &msg.NetMsg{
					Type:   msg.OpAck,
					Client: m.Client,
					Server: m.Server,
					Sender: fw.Self(),
					Inc:    fw.Inc(),
					AckID:  m.ID,
				})

			case msg.OpAck:
				u.mu.Lock()
				delete(u.oldResults, msg.CallKey{Client: m.Client, ID: m.AckID})
				u.mu.Unlock()
			}
		})
	return b.Err()
}

// Detach implements MicroProtocol.
func (u *UniqueExecution) Detach(fw *Framework) {
	u.b.Detach()
	fw.SetExecutedQuery(nil)
}
