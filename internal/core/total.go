package core

import (
	"fmt"
	"sync"
	"time"

	"mrpc/internal/event"
	"mrpc/internal/member"
	"mrpc/internal/msg"
	"mrpc/internal/stub"
)

// TotalOrder guarantees that the calls of all clients are processed in the
// same total order by every group member (§4.4.6). One member — the leader,
// defined as the non-failed server with the largest identifier — assigns
// sequence numbers to calls and disseminates them in ORDER messages; every
// member executes calls strictly in sequence-number order.
//
// The paper's implementation assumes Reliable Communication and Unique
// Execution are configured and Bounded Termination is not; the dependency
// graph in internal/config enforces this.
//
// Leader change implements the agreement phase the paper omits "for
// brevity" (§4.4.6): the new leader queries the surviving members for the
// assignments they have seen (ORDER_QUERY/ORDER_INFO), merges their order
// tables, adopts a sequence number above everything reported, and
// re-disseminates the merged assignments — so an assignment the failed
// leader managed to deliver to any surviving member is preserved rather
// than renumbered divergently. Fresh assignments are deferred for
// AgreementDelay while the query round completes. This is crash-stop
// agreement over fair-lossy links (the query round itself is retried by
// the nudge timer), not partition-tolerant consensus; see DESIGN.md D4.
//
// A recovered member runs the same query round before it orders or
// executes anything: its fresh state knows no assignment, so as the
// highest-id member it would hand out numbers the group already used, and
// as a follower it would wait for slot 1 forever. It holds every call
// until the round completes, then starts executing above the highest
// assignment the group reported; the calls below it were served while it
// was down (no state transfer, DESIGN.md D15).
type TotalOrder struct {
	// NudgeInterval is how often a follower re-forwards calls that are
	// still waiting for a sequence number to the current leader (default
	// 20ms). The paper relies on client retransmissions to trigger this
	// forwarding; with receipt-acknowledged reliable communication (D11)
	// those stop, so order-message loss is recovered by the group itself.
	NudgeInterval time.Duration
	// AgreementDelay is how long a new leader collects ORDER_INFO replies
	// before assigning fresh sequence numbers (default 3x NudgeInterval).
	AgreementDelay time.Duration

	b  *Binding
	st *totalState
}

var _ MicroProtocol = (*TotalOrder)(nil)
var _ Stateful = (*TotalOrder)(nil)
var _ Sequencer = (*TotalOrder)(nil)

type totalState struct {
	mu        sync.Mutex
	oldOrders map[msg.CallKey]int64       // assigned sequence numbers seen
	waiting   map[msg.CallKey]*msg.NetMsg // full call, for re-forwarding
	ready     map[int64]msg.CallKey
	nextOrder int64                // leader: next number to assign
	nextEntry int64                // all: next number allowed to execute
	groups    map[string]msg.Group // groups observed, for leader takeover
	syncing   bool                 // new leader collecting ORDER_INFO; defer assignments

	// Rejoin after recovery: nextEntry is 0 (no order matches, so every
	// call is held) until the query round sent at rejoinAt has run for
	// AgreementDelay; frontier is the highest order reported meanwhile.
	rejoining bool
	rejoinAt  time.Time
	frontier  int64
}

// encodeOrders serializes a (key -> order) table for ORDER_INFO.
func encodeOrders(orders map[msg.CallKey]int64) []byte {
	w := stub.NewWriter(16 * len(orders))
	w.PutUint32(uint32(len(orders)))
	for k, ord := range orders {
		w.PutUint32(uint32(k.Client))
		w.PutInt64(int64(k.ID))
		w.PutInt64(ord)
	}
	return w.Bytes()
}

// decodeOrders parses an ORDER_INFO payload.
func decodeOrders(data []byte) map[msg.CallKey]int64 {
	r := stub.NewReader(data)
	n := int(r.Uint32())
	out := make(map[msg.CallKey]int64, n)
	for i := 0; i < n; i++ {
		client := msg.ProcID(r.Uint32())
		id := msg.CallID(r.Int64())
		ord := r.Int64()
		if r.Err() != nil {
			return out
		}
		out[msg.CallKey{Client: client, ID: id}] = ord
	}
	return out
}

func groupKey(g msg.Group) string { return fmt.Sprint(g) }

// leader computes the group leader, treating members the membership
// service reports failed as down.
func (fw *Framework) totalLeader(g msg.Group) msg.ProcID {
	down := make(map[msg.ProcID]bool)
	for _, p := range g {
		if fw.Membership().Down(p) {
			down[p] = true
		}
	}
	return g.Leader(down)
}

// Name implements MicroProtocol.
func (*TotalOrder) Name() string { return "Total Order" }

func (to *TotalOrder) params() (nudge, agreement time.Duration) {
	nudge = to.NudgeInterval
	if nudge <= 0 {
		nudge = 20 * time.Millisecond
	}
	agreement = to.AgreementDelay
	if agreement <= 0 {
		agreement = 3 * nudge
	}
	return nudge, agreement
}

func (to *TotalOrder) spec() any {
	n, a := to.params()
	return struct{ n, a time.Duration }{n, a}
}

// ExportState implements Stateful.
func (to *TotalOrder) ExportState() any { return to.st }

// ImportState implements Stateful. Runs under the swap barrier, after
// Attach: subsequent dispatch acquires the barrier shared, which orders the
// replacement before every handler read.
func (to *TotalOrder) ImportState(state any) { to.st = state.(*totalState) }

// assign gives key a sequence number (reusing a previously seen assignment)
// and disseminates it.
func (to *TotalOrder) assign(fw *Framework, key msg.CallKey, group msg.Group) {
	st := to.st
	st.mu.Lock()
	ord, ok := st.oldOrders[key]
	if !ok {
		ord = st.nextOrder
		st.oldOrders[key] = ord
		st.nextOrder++
	}
	st.mu.Unlock()
	fw.Net().Multicast(group, &msg.NetMsg{
		Type:   msg.OpOrder,
		ID:     key.ID,
		Client: key.Client,
		Server: group,
		Sender: fw.Self(),
		Inc:    fw.Inc(),
		Order:  ord,
	})
}

// applyOrder records an assignment and releases/drops a held call
// accordingly (the body of the paper's ORDER handling).
func (to *TotalOrder) applyOrder(fw *Framework, key msg.CallKey, order int64) {
	st := to.st
	st.mu.Lock()
	if st.nextOrder < order+1 {
		st.nextOrder = order + 1
	}
	if _, ok := st.oldOrders[key]; !ok {
		st.oldOrders[key] = order
	}
	if _, held := st.waiting[key]; !held {
		st.mu.Unlock()
		return
	}
	delete(st.waiting, key)
	switch {
	case order == st.nextEntry:
		st.mu.Unlock()
		fw.ForwardUp(key, HoldTotal)
	case order < st.nextEntry:
		st.mu.Unlock()
		fw.DropServerCall(key)
	default:
		st.ready[order] = key
		st.mu.Unlock()
	}
}

// Adopt implements Sequencer: a call admitted to sRPC before this instance
// attached (or before a swap replaced its predecessor) re-enters the
// ordering pipeline — the leader assigns it a number, and the call is held
// until its slot comes up, exactly as for a fresh arrival.
func (to *TotalOrder) Adopt(key msg.CallKey, m *msg.NetMsg) {
	fw := to.fw()
	st := to.st
	st.mu.Lock()
	st.groups[groupKey(m.Server)] = m.Server.Clone()
	syncing := st.syncing
	st.mu.Unlock()

	if fw.totalLeader(m.Server) == fw.Self() && !syncing {
		to.assign(fw, key, m.Server)
	}

	st.mu.Lock()
	ord, ok := st.oldOrders[key]
	if !ok {
		st.waiting[key] = m
		st.mu.Unlock()
		return
	}
	switch {
	case ord < st.nextEntry:
		st.mu.Unlock()
		fw.DropServerCall(key)
	case ord == st.nextEntry:
		st.mu.Unlock()
		fw.ForwardUp(key, HoldTotal)
	default:
		st.ready[ord] = key
		st.mu.Unlock()
	}
}

func (to *TotalOrder) fw() *Framework { return to.b.fw }

// Attach implements MicroProtocol.
func (to *TotalOrder) Attach(fw *Framework) error {
	fw.SetHold(HoldTotal)
	nudgeInterval, agreementDelay := to.params()
	b := NewBinding(fw)
	to.b = b
	to.st = &totalState{
		oldOrders: make(map[msg.CallKey]int64),
		waiting:   make(map[msg.CallKey]*msg.NetMsg),
		ready:     make(map[int64]msg.CallKey),
		nextOrder: 1,
		nextEntry: 1,
		groups:    make(map[string]msg.Group),
	}

	// The leader assigns sequence numbers as soon as a Call arrives
	// (before any other processing); followers holding an unordered call
	// nudge the leader when the client retransmits.
	b.On(event.MsgFromNetwork, "TotalOrder.assignOrder", PrioAssignOrder,
		func(o *event.Occurrence) {
			m := o.Arg.(*NetEvent).Msg
			if m.Type != msg.OpCall {
				return
			}
			key := m.Key()
			st := to.st
			st.mu.Lock()
			st.groups[groupKey(m.Server)] = m.Server.Clone()
			_, known := st.oldOrders[key]
			_, isWaiting := st.waiting[key]
			syncing := st.syncing
			st.mu.Unlock()

			// A duplicate of a call that executed before this instance
			// attached (a pre-reconfiguration call) must not be sequenced:
			// no reply will ever advance past its slot, which would stall
			// the whole entry sequence. Known or waiting keys pass — those
			// are live calls (re-announcing a known order is the lost-ORDER
			// recovery path; Unique marks held calls as seen long before
			// they execute, so "seen" alone doesn't mean executed).
			if !known && !isWaiting && fw.AlreadyExecuted(key) {
				return
			}

			if fw.totalLeader(m.Server) == fw.Self() {
				if !syncing {
					to.assign(fw, key, m.Server)
				}
				// While syncing, assignment is deferred; the follower
				// nudge timers re-deliver the call once the agreement
				// round is over.
			} else if isWaiting {
				fw.Net().Push(fw.totalLeader(m.Server), m)
			}
			// Unlike the paper, duplicates of already-executed calls are
			// NOT cancelled here: doing so (before Unique Execution's
			// handler) would suppress the retained-response resend that
			// recovers from a lost reply (deviation D8). The ordered
			// handler below drops them after Unique has had its chance.
		})

	b.On(event.MsgFromNetwork, "TotalOrder.msgFromNet", PrioOrder,
		func(o *event.Occurrence) {
			m := o.Arg.(*NetEvent).Msg
			st := to.st
			switch m.Type {
			case msg.OpCall:
				key := m.Key()
				st.mu.Lock()
				ord, ok := st.oldOrders[key]
				if !ok {
					st.waiting[key] = m
					st.mu.Unlock()
					o.OnCancel(func(*event.Occurrence) {
						st.mu.Lock()
						delete(st.waiting, key)
						st.mu.Unlock()
					})
					return
				}
				switch {
				case ord < st.nextEntry:
					st.mu.Unlock()
					o.Cancel()
				case ord == st.nextEntry:
					st.mu.Unlock()
					fw.ForwardUp(key, HoldTotal)
				default:
					st.ready[ord] = key
					st.mu.Unlock()
				}

			case msg.OpOrder:
				to.applyOrder(fw, m.Key(), m.Order)

			case msg.OpOrderQuery:
				// A new leader is collecting assignments: report ours.
				st.mu.Lock()
				payload := encodeOrders(st.oldOrders)
				st.mu.Unlock()
				fw.Net().Push(m.Sender, &msg.NetMsg{
					Type:   msg.OpOrderInfo,
					Server: m.Server,
					Sender: fw.Self(),
					Inc:    fw.Inc(),
					Args:   payload,
				})

			case msg.OpOrderInfo:
				// Merge a member's assignments; re-disseminate anything we
				// learned so every member converges on the merged table.
				reported := decodeOrders(m.Args)
				var learned []msg.CallKey
				st.mu.Lock()
				rejoining := st.rejoining
				for k, ord := range reported {
					if st.nextOrder < ord+1 {
						st.nextOrder = ord + 1
					}
					if rejoining && st.frontier < ord {
						st.frontier = ord
					}
					if _, ok := st.oldOrders[k]; !ok {
						st.oldOrders[k] = ord
						learned = append(learned, k)
					}
				}
				orders := make(map[msg.CallKey]int64, len(learned))
				for _, k := range learned {
					orders[k] = st.oldOrders[k]
				}
				st.mu.Unlock()
				for _, k := range learned {
					if rejoining {
						// The members that reported these still hold them
						// and answer nudges; only our held calls need them.
						to.applyOrder(fw, k, orders[k])
						continue
					}
					fw.Net().Multicast(m.Server, &msg.NetMsg{
						Type:   msg.OpOrder,
						ID:     k.ID,
						Client: k.Client,
						Server: m.Server,
						Sender: fw.Self(),
						Inc:    fw.Inc(),
						Order:  orders[k],
					})
					to.applyOrder(fw, k, orders[k])
				}
			}
		})

	b.On(event.ReplyFromServer, "TotalOrder.handleReply", PrioReplyBookkeep,
		func(o *event.Occurrence) {
			st := to.st
			st.mu.Lock()
			st.nextEntry++
			key, ok := st.ready[st.nextEntry]
			if ok {
				delete(st.ready, st.nextEntry)
			}
			st.mu.Unlock()
			if ok {
				fw.ForwardUp(key, HoldTotal)
			}
		})

	// A follower holding unordered calls periodically re-forwards them to
	// the current leader, recovering lost ORDER messages (and lost
	// leader-bound calls) without relying on client retransmission. The
	// re-arm goes through the binding, so the chain ends at Detach.
	var nudge event.Handler
	nudge = func(*event.Occurrence) {
		to.rejoinStep(fw, agreementDelay)
		st := to.st
		st.mu.Lock()
		var resend []*msg.NetMsg
		for _, m := range st.waiting {
			resend = append(resend, m)
		}
		st.mu.Unlock()
		for _, m := range resend {
			leader := fw.totalLeader(m.Server)
			if leader != 0 && leader != fw.Self() {
				fw.Net().Push(leader, m)
			}
		}
		b.After("TotalOrder.nudge", nudgeInterval, nudge)
	}
	b.After("TotalOrder.nudge", nudgeInterval, nudge)

	// A recovered member starts a rejoin (see the type comment). Recovery
	// is delivered before the endpoint comes up, so no call is ordered or
	// executed from the fresh state first.
	b.On(event.Recovery, "TotalOrder.rejoin", event.DefaultPriority,
		func(*event.Occurrence) {
			st := to.st
			st.mu.Lock()
			st.rejoining, st.syncing, st.nextEntry = true, true, 0
			st.mu.Unlock()
		})

	// Leader takeover with the agreement phase the paper omits (see the
	// type comment): the new leader first queries survivors for their
	// assignments, then — after AgreementDelay — assigns fresh numbers to
	// whatever is still unordered.
	b.On(event.MembershipChange, "TotalOrder.leaderChange", event.DefaultPriority,
		func(o *event.Occurrence) {
			c := o.Arg.(member.Change)
			if c.Kind != member.Failure {
				return
			}
			st := to.st
			st.mu.Lock()
			groups := make([]msg.Group, 0, len(st.groups))
			for _, g := range st.groups {
				groups = append(groups, g)
			}
			maxAssigned := int64(0)
			for _, ord := range st.oldOrders {
				if ord > maxAssigned {
					maxAssigned = ord
				}
			}
			if st.nextOrder <= maxAssigned {
				st.nextOrder = maxAssigned + 1
			}
			st.mu.Unlock()

			var leading []msg.Group
			for _, g := range groups {
				if g.Contains(c.Who) && fw.totalLeader(g) == fw.Self() {
					leading = append(leading, g)
				}
			}
			if len(leading) == 0 {
				return
			}

			// Agreement round: collect the survivors' order tables before
			// assigning anything new.
			st.mu.Lock()
			st.syncing = true
			st.mu.Unlock()
			to.query(fw, leading)
			b.After("TotalOrder.agreementDone", agreementDelay,
				func(*event.Occurrence) {
					st := to.st
					st.mu.Lock()
					st.syncing = st.rejoining
					st.mu.Unlock()
					to.assignWaiting(fw)
				})
		})

	return b.Err()
}

// query asks the members of each group for their order tables.
func (to *TotalOrder) query(fw *Framework, groups []msg.Group) {
	for _, g := range groups {
		fw.Net().Multicast(g, &msg.NetMsg{
			Type:   msg.OpOrderQuery,
			Server: g,
			Sender: fw.Self(),
			Inc:    fw.Inc(),
		})
	}
}

// assignWaiting gives a number to every held, unordered call of a group
// this member leads, unless an agreement round is still deferring
// assignments.
func (to *TotalOrder) assignWaiting(fw *Framework) {
	st := to.st
	st.mu.Lock()
	if st.syncing {
		st.mu.Unlock()
		return
	}
	var pending []*msg.NetMsg
	for _, m := range st.waiting {
		pending = append(pending, m)
	}
	st.mu.Unlock()
	for _, m := range pending {
		if fw.totalLeader(m.Server) == fw.Self() {
			to.assign(fw, m.Key(), m.Server)
		}
	}
}

// rejoinStep advances a recovered member's rejoin on each nudge tick: once
// a call has shown which groups it serves it queries them, and
// agreementDelay later it starts executing above the reported frontier,
// dropping the held calls below it. Driving the round from the nudge
// timer lets it survive a swap: the successor inherits the state and
// re-arms the timer.
func (to *TotalOrder) rejoinStep(fw *Framework, agreementDelay time.Duration) {
	st := to.st
	st.mu.Lock()
	if !st.rejoining || len(st.groups) == 0 {
		st.mu.Unlock()
		return
	}
	now := fw.Bus().Clock().Now()
	if st.rejoinAt.IsZero() {
		st.rejoinAt = now
		groups := make([]msg.Group, 0, len(st.groups))
		for _, g := range st.groups {
			groups = append(groups, g)
		}
		st.mu.Unlock()
		to.query(fw, groups)
		return
	}
	if now.Sub(st.rejoinAt) < agreementDelay {
		st.mu.Unlock()
		return
	}
	st.rejoining, st.syncing = false, false
	st.nextEntry = st.frontier + 1 // ORDER_INFO already lifted nextOrder past it
	var drop []msg.CallKey
	for ord, key := range st.ready {
		if ord < st.nextEntry {
			drop = append(drop, key)
			delete(st.ready, ord)
		}
	}
	next, release := st.ready[st.nextEntry]
	delete(st.ready, st.nextEntry)
	st.mu.Unlock()
	for _, key := range drop {
		fw.DropServerCall(key)
	}
	if release {
		fw.ForwardUp(next, HoldTotal)
	}
	to.assignWaiting(fw)
}

// Detach implements MicroProtocol.
func (to *TotalOrder) Detach(fw *Framework) {
	to.b.Detach()
	fw.ClearHold(HoldTotal)
}
