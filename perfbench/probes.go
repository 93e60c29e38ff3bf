package main

import (
	"sync"
	"sync/atomic"
	"time"

	"mrpc/internal/event"
	"mrpc/internal/msg"
	"mrpc/internal/trace"
)

// sampleMask selects the calls whose frames and trace events are kept in
// memory (ids with these low bits clear: one call in sixteen). Counters
// cover every call; only per-call maps and spans are sampled, to bound the
// traced run's memory and cost.
const sampleMask = 15

func sampled(id msg.CallID) bool { return id&sampleMask == 0 }

// captureEvery and captureMax bound the frame sample kept for the codec
// replay.
const (
	captureEvery = 32
	captureMax   = 2048
)

// probes gathers the per-layer measurements of one system. Every hook
// checks on first, so a system whose probes stay off pays one atomic load
// per frame and per handler.
type probes struct {
	on    atomic.Bool
	epoch time.Time

	// Transport seam (tap.go), counted per destination frame.
	frames, msgs, batchMsgs, bytes               atomic.Int64
	sendNs, originFrames, relayFrames, orderMsgs atomic.Int64
	recvFrames, recvNs                           atomic.Int64

	// Event bus handler time and invocations, indexed by event.Type.
	evNs, evN [event.Timeout + 1]atomic.Int64

	// Server app and stub.
	execs, execNs, unmarshals, unmarshalNs, marshals, marshalNs atomic.Int64

	dupDropped atomic.Int64

	mu           sync.Mutex
	seenFrames   int
	sendAt       map[frameKey][]int64
	transitUs    []float64
	callSends    map[callDest]int32
	retransCalls map[msg.CallKey]struct{}
	retrans      int
	capture      [][]byte
	spans        map[spanKey]*span
	pendClient   []float64
	pendServer   []float64
}

func newProbes(epoch time.Time) *probes {
	return &probes{
		epoch:        epoch,
		sendAt:       make(map[frameKey][]int64),
		callSends:    make(map[callDest]int32),
		retransCalls: make(map[msg.CallKey]struct{}),
		spans:        make(map[spanKey]*span),
	}
}

// now returns nanoseconds since the run's epoch on the monotonic clock.
func (p *probes) now() int64 { return int64(time.Since(p.epoch)) }

// frameKey matches a frame's send to its arrival: (type, client, call id,
// sender, destination), taken from the first sub-message of a batch.
type frameKey struct {
	typ, sub     msg.NetOp
	client, from msg.ProcID
	to           msg.ProcID
	id, ack      msg.CallID
}

func keyOf(m *msg.NetMsg, to msg.ProcID) frameKey {
	k := frameKey{typ: m.Type, from: m.Sender, to: to}
	h := m
	if m.Type == msg.OpBatch && len(m.Batch) > 0 {
		h = m.Batch[0]
		k.sub = h.Type
	}
	k.client, k.id, k.ack = h.Client, h.ID, h.AckID
	return k
}

type callDest struct {
	key msg.CallKey
	to  msg.ProcID
}

// subs calls f for m itself, or for each sub-message of a batch frame.
func subs(m *msg.NetMsg, f func(*msg.NetMsg)) {
	if m.Type != msg.OpBatch {
		f(m)
		return
	}
	for _, s := range m.Batch {
		f(s)
	}
}

// sent classifies one frame offered by endpoint from toward to.
func (p *probes) sent(from, to msg.ProcID, m *msg.NetMsg, at int64) {
	p.frames.Add(1)
	p.bytes.Add(int64(m.EncodedLen()))
	if from >= clientBase {
		p.originFrames.Add(1)
	}
	if m.Relay > 0 && m.Sender != from {
		p.relayFrames.Add(1)
	}
	if m.Type == msg.OpBatch {
		p.batchMsgs.Add(int64(len(m.Batch)))
		p.msgs.Add(int64(len(m.Batch)))
	} else {
		p.msgs.Add(1)
	}
	k := keyOf(m, to)
	p.mu.Lock()
	defer p.mu.Unlock()
	subs(m, func(s *msg.NetMsg) {
		switch {
		case s.Type == msg.OpOrder:
			p.orderMsgs.Add(1)
		case s.Type == msg.OpCall && sampled(s.ID):
			cd := callDest{key: s.Key(), to: to}
			p.callSends[cd]++
			if p.callSends[cd] > 1 {
				p.retrans++
			}
			p.retransCalls[s.Key()] = struct{}{}
		}
	})
	if sampled(k.id ^ k.ack) {
		p.sendAt[k] = append(p.sendAt[k], at)
	}
	p.seenFrames++
	if p.seenFrames%captureEvery == 0 && len(p.capture) < captureMax {
		p.capture = append(p.capture, m.AppendEncode(nil))
	}
}

// received matches a delivered frame to its oldest unmatched send.
func (p *probes) received(to msg.ProcID, m *msg.NetMsg, at int64) {
	k := keyOf(m, to)
	if !sampled(k.id ^ k.ack) {
		return
	}
	p.mu.Lock()
	if q := p.sendAt[k]; len(q) > 0 {
		p.transitUs = append(p.transitUs, float64(at-q[0])/1e3)
		if len(q) == 1 {
			delete(p.sendAt, k)
		} else {
			p.sendAt[k] = q[1:]
		}
	}
	p.mu.Unlock()
}

// observe is the event-bus Observer: handler time per event type.
func (p *probes) observe(ev event.Type, _ string, d time.Duration, _ bool) {
	if !p.on.Load() || ev < 0 || int(ev) >= len(p.evNs) {
		return
	}
	p.evNs[ev].Add(int64(d))
	p.evN[ev].Add(1)
}

// samplePending records the client and server call-table depths.
func (p *probes) samplePending(client, server int) {
	p.mu.Lock()
	p.pendClient = append(p.pendClient, float64(client))
	p.pendServer = append(p.pendServer, float64(server))
	p.mu.Unlock()
}

// maxServers bounds the server ids a span can track (ids 1..maxServers-1).
const maxServers = 16

// spanKey identifies a call by client and the per-incarnation sequence in
// the low half of its id, which the closed-loop generator knows without
// seeing the id itself.
type spanKey struct {
	client msg.ProcID
	seq    uint32
}

func keyFor(client msg.ProcID, id msg.CallID) spanKey {
	return spanKey{client: client, seq: uint32(id)}
}

// span holds the timestamps (ns since epoch) of one sampled call: taken by
// the generator (call, ret) and by the trace sink on each event's arrival.
type span struct {
	call, issue, done, ret int64
	execB, execE, acc      [maxServers]int64
	last                   msg.ProcID // server whose reply was accepted last
}

func (p *probes) spanFor(k spanKey) *span {
	s := p.spans[k]
	if s == nil {
		s = &span{}
		p.spans[k] = s
	}
	return s
}

// callTimes records a sampled call's entry (or, open loop, its intended
// send time) and its return (or completion).
func (p *probes) callTimes(client msg.ProcID, id msg.CallID, call, ret int64) {
	p.mu.Lock()
	s := p.spanFor(keyFor(client, id))
	s.call, s.ret = call, ret
	p.mu.Unlock()
}

// Record implements trace.Sink: it timestamps the call-path events of the
// sampled calls on arrival and counts duplicate drops.
func (p *probes) Record(e trace.Event) {
	if !p.on.Load() {
		return
	}
	switch e.Kind {
	case trace.KDupDropped:
		p.dupDropped.Add(1)
		return
	case trace.KCallIssued, trace.KCallDone, trace.KReplyAccepted, trace.KExecBegin, trace.KExecEnd:
	default:
		return
	}
	if !sampled(e.ID) {
		return
	}
	at := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.spanFor(keyFor(e.Client, e.ID))
	switch e.Kind {
	case trace.KCallIssued:
		s.issue = at
	case trace.KCallDone:
		s.done = at
	case trace.KReplyAccepted:
		if e.From > 0 && e.From < maxServers {
			s.acc[e.From] = at
			s.last = e.From
		}
	case trace.KExecBegin:
		if e.Site > 0 && e.Site < maxServers {
			s.execB[e.Site] = at
		}
	case trace.KExecEnd:
		if e.Site > 0 && e.Site < maxServers {
			s.execE[e.Site] = at
		}
	}
}

// stages splits a complete span into consecutive stages along the server
// whose reply completed the call; ok is false for an incomplete span.
// The stages tile the call exactly: they sum to ret - call.
func (s *span) stages() (st [len(stageNames)]float64, ok bool) {
	srv := s.last
	if s.call == 0 || s.issue == 0 || s.done == 0 || s.ret == 0 || srv == 0 ||
		s.execB[srv] == 0 || s.execE[srv] == 0 || s.acc[srv] == 0 {
		return st, false
	}
	ts := [...]int64{s.call, s.issue, s.execB[srv], s.execE[srv], s.acc[srv], s.done, s.ret}
	for i := range st {
		st[i] = float64(ts[i+1]-ts[i]) / 1e3
	}
	return st, true
}

// stageNames are the span stages in call order.
var stageNames = [...]string{"call_to_issue", "issue_to_exec", "exec", "exec_to_accept", "accept_to_done", "done_to_return"}
