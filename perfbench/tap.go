package main

import (
	"sync"
	"sync/atomic"

	"mrpc/internal/msg"
	"mrpc/internal/transport"
)

// tapNet decorates a transport so the benchmark can time and count the
// frames crossing the seam without touching the program: Push and
// Multicast are timed and their frames classified on the way down, and the
// handler each node installs is wrapped so the composite's receive path
// (unbatch plus dispatch) is timed on the way up. While the probes are off
// it only forwards, apart from the per-endpoint afterRecv hook the
// open-loop generator uses to stamp completions.
type tapNet struct {
	inner transport.Transport
	p     *probes

	mu  sync.Mutex
	eps map[msg.ProcID]*tapEndpoint
}

var (
	_ transport.Transport = (*tapNet)(nil)
	_ transport.Endpoint  = (*tapEndpoint)(nil)
)

func newTap(inner transport.Transport, p *probes) *tapNet {
	return &tapNet{inner: inner, p: p, eps: make(map[msg.ProcID]*tapEndpoint)}
}

func (t *tapNet) Attach(id msg.ProcID, h transport.Handler) (transport.Endpoint, error) {
	e := &tapEndpoint{id: id, p: t.p}
	inner, err := t.inner.Attach(id, e.wrap(h))
	if err != nil {
		return nil, err
	}
	e.inner = inner
	t.mu.Lock()
	t.eps[id] = e
	t.mu.Unlock()
	return e, nil
}

func (t *tapNet) Stats() transport.Stats { return t.inner.Stats() }
func (t *tapNet) Quiesce()               { t.inner.Quiesce() }
func (t *tapNet) Stop()                  { t.inner.Stop() }

// endpoint returns the decorated endpoint attached for id, or nil.
func (t *tapNet) endpoint(id msg.ProcID) *tapEndpoint {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.eps[id]
}

// endpoints returns every decorated endpoint.
func (t *tapNet) endpoints() []*tapEndpoint {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*tapEndpoint, 0, len(t.eps))
	for _, e := range t.eps {
		out = append(out, e)
	}
	return out
}

type tapEndpoint struct {
	inner transport.Endpoint
	id    msg.ProcID
	p     *probes

	// afterRecv, when set, runs after the node's handler has returned for
	// a delivered frame.
	afterRecv atomic.Pointer[func(*msg.NetMsg)]
}

func (e *tapEndpoint) ID() msg.ProcID                 { return e.id }
func (e *tapEndpoint) SetUp(up bool)                  { e.inner.SetUp(up) }
func (e *tapEndpoint) Up() bool                       { return e.inner.Up() }
func (e *tapEndpoint) Stats() transport.EndpointStats { return e.inner.Stats() }
func (e *tapEndpoint) SetHandler(h transport.Handler) { e.inner.SetHandler(e.wrap(h)) }

func (e *tapEndpoint) wrap(h transport.Handler) transport.Handler {
	if h == nil {
		return nil
	}
	return func(m *msg.NetMsg) {
		if e.p.on.Load() {
			t0 := e.p.now()
			e.p.received(e.id, m, t0)
			h(m)
			e.p.recvNs.Add(e.p.now() - t0)
			e.p.recvFrames.Add(1)
		} else {
			h(m)
		}
		if f := e.afterRecv.Load(); f != nil {
			(*f)(m)
		}
	}
}

func (e *tapEndpoint) Push(to msg.ProcID, m *msg.NetMsg) {
	if !e.p.on.Load() {
		e.inner.Push(to, m)
		return
	}
	e.p.sent(e.id, to, m, e.p.now())
	t0 := e.p.now()
	e.inner.Push(to, m)
	e.p.sendNs.Add(e.p.now() - t0)
}

func (e *tapEndpoint) Multicast(group msg.Group, m *msg.NetMsg) {
	if !e.p.on.Load() {
		e.inner.Multicast(group, m)
		return
	}
	stamp := e.p.now()
	for _, to := range group {
		e.p.sent(e.id, to, m, stamp)
	}
	t0 := e.p.now()
	e.inner.Multicast(group, m)
	e.p.sendNs.Add(e.p.now() - t0)
}
