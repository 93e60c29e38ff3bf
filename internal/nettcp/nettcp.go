// Package nettcp is the real-socket implementation of the transport seam:
// TCP (TLS-optional) carrying the same length-framed wire encoding the
// simulator round-trips with EncodeOnWire, between endpoints that may live
// in different OS processes.
//
// The substrate contract is deliberately weak (see package transport): a
// frame may be lost whenever a connection is down, a queue is full, or a
// write fails mid-stream, and nettcp makes no attempt to hide that —
// reliability, ordering and termination belong to the micro-protocols
// above the seam. What nettcp does own is connection management: each
// endpoint keeps one outbound connection per peer, established lazily by a
// dedicated writer thread that redials with exponential backoff and
// re-verifies the magic/version/ProcID handshake on every (re)connect, so
// a restarted peer is picked up without any action from the protocols.
//
// Every endpoint listens (on the address the static peer map assigns it,
// or an ephemeral loopback port when the map has none), so a single
// Transport can host a whole group in-process over real loopback sockets —
// the shape the cross-transport conformance tests use — or exactly one
// endpoint per production process. Handler and up state, in-flight
// accounting and delivery are the endpoint core shared with netsim
// (transport.Core): an arrival never waits behind another arrival's
// blocked handler. nettcp adds only listeners, the handshake, framing,
// peers and reconnects. All goroutines are spawned through internal/proc,
// and time is only observed through the injected clock (which must advance
// in real time — socket I/O does not simulate).
package nettcp

import (
	"bufio"
	"crypto/tls"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mrpc/internal/clock"
	"mrpc/internal/msg"
	"mrpc/internal/proc"
	"mrpc/internal/transport"
)

var (
	_ transport.Transport = (*Transport)(nil)
	_ transport.Endpoint  = (*Endpoint)(nil)
)

// Options configures a Transport.
type Options struct {
	// Peers maps process ids to "host:port" listen/dial addresses — the
	// shared static membership map of the deployment. An attached id with
	// no entry listens on an ephemeral loopback port (in-process tests);
	// a destination with no entry (and no local attachment) is counted as
	// a DownDrop.
	Peers map[msg.ProcID]string
	// ServerTLS, when non-nil, wraps every listener; ClientTLS, when
	// non-nil, wraps every dialed connection. Set both (or neither) on
	// every member of a group.
	ServerTLS *tls.Config
	ClientTLS *tls.Config
	// DialTimeout bounds one connect + handshake attempt. Default 2s.
	DialTimeout time.Duration
	// RetryMin and RetryMax bound the writer's exponential redial backoff
	// after a failed connect. Defaults 25ms and 500ms.
	RetryMin, RetryMax time.Duration
	// QueueDepth is the per-peer outbound frame queue; a full queue drops
	// the frame (legal substrate loss). Default 256.
	QueueDepth int
	// MaxFrame bounds an inbound frame's declared length; a larger length
	// prefix closes the connection before any allocation. Default 16 MiB.
	MaxFrame int
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.RetryMin <= 0 {
		o.RetryMin = 25 * time.Millisecond
	}
	if o.RetryMax < o.RetryMin {
		o.RetryMax = 500 * time.Millisecond
		if o.RetryMax < o.RetryMin {
			o.RetryMax = o.RetryMin
		}
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = defaultMaxFrame
	}
	return o
}

// Transport is a TCP transport instance: a factory of listening endpoints
// sharing one peer map and one set of counters.
type Transport struct {
	clk  clock.Clock
	opts Options

	mu      sync.Mutex
	eps     map[msg.ProcID]*Endpoint
	addrs   map[msg.ProcID]string // peer map + auto-listen actual addresses
	stopped bool

	// ledger holds the shared counters and the in-flight count. Each
	// admitted delivery — a queued outbound frame, a decoded inbound
	// frame, a self-delivery — is counted under mu (send side) or before
	// dispatch (receive side) and retired when the frame leaves our hands:
	// written to a socket, dropped, or handed to a handler that returned.
	ledger     transport.Ledger
	reconnects atomic.Int64
}

// New creates a TCP transport using clk for backoff and deadline timing.
// clk must advance in real time (clock.NewReal or a tick-driven hybrid):
// socket I/O cannot be simulated forward.
func New(clk clock.Clock, o Options) *Transport {
	o = o.withDefaults()
	t := &Transport{
		clk:   clk,
		opts:  o,
		eps:   make(map[msg.ProcID]*Endpoint),
		addrs: make(map[msg.ProcID]string, len(o.Peers)),
	}
	for id, addr := range o.Peers {
		t.addrs[id] = addr
	}
	return t
}

// Addr returns the address process id listens on: the peer-map entry, or
// the actual ephemeral address once the id is attached locally. Empty when
// unknown.
func (t *Transport) Addr(id msg.ProcID) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addrs[id]
}

// Endpoint is one process's attachment point on the TCP transport: the
// shared endpoint core plus a listener for inbound traffic and one
// lazily-created writer thread per outbound peer. A down endpoint's
// listener keeps accepting, so bringing it back up needs no reconnect.
type Endpoint struct {
	transport.Core
	tr *Transport

	// Outbound peer links, created on first send to each destination.
	pmu      sync.Mutex
	peers    map[msg.ProcID]*peer
	ioClosed bool

	// Inbound connections, tracked so Stop can unblock their readers.
	connsMu sync.Mutex
	conns   map[net.Conn]struct{}

	ln       net.Listener
	acceptTh *proc.Thread
}

// Attach starts listening for process id and returns its endpoint. The
// listen address comes from Options.Peers; absent an entry the endpoint
// binds an ephemeral loopback port and records it so other local endpoints
// can reach it. Attaching an id twice is an error.
func (t *Transport) Attach(id msg.ProcID, h transport.Handler) (transport.Endpoint, error) {
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		return nil, fmt.Errorf("nettcp: transport stopped")
	}
	if _, ok := t.eps[id]; ok {
		t.mu.Unlock()
		return nil, fmt.Errorf("nettcp: process %d already attached", id)
	}
	addr := t.addrs[id]
	t.mu.Unlock()

	auto := addr == ""
	if auto {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("nettcp: listen for process %d: %w", id, err)
	}
	if t.opts.ServerTLS != nil {
		ln = tls.NewListener(ln, t.opts.ServerTLS)
	}

	e := &Endpoint{
		tr:    t,
		peers: make(map[msg.ProcID]*peer),
		conns: make(map[net.Conn]struct{}),
		ln:    ln,
	}
	e.Init(&t.ledger, id, h)
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		ln.Close()
		return nil, fmt.Errorf("nettcp: transport stopped")
	}
	if _, ok := t.eps[id]; ok {
		t.mu.Unlock()
		ln.Close()
		return nil, fmt.Errorf("nettcp: process %d already attached", id)
	}
	t.eps[id] = e
	if auto {
		t.addrs[id] = ln.Addr().String()
	}
	t.mu.Unlock()

	e.acceptTh = proc.Go(func(*proc.Thread) { e.runAccept(ln) })
	return e, nil
}

// Push sends m to a single destination. The message is frozen and encoded
// once; a relayed frame forwards its shared wire bytes (D17) without
// re-encoding, exactly as the simulator does with EncodeOnWire.
func (e *Endpoint) Push(to msg.ProcID, m *msg.NetMsg) {
	e.Multicast(msg.Group{to}, m)
}

// Multicast sends m to every member of the group, including the sender's
// own process when it is a member. The group is admitted under one
// critical section and every destination shares the one wire encoding.
func (e *Endpoint) Multicast(group msg.Group, m *msg.NetMsg) {
	if !e.Prepare(m) {
		return
	}
	var planBuf [8]msg.ProcID
	remote := planBuf[:0]
	self := false
	t := e.tr
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		return
	}
	for _, to := range group {
		e.Offer(to)
		switch {
		case to == e.ID():
			self = true
		case t.addrs[to] == "":
			t.ledger.DownDrops.Add(1)
		default:
			remote = append(remote, to)
		}
	}
	k := len(remote)
	if self {
		k++
	}
	t.ledger.Admit(k)
	t.mu.Unlock()
	if k == 0 {
		return
	}
	f := transport.Encode(m, true)
	for _, to := range remote {
		e.enqueue(to, f.Wire)
	}
	if self {
		// No socket, but the frame still round-trips the codec (decoded on
		// the delivering worker), so a self-delivery observes exactly what
		// a remote would.
		e.Dispatch(f)
	}
}

// enqueue hands an admitted frame to the destination's writer thread. A
// full queue or a closing link drops the frame — legal substrate loss.
func (e *Endpoint) enqueue(to msg.ProcID, wire []byte) {
	p := e.peerFor(to)
	if p == nil {
		e.tr.ledger.Drop()
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		e.tr.ledger.Drop()
		return
	}
	select {
	case p.q <- wire:
		p.mu.Unlock()
	default:
		p.mu.Unlock()
		e.tr.ledger.Drop()
	}
}

// peerFor returns (lazily creating) the writer link toward to, or nil when
// the endpoint's I/O is shutting down.
func (e *Endpoint) peerFor(to msg.ProcID) *peer {
	e.pmu.Lock()
	defer e.pmu.Unlock()
	if e.ioClosed {
		return nil
	}
	if p, ok := e.peers[to]; ok {
		return p
	}
	p := &peer{to: to, q: make(chan []byte, e.tr.opts.QueueDepth)}
	p.th = proc.Go(func(th *proc.Thread) { e.runPeer(p, th) })
	e.peers[to] = p
	return p
}

// runAccept accepts inbound connections until the listener closes.
func (e *Endpoint) runAccept(ln net.Listener) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		if !e.trackConn(c) {
			c.Close()
			return
		}
		proc.Go(func(*proc.Thread) { e.runReader(c) })
	}
}

func (e *Endpoint) trackConn(c net.Conn) bool {
	e.connsMu.Lock()
	defer e.connsMu.Unlock()
	if e.conns == nil {
		return false
	}
	e.conns[c] = struct{}{}
	return true
}

func (e *Endpoint) untrackConn(c net.Conn) {
	e.connsMu.Lock()
	if e.conns != nil {
		delete(e.conns, c)
	}
	e.connsMu.Unlock()
}

// runReader serves one inbound connection: answer the handshake, then
// decode and dispatch frames until the stream ends. Any framing, codec, or
// handshake error closes the connection — never a panic: these bytes come
// from another process.
func (e *Endpoint) runReader(c net.Conn) {
	defer e.untrackConn(c)
	defer c.Close()
	c.SetDeadline(e.tr.clk.Now().Add(e.tr.opts.DialTimeout))
	br := bufio.NewReader(c)
	if _, err := readHandshake(br); err != nil {
		return
	}
	if _, err := c.Write(appendHandshake(make([]byte, 0, handshakeLen), e.ID())); err != nil {
		return
	}
	c.SetDeadline(time.Time{})
	for {
		wire, err := readFrame(br, e.tr.opts.MaxFrame)
		if err != nil {
			return
		}
		m, err := msg.DecodeShared(wire)
		if err != nil {
			return
		}
		e.tr.ledger.Admit(1)
		e.Dispatch(transport.Frame{M: m})
	}
}

// Stats returns a snapshot of the transport counters.
func (t *Transport) Stats() transport.Stats {
	s := t.ledger.Stats()
	s.Reconnects = t.reconnects.Load()
	return s
}

// Quiesce waits until no locally observable delivery work remains: queued
// outbound frames, decoded inbound frames, running handlers. A frame
// already written to a socket is done from this side's point of view;
// cross-process callers poll protocol state on top (see transport.Quiesce).
func (t *Transport) Quiesce() { t.ledger.Quiesce() }

// Stop shuts the transport down: listeners close, writer threads are
// reaped (their queued frames retired as drops), inbound connections are
// closed, in-flight deliveries finish, and the worker pools are retired.
// Further sends are silently discarded.
func (t *Transport) Stop() {
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		t.ledger.Quiesce()
		return
	}
	t.stopped = true
	eps := make([]*Endpoint, 0, len(t.eps))
	for _, e := range t.eps {
		eps = append(eps, e)
	}
	t.mu.Unlock()

	for _, e := range eps {
		e.shutdownIO()
	}
	t.ledger.Quiesce()
	for _, e := range eps {
		e.Retire()
	}
}

// shutdownIO tears down an endpoint's socket machinery: the listener and
// accept loop, every peer writer (killed, its connection closed to unblock
// a stuck write, then its queue drained so each admitted frame's flight
// count is retired), and every tracked inbound connection.
func (e *Endpoint) shutdownIO() {
	e.ln.Close()
	if e.acceptTh != nil {
		<-e.acceptTh.Done()
	}

	e.pmu.Lock()
	e.ioClosed = true
	peers := make([]*peer, 0, len(e.peers))
	for _, p := range e.peers {
		peers = append(peers, p)
	}
	e.pmu.Unlock()
	for _, p := range peers {
		p.shutdown()
		p.th.Kill()
	}
	for _, p := range peers {
		<-p.th.Done()
		for {
			select {
			case <-p.q:
				e.tr.ledger.Drop()
			default:
				goto drained
			}
		}
	drained:
	}

	e.connsMu.Lock()
	conns := make([]net.Conn, 0, len(e.conns))
	for c := range e.conns {
		conns = append(conns, c)
	}
	e.conns = nil
	e.connsMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}
