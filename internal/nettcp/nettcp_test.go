package nettcp

import (
	"bufio"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/binary"
	"math/big"
	"net"
	"sync"
	"testing"
	"time"

	"mrpc/internal/clock"
	"mrpc/internal/msg"
	"mrpc/internal/transport"
)

// collector accumulates delivered messages for one endpoint.
type collector struct {
	mu   sync.Mutex
	msgs []*msg.NetMsg
}

func (c *collector) handle(m *msg.NetMsg) {
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.mu.Unlock()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func attach(t *testing.T, tr *Transport, id msg.ProcID) (transport.Endpoint, *collector) {
	t.Helper()
	c := &collector{}
	ep, err := tr.Attach(id, c.handle)
	if err != nil {
		t.Fatal(err)
	}
	return ep, c
}

func call(id msg.CallID) *msg.NetMsg {
	return &msg.NetMsg{Type: msg.OpCall, ID: id, Client: 1, Sender: 1}
}

// waitFor polls cond until it holds or the deadline passes. Unlike netsim,
// a TCP transport cannot Quiesce across the socket: a written frame is in
// the kernel, not yet in the peer's handler.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// reservePort grabs a free loopback port and releases it, so a test can
// hand a fixed address to two successive transports (restart scenarios).
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestPushDelivery(t *testing.T) {
	tr := New(clock.NewReal(), Options{})
	defer tr.Stop()
	a, _ := attach(t, tr, 1)
	_, cb := attach(t, tr, 2)

	for i := 0; i < 10; i++ {
		a.Push(2, call(msg.CallID(i)))
	}
	waitFor(t, "10 deliveries", func() bool { return cb.count() == 10 })
	st := tr.Stats()
	if st.Sent != 10 || st.Delivered != 10 {
		t.Fatalf("stats = %+v", st)
	}
	if eg := a.Stats().Egress; eg != 10 {
		t.Fatalf("egress = %d, want 10", eg)
	}
}

func TestMulticastSharesOneEncodingAndSelfDelivers(t *testing.T) {
	tr := New(clock.NewReal(), Options{})
	defer tr.Stop()
	a, ca := attach(t, tr, 1)
	_, cb := attach(t, tr, 2)
	_, cc := attach(t, tr, 3)

	m := call(7)
	m.Args = []byte("payload")
	a.Multicast(msg.Group{1, 2, 3}, m)
	waitFor(t, "multicast delivery", func() bool {
		return ca.count() == 1 && cb.count() == 1 && cc.count() == 1
	})
	if !m.Frozen() {
		t.Fatal("multicast did not freeze the message")
	}
	// Self-delivery is excluded from egress: a loopback push costs the
	// sender nothing on a real NIC.
	if eg := a.Stats().Egress; eg != 2 {
		t.Fatalf("egress = %d, want 2", eg)
	}
	ca.mu.Lock()
	got := ca.msgs[0]
	ca.mu.Unlock()
	if got == m {
		t.Fatal("self-delivery bypassed the codec round-trip")
	}
	if string(got.Args) != "payload" {
		t.Fatalf("self-delivered args = %q", got.Args)
	}
}

// TestReconnectAfterRestart is the handshake/reconnect state machine's
// core scenario: the destination process dies (its transport stops), comes
// back on the same address under a new transport instance, and the
// sender's writer thread re-establishes the link — counting a reconnect —
// with no action from the caller. Frames sent while the peer is down are
// simply lost (legal substrate loss).
func TestReconnectAfterRestart(t *testing.T) {
	addr2 := reservePort(t)
	clk := clock.NewReal()
	sender := New(clk, Options{
		Peers:    map[msg.ProcID]string{2: addr2},
		RetryMin: 5 * time.Millisecond,
		RetryMax: 20 * time.Millisecond,
	})
	defer sender.Stop()
	a, _ := attach(t, sender, 1)

	receiver := New(clk, Options{Peers: map[msg.ProcID]string{2: addr2}})
	_, cb := attach(t, receiver, 2)
	a.Push(2, call(1))
	waitFor(t, "pre-restart delivery", func() bool { return cb.count() == 1 })

	receiver.Stop() // the member restarts

	receiver2 := New(clk, Options{Peers: map[msg.ProcID]string{2: addr2}})
	defer receiver2.Stop()
	_, cb2 := attach(t, receiver2, 2)

	// Keep offering frames: those hitting the dead window drop, then the
	// writer redials and traffic flows again.
	waitFor(t, "post-restart delivery", func() bool {
		a.Push(2, call(2))
		return cb2.count() > 0
	})
	if rc := sender.Stats().Reconnects; rc < 1 {
		t.Fatalf("reconnects = %d, want >= 1", rc)
	}
}

// TestHandshakeRejectsWrongProcess: a stale peer map points id 2 at an
// address where process 3 actually listens. The dialer must refuse the
// link at handshake time — nothing may be delivered to the wrong process.
func TestHandshakeRejectsWrongProcess(t *testing.T) {
	wrong := New(clock.NewReal(), Options{})
	defer wrong.Stop()
	_, cw := attach(t, wrong, 3)
	wrongAddr := wrong.Addr(3)

	sender := New(clock.NewReal(), Options{
		Peers:    map[msg.ProcID]string{2: wrongAddr},
		RetryMin: time.Millisecond,
		RetryMax: 5 * time.Millisecond,
	})
	defer sender.Stop()
	a, _ := attach(t, sender, 1)

	a.Push(2, call(1))
	waitFor(t, "handshake rejection drop", func() bool { return sender.Stats().Dropped >= 1 })
	if cw.count() != 0 {
		t.Fatal("frame delivered to the wrong process")
	}
}

func TestCorruptInboundFrameClosesConnNeverPanics(t *testing.T) {
	tr := New(clock.NewReal(), Options{MaxFrame: 1 << 16})
	defer tr.Stop()
	_, cb := attach(t, tr, 2)

	dialRaw := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", tr.Addr(2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(appendHandshake(nil, 99)); err != nil {
			t.Fatal(err)
		}
		if _, err := readHandshake(c); err != nil {
			t.Fatal(err)
		}
		return c
	}

	expectClosed := func(c net.Conn) {
		t.Helper()
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 1)
		if _, err := c.Read(buf); err == nil {
			t.Fatal("connection still open after poison frame")
		}
		c.Close()
	}

	// Oversized length prefix: rejected before allocation, conn closed.
	c := dialRaw()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<20)
	c.Write(hdr[:])
	expectClosed(c)

	// Well-framed garbage: codec error, conn closed, no panic.
	c = dialRaw()
	w := bufio.NewWriter(c)
	writeFrame(w, []byte{0xde, 0xad, 0xbe, 0xef})
	w.Flush()
	expectClosed(c)

	if cb.count() != 0 {
		t.Fatal("garbage was delivered")
	}
}

func selfSignedTLS(t *testing.T) (server, client *tls.Config) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: "mrpcnode"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(time.Hour),
		IPAddresses:  []net.IP{net.IPv4(127, 0, 0, 1)},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(leaf)
	cert := tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key, Leaf: leaf}
	server = &tls.Config{Certificates: []tls.Certificate{cert}}
	client = &tls.Config{RootCAs: pool} // verified against the 127.0.0.1 IP SAN
	return server, client
}

func TestTLSRoundTrip(t *testing.T) {
	server, client := selfSignedTLS(t)
	tr := New(clock.NewReal(), Options{ServerTLS: server, ClientTLS: client})
	defer tr.Stop()
	a, _ := attach(t, tr, 1)
	_, cb := attach(t, tr, 2)

	m := call(5)
	m.Args = []byte("secret")
	a.Push(2, m)
	waitFor(t, "TLS delivery", func() bool { return cb.count() == 1 })
	cb.mu.Lock()
	got := cb.msgs[0]
	cb.mu.Unlock()
	if string(got.Args) != "secret" {
		t.Fatalf("args = %q", got.Args)
	}
}

// TestStopWithDeadPeerDoesNotHang: frames queued toward an unreachable
// address must not wedge Stop or Quiesce — the dial-failure path drains
// the queue and retires every flight count.
func TestStopWithDeadPeerDoesNotHang(t *testing.T) {
	dead := reservePort(t)
	tr := New(clock.NewReal(), Options{
		Peers:       map[msg.ProcID]string{9: dead},
		DialTimeout: 100 * time.Millisecond,
		RetryMin:    5 * time.Millisecond,
	})
	a, _ := attach(t, tr, 1)
	for i := 0; i < 50; i++ {
		a.Push(9, call(msg.CallID(i)))
	}
	done := make(chan struct{})
	go func() {
		tr.Quiesce()
		tr.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Stop hung on a dead peer's backlog")
	}
}

// TestBatchFramesTravel pins that OpBatch frames — the flusher's one-frame
// -per-destination optimisation — cross the socket intact and are counted.
func TestBatchFramesTravel(t *testing.T) {
	tr := New(clock.NewReal(), Options{})
	defer tr.Stop()
	a, _ := attach(t, tr, 1)
	_, cb := attach(t, tr, 2)

	inner1 := call(1)
	inner2 := call(2)
	batch := msg.NewBatch(1, []*msg.NetMsg{inner1, inner2})
	a.Push(2, batch)
	waitFor(t, "batch delivery", func() bool { return cb.count() == 1 })
	if st := tr.Stats(); st.Batches != 1 {
		t.Fatalf("batches = %d, want 1", st.Batches)
	}
	cb.mu.Lock()
	got := cb.msgs[0]
	cb.mu.Unlock()
	subs := got.Batch
	if len(subs) != 2 || subs[0].ID != 1 || subs[1].ID != 2 {
		t.Fatalf("batch decoded to %d subs", len(subs))
	}
}
