package netsim

import (
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

func attach(t *testing.T, n *Network, id msg.ProcID) (transport.Endpoint, *collector) {
	t.Helper()
	c := &collector{}
	ep, err := n.Attach(id, c.handle)
	if err != nil {
		t.Fatal(err)
	}
	return ep, c
}

func call(id msg.CallID) *msg.NetMsg {
	return &msg.NetMsg{Type: msg.OpCall, ID: id, Client: 1, Sender: 1}
}

func TestPerfectDelivery(t *testing.T) {
	n := New(clock.NewReal(), Params{})
	defer n.Stop()
	a, _ := attach(t, n, 1)
	_, cb := attach(t, n, 2)

	for i := 0; i < 10; i++ {
		a.Push(2, call(msg.CallID(i)))
	}
	n.Quiesce()
	if cb.count() != 10 {
		t.Fatalf("delivered %d, want 10", cb.count())
	}
	st := n.Stats()
	if st.Sent != 10 || st.Delivered != 10 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSendFreezesAndShares pins the D13 contract: the transport does not
// clone per destination — every recipient shares the sender's (now frozen)
// message, and a writable copy is obtained explicitly via Mutable.
func TestSendFreezesAndShares(t *testing.T) {
	n := New(clock.NewReal(), Params{})
	defer n.Stop()
	a, _ := attach(t, n, 1)
	_, cb := attach(t, n, 2)
	_, cc := attach(t, n, 3)

	m := call(1)
	m.Args = []byte{1, 2, 3}
	a.Multicast(msg.NewGroup(2, 3), m)
	n.Quiesce()
	if !m.Frozen() {
		t.Fatal("sent message not frozen")
	}
	cb.mu.Lock()
	cc.mu.Lock()
	defer cb.mu.Unlock()
	defer cc.mu.Unlock()
	if cb.msgs[0] != m || cc.msgs[0] != m {
		t.Fatal("recipients did not share the sender's message")
	}
	if c := m.Mutable(); c == m || c.Frozen() || &c.Args[0] == &m.Args[0] {
		t.Fatal("Mutable() of a frozen message must be an independent copy")
	}
}

func TestLossIsInjected(t *testing.T) {
	n := New(clock.NewReal(), Params{Seed: 1, LossProb: 0.5})
	defer n.Stop()
	a, _ := attach(t, n, 1)
	_, cb := attach(t, n, 2)

	const sent = 400
	for i := 0; i < sent; i++ {
		a.Push(2, call(msg.CallID(i)))
	}
	n.Quiesce()
	got := cb.count()
	if got == sent || got == 0 {
		t.Fatalf("delivered %d of %d with 50%% loss", got, sent)
	}
	// Rough binomial bounds: 400 trials, p=0.5 → expect 200 ± 60.
	if got < 140 || got > 260 {
		t.Fatalf("delivered %d of %d, far from 50%%", got, sent)
	}
	st := n.Stats()
	if st.Dropped != int64(sent-got) {
		t.Fatalf("dropped = %d, want %d", st.Dropped, sent-got)
	}
}

func TestDuplicationIsInjected(t *testing.T) {
	n := New(clock.NewReal(), Params{Seed: 2, DupProb: 0.5})
	defer n.Stop()
	a, _ := attach(t, n, 1)
	_, cb := attach(t, n, 2)

	const sent = 200
	for i := 0; i < sent; i++ {
		a.Push(2, call(msg.CallID(i)))
	}
	n.Quiesce()
	st := n.Stats()
	if st.Duplicated == 0 {
		t.Fatal("no duplicates with 50% dup probability")
	}
	if got := cb.count(); got != sent+int(st.Duplicated) {
		t.Fatalf("delivered %d, want %d + %d dups", got, sent, st.Duplicated)
	}
}

func TestSeedDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		n := New(clock.NewReal(), Params{Seed: 42, LossProb: 0.3, DupProb: 0.2})
		defer n.Stop()
		a, _ := attach(t, n, 1)
		attach(t, n, 2)
		for i := 0; i < 300; i++ {
			a.Push(2, call(msg.CallID(i)))
		}
		n.Quiesce()
		st := n.Stats()
		return st.Dropped, st.Duplicated
	}
	d1, p1 := run()
	d2, p2 := run()
	if d1 != d2 || p1 != p2 {
		t.Fatalf("same seed, different fault pattern: (%d,%d) vs (%d,%d)", d1, p1, d2, p2)
	}
}

func TestMulticastReachesAllMembersIncludingSender(t *testing.T) {
	n := New(clock.NewReal(), Params{})
	defer n.Stop()
	a, ca := attach(t, n, 1)
	_, cb := attach(t, n, 2)
	_, cc := attach(t, n, 3)

	a.Multicast(msg.NewGroup(1, 2, 3), call(1))
	n.Quiesce()
	if ca.count() != 1 || cb.count() != 1 || cc.count() != 1 {
		t.Fatalf("multicast delivered %d/%d/%d, want 1/1/1", ca.count(), cb.count(), cc.count())
	}
}

func TestPartition(t *testing.T) {
	n := New(clock.NewReal(), Params{})
	defer n.Stop()
	a, ca := attach(t, n, 1)
	b, cb := attach(t, n, 2)

	n.Partition(1, 2, true)
	a.Push(2, call(1))
	b.Push(1, call(2))
	n.Quiesce()
	if ca.count() != 0 || cb.count() != 0 {
		t.Fatal("partitioned link delivered")
	}
	if st := n.Stats(); st.Partition != 2 {
		t.Fatalf("partition drops = %d, want 2", st.Partition)
	}

	n.Partition(1, 2, false)
	a.Push(2, call(3))
	n.Quiesce()
	if cb.count() != 1 {
		t.Fatal("healed partition did not deliver")
	}
}

func TestPartitionOneWay(t *testing.T) {
	n := New(clock.NewReal(), Params{})
	defer n.Stop()
	a, ca := attach(t, n, 1)
	b, cb := attach(t, n, 2)

	n.PartitionOneWay(1, 2, true)
	a.Push(2, call(1)) // blocked direction
	b.Push(1, call(2)) // open direction
	n.Quiesce()
	if cb.count() != 0 {
		t.Fatal("blocked direction delivered")
	}
	if ca.count() != 1 {
		t.Fatal("open direction did not deliver")
	}

	n.PartitionOneWay(1, 2, false)
	a.Push(2, call(3))
	n.Quiesce()
	if cb.count() != 1 {
		t.Fatal("healed one-way partition did not deliver")
	}
}

func TestDelaysAreApplied(t *testing.T) {
	n := New(clock.NewReal(), Params{Seed: 1, MinDelay: 10 * time.Millisecond, MaxDelay: 15 * time.Millisecond})
	defer n.Stop()
	a, _ := attach(t, n, 1)
	done := make(chan time.Time, 1)
	if _, err := n.Attach(2, func(*msg.NetMsg) { done <- time.Now() }); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	a.Push(2, call(1))
	at := <-done
	if d := at.Sub(t0); d < 10*time.Millisecond {
		t.Fatalf("delivered after %v, want >= 10ms", d)
	}
}

func TestLinkDelayOverride(t *testing.T) {
	n := New(clock.NewReal(), Params{})
	defer n.Stop()
	a, _ := attach(t, n, 1)
	done := make(chan time.Time, 1)
	if _, err := n.Attach(2, func(*msg.NetMsg) { done <- time.Now() }); err != nil {
		t.Fatal(err)
	}
	n.SetLinkDelay(1, 2, 20*time.Millisecond, 20*time.Millisecond)
	t0 := time.Now()
	a.Push(2, call(1))
	at := <-done
	if d := at.Sub(t0); d < 20*time.Millisecond {
		t.Fatalf("delivered after %v, want >= 20ms (link override)", d)
	}
}

func TestEncodeOnWire(t *testing.T) {
	n := New(clock.NewReal(), Params{EncodeOnWire: true})
	defer n.Stop()
	a, _ := attach(t, n, 1)
	_, cb := attach(t, n, 2)

	m := call(7)
	m.Args = []byte("payload")
	m.Server = msg.NewGroup(1, 2)
	a.Push(2, m)
	n.Quiesce()
	cb.mu.Lock()
	defer cb.mu.Unlock()
	got := cb.msgs[0]
	if got.ID != 7 || string(got.Args) != "payload" || !got.Server.Equal(m.Server) {
		t.Fatalf("wire round trip corrupted message: %+v", got)
	}
}

func TestGraySlowDelaysBothDirections(t *testing.T) {
	n := New(clock.NewReal(), Params{})
	defer n.Stop()
	a, _ := attach(t, n, 1)
	b, _ := attach(t, n, 2)
	done := make(chan time.Time, 1)
	if _, err := n.Attach(3, func(*msg.NetMsg) { done <- time.Now() }); err != nil {
		t.Fatal(err)
	}

	n.SetGraySlow(2, 15*time.Millisecond)
	t0 := time.Now()
	b.Push(3, call(1)) // egress of the gray endpoint
	if d := (<-done).Sub(t0); d < 15*time.Millisecond {
		t.Fatalf("gray egress delivered after %v, want >= 15ms", d)
	}
	a.Push(2, call(2)) // ingress of the gray endpoint
	n.Quiesce()
	if st := n.ProfileStats(); st.GrayDelays != 2 {
		t.Fatalf("gray delays = %d, want 2", st.GrayDelays)
	}

	// Traffic not touching the gray endpoint is unaffected, and clearing
	// the state restores normal latency.
	t0 = time.Now()
	a.Push(3, call(3))
	if d := (<-done).Sub(t0); d >= 15*time.Millisecond {
		t.Fatalf("bystander link delayed %v by a gray endpoint", d)
	}
	n.SetGraySlow(2, 0)
	a.Push(2, call(4))
	n.Quiesce()
	if st := n.ProfileStats(); st.GrayDelays != 2 {
		t.Fatalf("gray delays after clear = %d, want 2", st.GrayDelays)
	}
}

func TestLinkProfileAsymmetric(t *testing.T) {
	n := New(clock.NewReal(), Params{})
	defer n.Stop()
	done1 := make(chan time.Time, 1)
	done2 := make(chan time.Time, 1)
	e1, err := n.Attach(1, func(*msg.NetMsg) { done1 <- time.Now() })
	if err != nil {
		t.Fatal(err)
	}
	e2, err := n.Attach(2, func(*msg.NetMsg) { done2 <- time.Now() })
	if err != nil {
		t.Fatal(err)
	}
	// Profiles are directed: 2→1 is a slow downlink, 1→2 stays fast.
	n.SetLinkProfile(2, 1, LinkProfile{MinDelay: 20 * time.Millisecond, MaxDelay: 20 * time.Millisecond})

	t0 := time.Now()
	e2.Push(1, call(1))
	if d := (<-done1).Sub(t0); d < 20*time.Millisecond {
		t.Fatalf("profiled direction delivered after %v, want >= 20ms", d)
	}
	t0 = time.Now()
	e1.Push(2, call(2))
	if d := (<-done2).Sub(t0); d >= 20*time.Millisecond {
		t.Fatalf("unprofiled reverse direction delayed %v", d)
	}
}

func TestLinkProfileBandwidth(t *testing.T) {
	n := New(clock.NewReal(), Params{})
	defer n.Stop()
	a, _ := attach(t, n, 1)
	done := make(chan time.Time, 1)
	if _, err := n.Attach(2, func(*msg.NetMsg) { done <- time.Now() }); err != nil {
		t.Fatal(err)
	}
	n.SetLinkProfile(1, 2, LinkProfile{BytesPerSec: 100_000})

	m := call(1)
	m.Args = make([]byte, 2000) // ≥ 2000 bytes on the wire → ≥ 20ms at 100kB/s
	t0 := time.Now()
	a.Push(2, m)
	if d := (<-done).Sub(t0); d < 20*time.Millisecond {
		t.Fatalf("2kB at 100kB/s delivered after %v, want >= 20ms", d)
	}
}

func TestLinkProfileSpikes(t *testing.T) {
	n := New(clock.NewReal(), Params{Seed: 5})
	defer n.Stop()
	a, _ := attach(t, n, 1)
	_, cb := attach(t, n, 2)
	n.SetLinkProfile(1, 2, LinkProfile{SpikeProb: 0.5, SpikeDelay: time.Millisecond})

	const sent = 200
	for i := 0; i < sent; i++ {
		a.Push(2, call(msg.CallID(i)))
	}
	n.Quiesce()
	if got := cb.count(); got != sent {
		t.Fatalf("spikes lost messages: delivered %d of %d", got, sent)
	}
	st := n.ProfileStats()
	// Rough binomial bounds: 200 trials, p=0.5 → expect 100 ± 45.
	if st.Spikes < 55 || st.Spikes > 145 {
		t.Fatalf("spikes = %d of %d, far from 50%%", st.Spikes, sent)
	}
}

func TestReorderStormPermutesWithinWindow(t *testing.T) {
	n := New(clock.NewReal(), Params{Seed: 9,
		Reorder: ReorderParams{Prob: 1, Window: 16, Spread: 30 * time.Millisecond}})
	defer n.Stop()
	a, _ := attach(t, n, 1)
	_, cb := attach(t, n, 2)

	const sent = 12
	for i := 0; i < sent; i++ {
		a.Push(2, call(msg.CallID(i)))
	}
	n.Quiesce()
	if got := cb.count(); got != sent {
		t.Fatalf("storm lost messages: delivered %d of %d", got, sent)
	}
	if st := n.ProfileStats(); st.Reordered != sent {
		t.Fatalf("reordered = %d, want %d", st.Reordered, sent)
	}
	cb.mu.Lock()
	inversions := 0
	for i := 1; i < len(cb.msgs); i++ {
		if cb.msgs[i].ID < cb.msgs[i-1].ID {
			inversions++
		}
	}
	cb.mu.Unlock()
	if inversions == 0 {
		t.Fatal("a full-window storm with 30ms spread produced no inversions")
	}
}
