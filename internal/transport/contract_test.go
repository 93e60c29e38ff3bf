package transport_test

import (
	"sync"
	"testing"
	"time"

	"mrpc/internal/clock"
	"mrpc/internal/msg"
	"mrpc/internal/netsim"
	"mrpc/internal/nettcp"
	"mrpc/internal/transport"
)

// TestContract runs the same cases over every implementation of the seam:
// the simulator, and TCP on loopback. Each case gets a fresh transport.
// Over sockets a written frame is not yet in the peer's handler, so cases
// that wait for an arrival poll for it instead of relying on Quiesce.
func TestContract(t *testing.T) {
	substrates := []struct {
		name string
		new  func() transport.Transport
	}{
		{"netsim", func() transport.Transport { return netsim.New(clock.NewReal(), netsim.Params{}) }},
		{"nettcp", func() transport.Transport { return nettcp.New(clock.NewReal(), nettcp.Options{}) }},
	}
	cases := []struct {
		name string
		run  func(*testing.T, transport.Transport)
	}{
		{"BlockedHandlerDoesNotDelayArrival", blockedHandlerDoesNotDelayArrival},
		{"QuiesceWaitsForRunningHandler", quiesceWaitsForRunningHandler},
		{"DownEndpointNeitherSendsNorReceives", downEndpointNeitherSendsNorReceives},
		{"UnknownDestinationIsDownDrop", unknownDestinationIsDownDrop},
		{"DuplicateAttachRejected", duplicateAttachRejected},
		{"SetHandlerReplaces", setHandlerReplaces},
		{"SendAfterStopDiscarded", sendAfterStopDiscarded},
	}
	for _, s := range substrates {
		t.Run(s.name, func(t *testing.T) {
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					tr := s.new()
					defer tr.Stop()
					c.run(t, tr)
				})
			}
		})
	}
}

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

func attach(t *testing.T, tr transport.Transport, id msg.ProcID, h transport.Handler) transport.Endpoint {
	t.Helper()
	ep, err := tr.Attach(id, h)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

func call(id msg.CallID) *msg.NetMsg {
	return &msg.NetMsg{Type: msg.OpCall, ID: id, Client: 1, Sender: 1}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// blockedHandlerDoesNotDelayArrival pins the Handler contract: a handler
// blocked on a channel must not delay an unrelated arrival to the same
// endpoint, even one from the same sender over the same connection.
func blockedHandlerDoesNotDelayArrival(t *testing.T, tr transport.Transport) {
	blocked := make(chan struct{})
	release := make(chan struct{})
	got := make(chan msg.CallID, 1)
	a := attach(t, tr, 1, nil)
	attach(t, tr, 2, func(m *msg.NetMsg) {
		if m.ID == 1 {
			close(blocked)
			<-release
			return
		}
		got <- m.ID
	})
	defer close(release) // before Stop, which waits for the running handler

	a.Push(2, call(1))
	<-blocked
	a.Push(2, call(2))
	select {
	case id := <-got:
		if id != 2 {
			t.Fatalf("delivered call %d, want 2", id)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("arrival waited behind a blocked handler")
	}
}

func quiesceWaitsForRunningHandler(t *testing.T, tr transport.Transport) {
	running := make(chan struct{})
	release := make(chan struct{})
	var finished bool
	var mu sync.Mutex
	a := attach(t, tr, 1, nil)
	attach(t, tr, 2, func(*msg.NetMsg) {
		close(running)
		<-release
		mu.Lock()
		finished = true
		mu.Unlock()
	})

	a.Push(2, call(1))
	<-running
	quiesced := make(chan struct{})
	go func() {
		tr.Quiesce()
		close(quiesced)
	}()
	select {
	case <-quiesced:
		t.Fatal("Quiesce returned while a handler was running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-quiesced:
	case <-time.After(10 * time.Second):
		t.Fatal("Quiesce did not return after the handler did")
	}
	mu.Lock()
	defer mu.Unlock()
	if !finished {
		t.Fatal("Quiesce returned before the handler finished")
	}
}

func downEndpointNeitherSendsNorReceives(t *testing.T, tr transport.Transport) {
	var ca, cb collector
	a := attach(t, tr, 1, ca.handle)
	b := attach(t, tr, 2, cb.handle)

	b.SetUp(false)
	if b.Up() {
		t.Fatal("Up() after SetUp(false)")
	}
	a.Push(2, call(1)) // toward the down endpoint: dropped at delivery
	waitFor(t, "down drop", func() bool { return tr.Stats().DownDrops == 1 })
	b.Push(1, call(2)) // from the down endpoint: discarded at the source
	tr.Quiesce()
	if st := tr.Stats(); st.Sent != 1 || st.DownDrops != 1 {
		t.Fatalf("stats = %+v, want 1 sent and 1 down drop (a down sender sends nothing)", st)
	}
	if cb.count() != 0 || ca.count() != 0 {
		t.Fatalf("received a=%d b=%d, want none", ca.count(), cb.count())
	}

	b.SetUp(true)
	a.Push(2, call(3))
	waitFor(t, "delivery after recovery", func() bool { return cb.count() == 1 })
}

func unknownDestinationIsDownDrop(t *testing.T, tr transport.Transport) {
	a := attach(t, tr, 1, nil)
	a.Push(99, call(1))
	tr.Quiesce()
	if st := tr.Stats(); st.DownDrops != 1 || st.Delivered != 0 {
		t.Fatalf("stats = %+v, want one down drop", st)
	}
}

func duplicateAttachRejected(t *testing.T, tr transport.Transport) {
	attach(t, tr, 1, nil)
	if _, err := tr.Attach(1, nil); err == nil {
		t.Fatal("second Attach of id 1 accepted")
	}
}

func setHandlerReplaces(t *testing.T, tr transport.Transport) {
	var old, fresh collector
	a := attach(t, tr, 1, nil)
	ep := attach(t, tr, 2, old.handle)
	ep.SetHandler(fresh.handle)
	a.Push(2, call(1))
	waitFor(t, "delivery to the new handler", func() bool { return fresh.count() == 1 })
	if old.count() != 0 {
		t.Fatalf("old handler received %d", old.count())
	}
	if ep.ID() != 2 {
		t.Fatalf("ID = %d", ep.ID())
	}
}

func sendAfterStopDiscarded(t *testing.T, tr transport.Transport) {
	var cb collector
	a := attach(t, tr, 1, nil)
	attach(t, tr, 2, cb.handle)
	tr.Stop()
	a.Push(2, call(1)) // must not panic or hang
	a.Multicast(msg.Group{1, 2}, call(2))
	if st := tr.Stats(); st.Sent != 0 {
		t.Fatalf("sends admitted after Stop: %+v", st)
	}
	if cb.count() != 0 {
		t.Fatal("message delivered after Stop")
	}
}
