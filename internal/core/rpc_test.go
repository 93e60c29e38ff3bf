package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"mrpc/internal/clock"
	"mrpc/internal/event"
	"mrpc/internal/member"
	"mrpc/internal/msg"
	"mrpc/internal/proc"
)

func TestSyncCallRoundTrip(t *testing.T) {
	net := newMemNet()
	addNode(t, net, 1, nodeOpts{server: echoServer()},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{})
	client := addNode(t, net, 100, nodeOpts{}, minimalClient(1)...)

	um := client.fw.Call(1, []byte("hi"), msg.NewGroup(1))
	if um.Status != msg.StatusOK {
		t.Fatalf("status = %v, want OK", um.Status)
	}
	if string(um.Args) != "r:hi" {
		t.Fatalf("reply = %q", um.Args)
	}
	if client.fw.PendingCalls() != 0 {
		t.Fatal("client record not collected")
	}
}

func TestCallIDsEmbedIncarnation(t *testing.T) {
	net := newMemNet()
	client := addNode(t, net, 100, nodeOpts{}, minimalClient(1)...)

	rec := client.fw.NewClientRec(1, nil, msg.NewGroup(1), nil)
	if rec.ID>>32 != 1 {
		t.Fatalf("call id %d does not embed incarnation 1", rec.ID)
	}
	client.site.Crash()
	client.site.Recover()
	client.fw.Recover()
	rec2 := client.fw.NewClientRec(1, nil, msg.NewGroup(1), nil)
	if rec2.ID>>32 != 2 {
		t.Fatalf("post-recovery call id %d does not embed incarnation 2", rec2.ID)
	}
}

func TestAsynchronousCall(t *testing.T) {
	net := newMemNet()
	net.async = true
	gate := newGateServer()
	addNode(t, net, 1, nodeOpts{server: gate},
		&RPCMain{}, &AsynchronousCall{}, &Acceptance{Limit: 1}, &Collation{})
	client := addNode(t, net, 100, nodeOpts{},
		&RPCMain{}, &AsynchronousCall{}, &Acceptance{Limit: 1}, &Collation{})

	um := client.fw.Call(1, []byte("work"), msg.NewGroup(1))
	if um.Status != msg.StatusWaiting {
		t.Fatalf("async issue returned status %v, want WAITING", um.Status)
	}
	id := um.ID

	<-gate.entered
	gate.release <- struct{}{}

	res := client.fw.Request(id)
	if res.Status != msg.StatusOK || string(res.Args) != "work" {
		t.Fatalf("collected %v %q", res.Status, res.Args)
	}
	// A second Request for the same id finds nothing.
	res2 := client.fw.Request(id)
	if res2.Status != msg.StatusAborted {
		t.Fatalf("re-collect status = %v, want ABORTED", res2.Status)
	}
	net.wait()
}

func TestCollationFoldsEachReplyOnce(t *testing.T) {
	net := newMemNet()
	group := msg.NewGroup(1, 2, 3)
	for _, id := range group {
		id := id
		addNode(t, net, id, nodeOpts{server: ServerFunc(
			func(_ *proc.Thread, _ msg.OpID, _ []byte) []byte {
				return []byte{byte(id)}
			})},
			&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{})
	}
	concat := func(accum, reply []byte) []byte { return append(accum, reply...) }
	client := addNode(t, net, 100, nodeOpts{},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: AcceptAll},
		&Collation{Func: concat, Init: nil})

	um := client.fw.Call(1, nil, group)
	if um.Status != msg.StatusOK {
		t.Fatalf("status = %v", um.Status)
	}
	if len(um.Args) != 3 {
		t.Fatalf("collated %d replies, want 3: %v", len(um.Args), um.Args)
	}
	for _, id := range group {
		if !bytes.Contains(um.Args, []byte{byte(id)}) {
			t.Fatalf("reply of server %d missing from %v", id, um.Args)
		}
	}
}

func TestAcceptanceKStopsCollation(t *testing.T) {
	net := newMemNet()
	group := msg.NewGroup(1, 2, 3)
	for _, id := range group {
		addNode(t, net, id, nodeOpts{server: echoServer()},
			&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{})
	}
	concat := func(accum, reply []byte) []byte { return append(accum, 'x') }
	client := addNode(t, net, 100, nodeOpts{},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 2},
		&Collation{Func: concat})

	um := client.fw.Call(1, nil, group)
	if um.Status != msg.StatusOK {
		t.Fatalf("status = %v", um.Status)
	}
	// Synchronous delivery: servers 1 and 2 complete the call; server 3's
	// reply arrives after completion and must be filtered before collation.
	if got := len(um.Args); got != 2 {
		t.Fatalf("collation ran %d times, want exactly 2 (acceptance k=2)", got)
	}
}

func TestAcceptanceSkipsKnownDownMembers(t *testing.T) {
	net := newMemNet()
	oracle := member.NewOracle()
	group := msg.NewGroup(1, 2)
	addNode(t, net, 1, nodeOpts{server: echoServer(), membership: oracle},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: AcceptAll}, &Collation{})
	// Server 2 exists but is already known failed.
	client := addNode(t, net, 100, nodeOpts{membership: oracle},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: AcceptAll}, &Collation{})
	oracle.Fail(2)

	um := client.fw.Call(1, []byte("x"), group)
	if um.Status != msg.StatusOK {
		t.Fatalf("status = %v; call should complete without the failed member", um.Status)
	}
}

func TestAcceptanceCompletesOnMembershipFailure(t *testing.T) {
	net := newMemNet()
	oracle := member.NewOracle()
	group := msg.NewGroup(1, 2)
	addNode(t, net, 1, nodeOpts{server: echoServer(), membership: oracle},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: AcceptAll}, &Collation{})
	// Server 2's deliveries are dropped: it will never reply.
	net.setHook(func(to msg.ProcID, m *msg.NetMsg) bool { return to == 2 })
	client := addNode(t, net, 100, nodeOpts{membership: oracle},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: AcceptAll}, &Collation{})

	done := make(chan *msg.UserMsg, 1)
	go func() { done <- client.fw.Call(1, []byte("x"), group) }()
	select {
	case <-done:
		t.Fatal("call completed although member 2 never replied")
	case <-time.After(20 * time.Millisecond):
	}
	oracle.Fail(2)
	select {
	case um := <-done:
		if um.Status != msg.StatusOK {
			t.Fatalf("status = %v", um.Status)
		}
	case <-time.After(time.Second):
		t.Fatal("membership failure did not complete the call")
	}
}

func TestAcceptanceAllMembersDownCompletesVacuously(t *testing.T) {
	net := newMemNet()
	oracle := member.NewOracle()
	oracle.Fail(1)
	client := addNode(t, net, 100, nodeOpts{membership: oracle},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{})
	um := client.fw.Call(1, nil, msg.NewGroup(1))
	if um.Status != msg.StatusOK {
		t.Fatalf("status = %v; a call to an all-failed group must not hang", um.Status)
	}
}

func TestBoundedTerminationTimesOut(t *testing.T) {
	clk := clock.NewSim()
	net := newMemNet()
	// No server attached: the call can never complete.
	client := addNode(t, net, 100, nodeOpts{clk: clk},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&BoundedTermination{TimeBound: 50 * time.Millisecond})

	done := make(chan *msg.UserMsg, 1)
	go func() { done <- client.fw.Call(1, nil, msg.NewGroup(1)) }()
	waitForWaiters(t, client)
	clk.Advance(49 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("call timed out before the bound")
	default:
	}
	clk.Advance(2 * time.Millisecond)
	select {
	case um := <-done:
		if um.Status != msg.StatusTimeout {
			t.Fatalf("status = %v, want TIMEOUT", um.Status)
		}
	case <-time.After(time.Second):
		t.Fatal("bounded call did not terminate")
	}
}

// waitForWaiters blocks until the client framework has a pending call whose
// semaphore has a waiter (the call has been issued and the caller parked).
func waitForWaiters(t *testing.T, n *testNode) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		waiting := false
		n.fw.EachClient(func(r *ClientRecord) {
			if r.Sem.Waiters() > 0 {
				waiting = true
			}
		})
		if waiting {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no parked caller appeared")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestReliableRetransmitsUntilReply(t *testing.T) {
	clk := clock.NewSim()
	net := newMemNet()
	net.async = true
	srv := &recordingServer{}
	addNode(t, net, 1, nodeOpts{server: srv, clk: clk},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&UniqueExecution{})

	// Drop the first two Call deliveries.
	var mu sync.Mutex
	drops := 2
	net.setHook(func(to msg.ProcID, m *msg.NetMsg) bool {
		if m.Type != msg.OpCall {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		if drops > 0 {
			drops--
			return true
		}
		return false
	})

	client := addNode(t, net, 100, nodeOpts{clk: clk},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&ReliableCommunication{RetransTimeout: 10 * time.Millisecond},
		&UniqueExecution{})

	done := make(chan *msg.UserMsg, 1)
	go func() { done <- client.fw.Call(1, []byte("p"), msg.NewGroup(1)) }()
	waitForWaiters(t, client)

	for i := 0; i < 5; i++ {
		clk.Advance(10 * time.Millisecond)
		net.wait()
	}
	select {
	case um := <-done:
		if um.Status != msg.StatusOK {
			t.Fatalf("status = %v", um.Status)
		}
	case <-time.After(time.Second):
		t.Fatal("retransmission never delivered the call")
	}
	if got := srv.executed(); len(got) != 1 {
		t.Fatalf("executed %v, want exactly one execution", got)
	}

	// After the reply (which Reliable Communication treats as the ack),
	// further timer firings must not resend.
	sent := net.countSent(msg.OpCall, 1)
	clk.Advance(100 * time.Millisecond)
	net.wait()
	if got := net.countSent(msg.OpCall, 1); got != sent {
		t.Fatalf("retransmissions continued after reply: %d -> %d", sent, got)
	}
}

func TestReliablePendingRetransmitsUntilReply(t *testing.T) {
	// While a call is pending, a receipt acknowledgement alone must NOT
	// stop retransmission: the retransmitted call is also how a lost
	// reply is recovered (deviation D11).
	clk := clock.NewSim()
	net := newMemNet()
	client := addNode(t, net, 100, nodeOpts{clk: clk},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&ReliableCommunication{RetransTimeout: 10 * time.Millisecond})

	done := make(chan *msg.UserMsg, 1)
	go func() { done <- client.fw.Call(1, nil, msg.NewGroup(1)) }()
	waitForWaiters(t, client)

	var id msg.CallID
	client.fw.EachClient(func(r *ClientRecord) { id = r.ID })

	client.fw.HandleNet(&msg.NetMsg{Type: msg.OpCallAck, Client: 100, Sender: 1, AckID: id})
	before := net.countSent(msg.OpCall, 1)
	clk.Advance(50 * time.Millisecond)
	if got := net.countSent(msg.OpCall, 1); got == before {
		t.Fatal("retransmission stopped on receipt-ack while the reply is still missing")
	}

	client.fw.Close()
	if um := <-done; um.Status != msg.StatusAborted {
		t.Fatalf("status = %v, want ABORTED after Close", um.Status)
	}
}

func TestReliableLingersUntilAllMembersReceive(t *testing.T) {
	// After the call completes via one member, retransmission continues
	// to a member that never received the call — until its receipt
	// acknowledgement arrives (deviation D11: the ordering protocols need
	// every member to receive every call).
	clk := clock.NewSim()
	net := newMemNet()
	net.async = true
	addNode(t, net, 1, nodeOpts{server: echoServer(), clk: clk},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&ReliableCommunication{RetransTimeout: 10 * time.Millisecond})
	// Member 2's deliveries are dropped entirely.
	net.setHook(func(to msg.ProcID, m *msg.NetMsg) bool { return to == 2 })
	client := addNode(t, net, 100, nodeOpts{clk: clk},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&ReliableCommunication{RetransTimeout: 10 * time.Millisecond})

	um := client.fw.Call(1, []byte("x"), msg.NewGroup(1, 2))
	if um.Status != msg.StatusOK {
		t.Fatalf("status = %v", um.Status)
	}
	id := um.ID

	// The call is complete, yet lingering retransmission keeps offering
	// the call to member 2.
	before := net.countSent(msg.OpCall, 2)
	clk.Advance(50 * time.Millisecond)
	net.wait()
	after := net.countSent(msg.OpCall, 2)
	if after == before {
		t.Fatal("no lingering retransmission to the member that missed the call")
	}

	// Member 2 finally acknowledges receipt: lingering stops.
	client.fw.HandleNet(&msg.NetMsg{Type: msg.OpCallAck, Client: 100, Sender: 2, AckID: id})
	before = net.countSent(msg.OpCall, 2)
	clk.Advance(100 * time.Millisecond)
	net.wait()
	if got := net.countSent(msg.OpCall, 2); got != before {
		t.Fatalf("lingering continued after receipt: %d -> %d", before, got)
	}
}

func TestReliableStampsLaneBase(t *testing.T) {
	// A FIFO-ordered client stamps each call with its lane base: the
	// lowest earlier call of the same incarnation and group that is still
	// being transmitted (D10). Here member 2 never receives anything, so
	// the first call stays live after it completes via member 1.
	clk := clock.NewSim()
	net := newMemNet()
	net.async = true
	addNode(t, net, 1, nodeOpts{server: echoServer(), clk: clk},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&ReliableCommunication{RetransTimeout: 10 * time.Millisecond})
	net.setHook(func(to msg.ProcID, m *msg.NetMsg) bool { return to == 2 })
	client := addNode(t, net, 100, nodeOpts{clk: clk},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&ReliableCommunication{RetransTimeout: 10 * time.Millisecond}, &FIFOOrder{})

	base := func(id msg.CallID, to msg.ProcID) msg.CallID {
		t.Helper()
		var b msg.CallID
		found := false
		for _, s := range net.sentLog() {
			if s.M.Type == msg.OpCall && s.M.ID == id && s.To == to {
				b, found = s.M.AckID, true
			}
		}
		if !found {
			t.Fatalf("call %d never sent to %d", id, to)
		}
		return b
	}

	pair := msg.NewGroup(1, 2)
	first := client.fw.Call(1, []byte("a"), pair).ID
	second := client.fw.Call(1, []byte("b"), pair).ID
	alone := client.fw.Call(1, []byte("c"), msg.NewGroup(1)).ID
	net.wait()
	if got := base(first, 2); got != first {
		t.Fatalf("first call's base = %d, want its own id %d", got, first)
	}
	if got := base(second, 2); got != first {
		t.Fatalf("second call's base = %d, want the live first call %d", got, first)
	}
	if got := base(alone, 1); got != alone {
		t.Fatalf("base of a call to another group = %d, want its own id %d", got, alone)
	}

	// Retransmissions carry the base too.
	clk.Advance(10 * time.Millisecond)
	net.wait()
	if got := base(second, 2); got != first {
		t.Fatalf("resent second call's base = %d, want %d", got, first)
	}

	// Once member 2 has both calls, nothing earlier is live.
	client.fw.HandleNet(&msg.NetMsg{Type: msg.OpCallAck, Client: 100, Sender: 2, AckID: first})
	client.fw.HandleNet(&msg.NetMsg{Type: msg.OpCallAck, Client: 100, Sender: 2, AckID: second})
	clk.Advance(10 * time.Millisecond)
	net.wait()
	third := client.fw.Call(1, []byte("d"), pair).ID
	net.wait()
	if got := base(third, 2); got != third {
		t.Fatalf("base after settling = %d, want its own id %d", got, third)
	}
}

func TestCloseAbortsPendingCalls(t *testing.T) {
	net := newMemNet()
	client := addNode(t, net, 100, nodeOpts{}, minimalClient(1)...)
	done := make(chan *msg.UserMsg, 1)
	go func() { done <- client.fw.Call(1, nil, msg.NewGroup(1)) }()
	waitForWaiters(t, client)
	client.fw.Close()
	select {
	case um := <-done:
		if um.Status != msg.StatusAborted {
			t.Fatalf("status = %v, want ABORTED", um.Status)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not release the pending call")
	}
}

func TestRecoveryUpdatesIncarnation(t *testing.T) {
	net := newMemNet()
	n := addNode(t, net, 1, nodeOpts{}, minimalClient(1)...)
	if n.fw.Inc() != 1 {
		t.Fatalf("inc = %d", n.fw.Inc())
	}
	n.site.Crash()
	n.site.Recover()
	n.fw.Recover()
	if n.fw.Inc() != 2 {
		t.Fatalf("inc after recovery = %d, want 2", n.fw.Inc())
	}
}

func TestForwardUpWaitsForAllHoldBits(t *testing.T) {
	net := newMemNet()
	srv := &recordingServer{}
	n := addNode(t, net, 1, nodeOpts{server: srv}, &RPCMain{})
	n.fw.SetHold(HoldFIFO) // simulate an ordering property being configured

	key := msg.CallKey{Client: 100, ID: 1}
	n.fw.PutServerRec(&ServerRecord{Key: key, Op: 1, Args: []byte("x"), Client: 100})

	n.fw.ForwardUp(key, HoldMain)
	if got := srv.executed(); len(got) != 0 {
		t.Fatal("executed before all hold bits satisfied")
	}
	n.fw.ForwardUp(key, HoldFIFO)
	if got := srv.executed(); len(got) != 1 {
		t.Fatalf("executed %v, want one execution after both bits", got)
	}
	// Duplicate bit-setting must not re-execute.
	n.fw.ForwardUp(key, HoldFIFO)
	if got := srv.executed(); len(got) != 1 {
		t.Fatal("re-executed on duplicate ForwardUp")
	}
}

func TestMainDropsDuplicateStoreWhileInProgress(t *testing.T) {
	net := newMemNet()
	net.async = true
	gate := newGateServer()
	n := addNode(t, net, 1, nodeOpts{server: gate},
		&RPCMain{}) // no Unique Execution: Main's own guard is under test

	m := callMsg(100, 1, 1, msg.NewGroup(1), "a")
	go n.fw.HandleNet(m.Clone())
	<-gate.entered

	// Duplicate delivery while the original is executing.
	n.fw.HandleNet(m.Clone())
	if got := n.fw.PendingServerCalls(); got != 1 {
		t.Fatalf("pending server calls = %d, want 1 (duplicate dropped)", got)
	}
	gate.release <- struct{}{}
	deadline := time.Now().Add(time.Second)
	for len(gate.completed()) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("completed %v, want one", gate.completed())
		}
		time.Sleep(100 * time.Microsecond)
	}
	if got := gate.completed(); len(got) != 1 {
		t.Fatalf("completed %v, want one", got)
	}
}

func TestUserMsgStatusOnUnknownRequest(t *testing.T) {
	net := newMemNet()
	client := addNode(t, net, 100, nodeOpts{},
		&RPCMain{}, &AsynchronousCall{}, &Acceptance{Limit: 1}, &Collation{})
	um := client.fw.Request(12345)
	if um.Status != msg.StatusAborted {
		t.Fatalf("status = %v, want ABORTED for unknown id", um.Status)
	}
}

func TestEventRegistrationsMatchFigure3(t *testing.T) {
	net := newMemNet()
	n := addNode(t, net, 1, nodeOpts{server: echoServer()},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&ReliableCommunication{RetransTimeout: time.Hour},
		&UniqueExecution{})
	regs := n.bus.Registrations()

	netOrder := regs[event.MsgFromNetwork]
	var names []string
	for _, r := range netOrder {
		names = append(names, r.Name)
	}
	want := []string{
		"ReliableComm.msgFromNet",
		"UniqueExec.msgFromNet",
		"RPCMain.msgFromNet",
		"Acceptance.dedupe",
		"Collation.msgFromNet",
		"Acceptance.complete",
	}
	if len(names) != len(want) {
		t.Fatalf("network handlers %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("network handler order %v, want %v", names, want)
		}
	}
}
