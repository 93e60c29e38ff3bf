package core

import (
	"testing"

	"mrpc/internal/msg"
	"mrpc/internal/proc"
)

func causalNode(t *testing.T, net *memNet, id msg.ProcID) (*testNode, *recordingServer) {
	t.Helper()
	srv := &recordingServer{}
	n := addNode(t, net, id, nodeOpts{server: srv},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&UniqueExecution{}, &CausalOrder{})
	return n, srv
}

// causalCall builds a Call with an explicit vector timestamp.
func causalCall(client msg.ProcID, id msg.CallID, inc msg.Incarnation,
	group msg.Group, payload string, vc msg.VClock) *msg.NetMsg {
	m := callMsg(client, id, inc, group, payload)
	m.VC = vc
	return m
}

func TestCausalDeliversClientSequenceInOrder(t *testing.T) {
	net := newMemNet()
	n, srv := causalNode(t, net, 1)
	group := msg.NewGroup(1)

	// Client 100's second call arrives first: held.
	n.fw.HandleNet(causalCall(100, 2, 1, group, "c2", msg.VClock{100: 2}))
	if got := srv.executed(); len(got) != 0 {
		t.Fatalf("executed %v before causal predecessor", got)
	}
	// The first call arrives: both run, in order.
	n.fw.HandleNet(causalCall(100, 1, 1, group, "c1", msg.VClock{100: 1}))
	got := srv.executed()
	if len(got) != 2 || got[0] != "c1" || got[1] != "c2" {
		t.Fatalf("executed %v, want [c1 c2]", got)
	}
	if n.fw.PendingServerCalls() != 0 {
		t.Fatal("held records remain")
	}
}

func TestCausalCrossClientDependency(t *testing.T) {
	net := newMemNet()
	n, srv := causalNode(t, net, 1)
	group := msg.NewGroup(1)

	// Client 101's call was issued after it learned of client 100's first
	// call (T includes 100:1), but arrives before it: held.
	n.fw.HandleNet(causalCall(101, 1, 1, group, "b1", msg.VClock{101: 1, 100: 1}))
	if got := srv.executed(); len(got) != 0 {
		t.Fatalf("executed %v before cross-client dependency", got)
	}
	// An unrelated call from client 102 is NOT blocked (concurrent calls
	// may interleave — weaker than total order).
	n.fw.HandleNet(causalCall(102, 1, 1, group, "d1", msg.VClock{102: 1}))
	if got := srv.executed(); len(got) != 1 || got[0] != "d1" {
		t.Fatalf("executed %v, want [d1]", got)
	}
	// The dependency arrives: b1 drains after it.
	n.fw.HandleNet(causalCall(100, 1, 1, group, "a1", msg.VClock{100: 1}))
	got := srv.executed()
	if len(got) != 3 || got[1] != "a1" || got[2] != "b1" {
		t.Fatalf("executed %v, want [d1 a1 b1]", got)
	}
}

func TestCausalRepliesCarryDeliveredVector(t *testing.T) {
	net := newMemNet()
	n, _ := causalNode(t, net, 1)
	group := msg.NewGroup(1)

	m := causalCall(100, 1, 1, group, "a1", msg.VClock{100: 1})
	n.fw.HandleNet(m.Clone())
	// A duplicate gets Unique Execution's retained reply, which must carry
	// the vector too: a resend that overtook the original reply used to
	// hand the client the result without its dependencies.
	n.fw.HandleNet(m.Clone())
	replies := 0
	for _, s := range net.sentLog() {
		if s.M.Type == msg.OpReply {
			replies++
			if s.M.VC.Get(100) != 1 {
				t.Fatalf("reply %d VC = %v, want {100:1}", replies, s.M.VC)
			}
		}
	}
	if replies != 2 {
		t.Fatalf("%d replies, want the original and the resend", replies)
	}
}

// holdA1 blocks the execution of "a1" until released.
type holdA1 struct{ entered, release chan struct{} }

func (h holdA1) Pop(_ *proc.Thread, _ msg.OpID, args []byte) []byte {
	if string(args) == "a1" {
		close(h.entered)
		<-h.release
	}
	return args
}

// TestCausalReplyCoversExecutingCalls: under concurrent execution a reply
// may already reflect a call that is still executing, so its vector must
// count that call. Before, b1's reply said {101:1}, and a client that read
// a1's effect in it could issue a call that other members ran before a1.
func TestCausalReplyCoversExecutingCalls(t *testing.T) {
	net := newMemNet()
	srv := holdA1{entered: make(chan struct{}), release: make(chan struct{})}
	n := addNode(t, net, 1, nodeOpts{server: srv},
		&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
		&UniqueExecution{}, &CausalOrder{})
	group := msg.NewGroup(1)

	done := make(chan struct{})
	go func() {
		defer close(done)
		n.fw.HandleNet(causalCall(100, 1, 1, group, "a1", msg.VClock{100: 1}))
	}()
	<-srv.entered
	n.fw.HandleNet(causalCall(101, 1, 1, group, "b1", msg.VClock{101: 1}))
	close(srv.release)
	<-done
	for _, s := range net.sentLog() {
		if s.M.Type == msg.OpReply && s.M.Client == 101 && s.M.VC.Get(100) != 1 {
			t.Fatalf("b1's reply VC = %v, want a1 (100:1) counted", s.M.VC)
		}
	}
}

func TestCausalClientStampsAndLearns(t *testing.T) {
	// End-to-end through two clients and one server: client B calls after
	// observing A's reply; B's call must carry knowledge of A's call.
	net := newMemNet()
	causalNode(t, net, 1)
	protos := func() []MicroProtocol {
		return []MicroProtocol{
			&RPCMain{}, &SynchronousCall{}, &Acceptance{Limit: 1}, &Collation{},
			&UniqueExecution{}, &CausalOrder{},
		}
	}
	clientA := addNode(t, net, 100, nodeOpts{}, protos()...)
	clientB := addNode(t, net, 101, nodeOpts{}, protos()...)
	group := msg.NewGroup(1)

	if um := clientA.fw.Call(1, []byte("a1"), group); um.Status != msg.StatusOK {
		t.Fatalf("a1: %v", um.Status)
	}
	// B has not seen anything from A: its first call carries only itself.
	if um := clientB.fw.Call(1, []byte("b1"), group); um.Status != msg.StatusOK {
		t.Fatalf("b1: %v", um.Status)
	}
	// B's second call must causally follow a1, which B learned about from
	// the server's reply to b1 (the server had executed a1 first).
	var lastCallVC msg.VClock
	for _, s := range net.sentLog() {
		if s.M.Type == msg.OpCall && s.M.Client == 101 && s.M.ID != 0 {
			lastCallVC = s.M.VC
		}
	}
	_ = lastCallVC
	if um := clientB.fw.Call(1, []byte("b2"), group); um.Status != msg.StatusOK {
		t.Fatalf("b2: %v", um.Status)
	}
	for _, s := range net.sentLog() {
		if s.M.Type == msg.OpCall && s.M.Client == 101 {
			lastCallVC = s.M.VC
		}
	}
	if lastCallVC.Get(100) != 1 || lastCallVC.Get(101) != 2 {
		t.Fatalf("b2 timestamp = %v, want knowledge of a1 and own seq 2", lastCallVC)
	}
}

func TestCausalNewIncarnationResets(t *testing.T) {
	net := newMemNet()
	n, srv := causalNode(t, net, 1)
	group := msg.NewGroup(1)

	n.fw.HandleNet(causalCall(100, mkID(1, 1), 1, group, "inc1-c1", msg.VClock{100: 1}))
	// A held call of incarnation 1 (waiting for its predecessor that will
	// never come).
	n.fw.HandleNet(causalCall(100, mkID(1, 3), 1, group, "inc1-c3", msg.VClock{100: 3}))
	// Incarnation 2 restarts numbering; the held inc-1 call is dead.
	n.fw.HandleNet(causalCall(100, mkID(2, 1), 2, group, "inc2-c1", msg.VClock{100: 1}))
	got := srv.executed()
	if len(got) != 2 || got[0] != "inc1-c1" || got[1] != "inc2-c1" {
		t.Fatalf("executed %v, want [inc1-c1 inc2-c1]", got)
	}
	// Stale incarnation afterwards: dropped.
	n.fw.HandleNet(causalCall(100, mkID(1, 4), 1, group, "stale", msg.VClock{100: 4}))
	if len(srv.executed()) != 2 {
		t.Fatal("stale incarnation executed")
	}
	if n.fw.PendingServerCalls() != 0 {
		t.Fatal("records left")
	}
}

func TestCausalDuplicateDoesNotDoubleDeliver(t *testing.T) {
	net := newMemNet()
	n, srv := causalNode(t, net, 1)
	group := msg.NewGroup(1)

	m := causalCall(100, 1, 1, group, "c1", msg.VClock{100: 1})
	n.fw.HandleNet(m.Clone())
	n.fw.HandleNet(m.Clone()) // duplicate: Unique resends, causal must not bump again
	if got := srv.executed(); len(got) != 1 {
		t.Fatalf("executed %v", got)
	}
	// The successor is still deliverable exactly once.
	n.fw.HandleNet(causalCall(100, 2, 1, group, "c2", msg.VClock{100: 2}))
	if got := srv.executed(); len(got) != 2 || got[1] != "c2" {
		t.Fatalf("executed %v, want [c1 c2]", got)
	}
}
