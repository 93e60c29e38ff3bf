package mrpc_test

import (
	"sync/atomic"
	"testing"
	"time"

	"mrpc"
	"mrpc/internal/clock"
	"mrpc/internal/nettcp"
	"mrpc/internal/proc"
	"mrpc/internal/stub"
)

// tcpSystem builds a System over the TCP transport on loopback with
// auto-assigned ports — the facade's side of the transport seam.
func tcpSystem(t *testing.T) *mrpc.System {
	t.Helper()
	clk := clock.NewReal()
	sys := mrpc.NewSystem(mrpc.SystemOptions{
		Clock:     clk,
		Transport: nettcp.New(clk, nettcp.Options{}),
	})
	t.Cleanup(sys.Stop)
	return sys
}

// TestFacadeOverTCP runs the quickstart shape — three servers, one
// client, reliable + unique + FIFO — over real sockets, including a
// crash/recover cycle through the facade's endpoint controls.
func TestFacadeOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket run in -short mode")
	}
	sys := tcpSystem(t)

	var execs atomic.Int64
	reg := stub.NewRegistry()
	echo := reg.Register("echo", func(_ *proc.Thread, args []byte) []byte {
		execs.Add(1)
		return args
	})
	cfg := mrpc.ExactlyOnce()
	cfg.RetransTimeout = 5 * time.Millisecond
	cfg.AcceptanceLimit = 2
	for id := mrpc.ProcID(1); id <= 3; id++ {
		if _, err := sys.AddServer(id, cfg, func() mrpc.App { return reg }); err != nil {
			t.Fatal(err)
		}
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	group := sys.Group(1, 2, 3)

	for i := 0; i < 10; i++ {
		reply, status, err := client.Call(echo, []byte{byte(i)}, group)
		if err != nil || status != mrpc.StatusOK || len(reply) != 1 || reply[0] != byte(i) {
			t.Fatalf("call %d: status %v reply %v err %v", i, status, reply, err)
		}
	}

	// One member down: 2-of-3 acceptance keeps completing over sockets.
	n3, _ := sys.Node(3)
	n3.Crash()
	for i := 10; i < 15; i++ {
		if _, status, err := client.Call(echo, []byte{byte(i)}, group); err != nil || status != mrpc.StatusOK {
			t.Fatalf("call %d with member down: status %v err %v", i, status, err)
		}
	}
	if err := n3.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := 15; i < 20; i++ {
		if _, status, err := client.Call(echo, []byte{byte(i)}, group); err != nil || status != mrpc.StatusOK {
			t.Fatalf("call %d after recovery: status %v err %v", i, status, err)
		}
	}
	if execs.Load() < 20 {
		t.Fatalf("servers executed only %d times", execs.Load())
	}

	st := sys.Net().Stats()
	if st.Sent == 0 || st.Delivered == 0 {
		t.Fatalf("transport stats did not move: %+v", st)
	}
}

// TestSimOnlySurfacesOnTCP pins the seam's contract for simulator-only
// controls on a real transport: Sim() is nil, while the transport-agnostic
// per-node Link() is still there.
func TestSimOnlySurfacesOnTCP(t *testing.T) {
	sys := tcpSystem(t)
	if sys.Sim() != nil {
		t.Fatal("Sim() non-nil on a TCP transport")
	}
	n, err := sys.AddClient(1, mrpc.ExactlyOnce())
	if err != nil {
		t.Fatal(err)
	}
	if n.Link() == nil {
		t.Fatal("Link() nil")
	}
}
