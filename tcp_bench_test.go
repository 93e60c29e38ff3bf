package mrpc_test

// Benchmarks for the TCP transport (internal/nettcp): the same composite
// call path E8 measures on the simulator, now over real loopback sockets,
// and the raw multicast fanout the group call path pays per destination.
// Run them with the nettcp framing benchmarks via `go test -run '^$'
// -bench TCP ./...`; perfbench's tcp-sync-g3 workload measures the same
// path end to end.

import (
	"fmt"
	"testing"
	"time"

	"mrpc"
	"mrpc/internal/clock"
	"mrpc/internal/msg"
	"mrpc/internal/nettcp"
)

// tcpBenchSystem is benchSystem over real sockets: servers and client in
// one process, every frame through loopback TCP.
func tcpBenchSystem(b *testing.B, cfg mrpc.Config, servers int) (*mrpc.Node, mrpc.Group, mrpc.OpID) {
	b.Helper()
	clk := clock.NewReal()
	sys := mrpc.NewSystem(mrpc.SystemOptions{
		Clock:     clk,
		Transport: nettcp.New(clk, nettcp.Options{}),
	})
	b.Cleanup(sys.Stop)
	reg := mrpc.NewRegistry()
	echo := reg.Register("echo", func(_ *mrpc.Thread, args []byte) []byte { return args })
	ids := make([]mrpc.ProcID, servers)
	for i := range ids {
		ids[i] = mrpc.ProcID(i + 1)
		if _, err := sys.AddServer(ids[i], cfg, func() mrpc.App { return reg }); err != nil {
			b.Fatal(err)
		}
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return client, sys.Group(ids...), echo
}

// BenchmarkTCPCall is E8's composite call path over TCP loopback:
// exactly-once semantics, one echo round trip per iteration, group sizes
// 1 and 3. The spread against BenchmarkE8Monolithic/Composite is the
// socket tax (syscalls, framing, kernel loopback) on an otherwise
// identical protocol stack.
func BenchmarkTCPCall(b *testing.B) {
	for _, g := range []int{1, 3} {
		b.Run(fmt.Sprintf("g%d", g), func(b *testing.B) {
			cfg := mrpc.ExactlyOnce()
			cfg.RetransTimeout = 50 * time.Millisecond
			client, group, op := tcpBenchSystem(b, cfg, g)
			payload := make([]byte, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, status, err := client.Call(op, payload, group)
				if err != nil || status != mrpc.StatusOK {
					b.Fatalf("call: %v %v", status, err)
				}
			}
		})
	}
}

// BenchmarkTCPMulticastFanout mirrors netsim's BenchmarkMulticastFanout on
// sockets: one Multicast per iteration to g no-op endpoints in the same
// process. Sends are asynchronous behind per-peer queues, so the loop
// quiesces periodically — well under the queue depth — and a dropped
// frame fails the benchmark rather than flattering it.
func BenchmarkTCPMulticastFanout(b *testing.B) {
	for _, g := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("g%d", g), func(b *testing.B) {
			tr := nettcp.New(clock.NewReal(), nettcp.Options{})
			b.Cleanup(tr.Stop)
			group := make(mrpc.Group, 0, g)
			for i := 1; i <= g; i++ {
				id := mrpc.ProcID(i)
				group = append(group, id)
				if _, err := tr.Attach(id, func(*msg.NetMsg) {}); err != nil {
					b.Fatal(err)
				}
			}
			sender, err := tr.Attach(100, func(*msg.NetMsg) {})
			if err != nil {
				b.Fatal(err)
			}
			m := &msg.NetMsg{
				Type: msg.OpCall, ID: 1, Client: 100, Op: 7,
				Args: make([]byte, 64), Server: group, Sender: 100,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sender.Multicast(group, m)
				if i%64 == 63 {
					tr.Quiesce()
				}
			}
			b.StopTimer()
			tr.Quiesce()
			if st := tr.Stats(); st.Dropped > 0 {
				b.Fatalf("%d frames dropped: queues overflowed, numbers are invalid", st.Dropped)
			}
		})
	}
}
