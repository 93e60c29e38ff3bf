package netsim

import (
	"fmt"
	"testing"
	"time"

	"mrpc/internal/clock"
	"mrpc/internal/msg"
	"mrpc/internal/transport"
)

// BenchmarkMulticastFanout measures the transport send+deliver path as the
// group size grows: one Multicast per iteration to g no-op endpoints, with
// the wire codec off ("plain") and on ("wire"). This fanout is what the
// composite protocol pays on every group call, so per-destination costs
// (lock round-trips, clones, encodes, goroutine spawns) show up here first.
func BenchmarkMulticastFanout(b *testing.B) {
	for _, wire := range []bool{false, true} {
		mode := "plain"
		if wire {
			mode = "wire"
		}
		for _, g := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s/g%d", mode, g), func(b *testing.B) {
				n := New(clock.NewReal(), Params{EncodeOnWire: wire})
				defer n.Stop()
				group := make(msg.Group, 0, g)
				for i := 1; i <= g; i++ {
					id := msg.ProcID(i)
					group = append(group, id)
					if _, err := n.Attach(id, func(*msg.NetMsg) {}); err != nil {
						b.Fatal(err)
					}
				}
				sender, err := n.Attach(100, func(*msg.NetMsg) {})
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
				}
				b.StopTimer()
				n.Quiesce()
			})
		}
	}
}

// BenchmarkMulticastDissemination extends the fanout story to large groups
// (g in {32, 64, 128}) and compares flat dissemination against the k-ary
// relay tree of D17: in tree mode the sender pushes one frame to at most k
// children and each member's handler relays the shared frozen frame onward
// with msg.TreeChildren — zero re-encode, zero clone.
//
// Every link carries a fixed 100ms delay, so deliveries (and relays) land
// on runtime timers OUTSIDE the timed region: the loop measures exactly
// what the sender's goroutine pays per multicast — admission, egress
// fan-out, and (in wire mode) the single encode — which is the O(g) vs
// O(k) claim under test. The backlog is drained untimed every benchChunk
// iterations so pending timers stay bounded at any b.N. Run it with a
// fixed iteration count (`go test -run '^$' -bench MulticastDissemination
// -benchtime 1000x -count 5 ./internal/netsim`); duration-based benchtime
// ramps b.N far beyond what the drain phases make sensible.
func BenchmarkMulticastDissemination(b *testing.B) {
	const fanout = 3
	const benchChunk = 1000
	const origin = msg.ProcID(1000) // outside the member ID range at every g
	for _, tree := range []bool{false, true} {
		mode := "flat"
		if tree {
			mode = fmt.Sprintf("tree%d", fanout)
		}
		for _, wire := range []bool{false, true} {
			codec := "plain"
			if wire {
				codec = "wire"
			}
			for _, g := range []int{32, 64, 128} {
				b.Run(fmt.Sprintf("%s/%s/g%d", mode, codec, g), func(b *testing.B) {
					n := New(clock.NewReal(), Params{
						EncodeOnWire: wire,
						MinDelay:     100 * time.Millisecond,
						MaxDelay:     100 * time.Millisecond,
					})
					defer n.Stop()
					group := make(msg.Group, 0, g)
					for i := 1; i <= g; i++ {
						group = append(group, msg.ProcID(i))
					}
					for _, id := range group {
						id := id
						var ep transport.Endpoint
						h := func(*msg.NetMsg) {}
						if tree {
							h = func(m *msg.NetMsg) {
								if m.Relay == 0 {
									return
								}
								ch := msg.TreeChildren(m.Server, m.Sender, id, int(m.Relay), nil)
								if len(ch) > 0 {
									ep.Multicast(ch, m)
								}
							}
						}
						e, err := n.Attach(id, h)
						if err != nil {
							b.Fatal(err)
						}
						ep = e
					}
					sender, err := n.Attach(origin, func(*msg.NetMsg) {})
					if err != nil {
						b.Fatal(err)
					}
					m := &msg.NetMsg{
						Type: msg.OpCall, ID: 1, Client: origin, Op: 7,
						Args: make([]byte, 64), Server: group, Sender: origin,
					}
					var roots msg.Group
					if tree {
						m.SetRelay(fanout)
						roots = msg.TreeChildren(group, origin, origin, fanout, nil)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if i > 0 && i%benchChunk == 0 {
							b.StopTimer()
							n.Quiesce()
							b.StartTimer()
						}
						if tree {
							sender.Multicast(roots, m)
						} else {
							sender.Multicast(group, m)
						}
					}
					b.StopTimer()
					n.Quiesce()
				})
			}
		}
	}
}
