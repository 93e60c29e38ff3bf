package experiments

import (
	"fmt"
	"time"

	"mrpc"
	"mrpc/internal/baseline"
	"mrpc/internal/clock"
	"mrpc/internal/config"
	"mrpc/internal/msg"
	"mrpc/internal/p2p"
	"mrpc/internal/proc"
)

// Rig is one system under a per-call cost measurement (E6, E8, E8b, E14 and
// their benchmarks in bench_test.go). Every rig runs on a perfect
// zero-delay simulated network, so what a call costs is the protocol code
// itself, not simulated wire time. Call makes one echo call with no
// arguments from client 100; Stop tears the rig down.
type Rig struct {
	Call func() error
	Stop func()
}

// ExactlyOnce is the composite configuration that E8, E8b and E14 set
// against the fused implementations of the same semantics.
func ExactlyOnce() mrpc.Config {
	cfg := config.ExactlyOncePreset()
	cfg.RetransTimeout = 50 * time.Millisecond
	return cfg
}

// CompositeRig builds the composite protocol under cfg: echo servers 1..n
// and a client that calls all of them.
func CompositeRig(cfg mrpc.Config, n int) Rig {
	sys := mrpc.NewSystem(mrpc.SystemOptions{})
	newApp := func() mrpc.App { return echoApp{} }
	if cfg.Execution == config.ExecAtomic {
		newApp = func() mrpc.App { return newCountingApp() } // checkpointable
	}
	ids := make([]mrpc.ProcID, n)
	for i := range ids {
		ids[i] = mrpc.ProcID(i + 1)
		if _, err := sys.AddServer(ids[i], cfg, newApp); err != nil {
			panic(err)
		}
	}
	client, err := sys.AddClient(100, cfg)
	if err != nil {
		panic(err)
	}
	group := sys.Group(ids...)
	return Rig{
		Call: func() error {
			_, status, err := client.Call(opEcho, nil, group)
			if err == nil && status != mrpc.StatusOK {
				err = fmt.Errorf("composite call: %v", status)
			}
			return err
		},
		Stop: sys.Stop,
	}
}

// FusedRig builds the monolithic baseline: exactly-once group RPC fused
// into two tight loops, with servers 1..n and acceptance of all n.
func FusedRig(n int) Rig {
	clk := clock.NewReal()
	net := mrpc.NewSimNet(clk, mrpc.NetParams{})
	ids := make([]msg.ProcID, n)
	for i := range ids {
		ids[i] = msg.ProcID(i + 1)
		if _, err := baseline.NewServer(net, ids[i], func(_ msg.OpID, args []byte) []byte {
			return args
		}); err != nil {
			panic(err)
		}
	}
	client, err := baseline.NewClient(net, clk, 100, 50*time.Millisecond)
	if err != nil {
		panic(err)
	}
	group := msg.NewGroup(ids...)
	return Rig{
		Call: func() error {
			client.Call(opEcho, nil, group, n)
			return nil
		},
		Stop: func() {
			client.Close()
			net.Stop()
		},
	}
}

// CompactRig builds the §4.1 point-to-point specialization: one server,
// exactly-once semantics in fused code.
func CompactRig() Rig {
	clk := clock.NewReal()
	net := mrpc.NewSimNet(clk, mrpc.NetParams{})
	opts := p2p.Options{Reliable: true, Unique: true, RetransTimeout: 50 * time.Millisecond}
	srv, err := p2p.NewServer(net, 1, opts, func(_ *proc.Thread, _ msg.OpID, args []byte) []byte {
		return args
	})
	if err != nil {
		panic(err)
	}
	client, err := p2p.NewClient(net, clk, 100, opts)
	if err != nil {
		panic(err)
	}
	return Rig{
		Call: func() error {
			if _, status := client.Call(1, opEcho, nil); status != msg.StatusOK {
				return fmt.Errorf("p2p call: %v", status)
			}
			return nil
		},
		Stop: func() {
			client.Close()
			srv.Close()
			net.Stop()
		},
	}
}

// warmupCalls precede every timed window, so connection set-up, pool
// growth and first-call table inserts are not charged to the mean.
const warmupCalls = 50

// perCall makes warmupCalls untimed calls on r, then returns the mean
// wall-clock time of the next calls, and stops r. A failed call panics:
// on the rigs' perfect network only a bug can fail one.
func perCall(r Rig, calls int) time.Duration {
	defer r.Stop()
	call := func() {
		if err := r.Call(); err != nil {
			panic(err)
		}
	}
	for i := 0; i < warmupCalls; i++ {
		call()
	}
	clk := clock.NewReal()
	t0 := clk.Now()
	for i := 0; i < calls; i++ {
		call()
	}
	return clk.Now().Sub(t0) / time.Duration(calls)
}
