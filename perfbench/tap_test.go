package main

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mrpc"
	"mrpc/internal/clock"
	"mrpc/internal/transport"
)

// transparencyRun drives a fixed sequence of calls through a system on
// netsim, with the transport wrapped as wrap decides, and returns what an
// observer of the system sees: the call outcomes, the transport counters
// and every endpoint's counters. Batching is off and retransmission slow,
// so the frame sequence is the same on every run.
func transparencyRun(t *testing.T, wrap func(transport.Transport) transport.Transport) (outcomes []string, st transport.Stats, eps map[mrpc.ProcID]transport.EndpointStats) {
	t.Helper()
	tr := wrap(mrpc.NewSimNet(clock.NewReal(), mrpc.NetParams{}))
	sys := mrpc.NewSystem(mrpc.SystemOptions{Transport: tr})
	defer sys.Stop()
	cfg := mrpc.ExactlyOnce()
	cfg.AcceptanceLimit = mrpc.AcceptAll
	cfg.FlushSize = 1
	cfg.RetransTimeout = time.Minute
	reg := mrpc.NewRegistry()
	op := reg.Register("echo", func(_ *mrpc.Thread, args []byte) []byte { return args })
	var nodes []*mrpc.Node
	for id := mrpc.ProcID(1); id <= 3; id++ {
		n, err := sys.AddServer(id, cfg, func() mrpc.App { return reg })
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	client, err := sys.AddClient(clientBase, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes = append(nodes, client)
	for i := 0; i < 200; i++ {
		args := []byte(fmt.Sprintf("call-%d", i))
		reply, status, err := client.Call(op, args, sys.Group(1, 2, 3))
		outcomes = append(outcomes, fmt.Sprintf("%v %v %v", status, err, bytes.Equal(reply, args)))
	}
	sys.Quiesce()
	eps = make(map[mrpc.ProcID]transport.EndpointStats)
	for _, n := range nodes {
		eps[n.ID()] = n.Link().Stats()
	}
	return outcomes, sys.Net().Stats(), eps
}

// TestTapIsTransparent checks that the timing decorator changes nothing a
// system can observe, with its probes off and on: the same call outcomes,
// the same transport counters (frames sent, delivered, batched) and the
// same per-endpoint traffic as the bare transport.
func TestTapIsTransparent(t *testing.T) {
	wantOut, wantSt, wantEps := transparencyRun(t, func(tr transport.Transport) transport.Transport { return tr })
	for _, on := range []bool{false, true} {
		p := newProbes(time.Now())
		p.on.Store(on)
		out, st, eps := transparencyRun(t, func(tr transport.Transport) transport.Transport { return newTap(tr, p) })
		if fmt.Sprint(out) != fmt.Sprint(wantOut) {
			t.Errorf("probes on=%v: call outcomes differ", on)
		}
		if st != wantSt {
			t.Errorf("probes on=%v: stats %+v, want %+v", on, st, wantSt)
		}
		if fmt.Sprint(eps) != fmt.Sprint(wantEps) {
			t.Errorf("probes on=%v: endpoint stats %v, want %v", on, eps, wantEps)
		}
		if on && p.frames.Load() != st.Sent {
			t.Errorf("probes counted %d frames, transport sent %d", p.frames.Load(), st.Sent)
		}
		if !on && p.frames.Load() != 0 {
			t.Errorf("probes off counted %d frames", p.frames.Load())
		}
	}
	for _, o := range wantOut {
		if o != "OK <nil> true" {
			t.Fatalf("bare run had a failed call: %s", o)
		}
	}
}
