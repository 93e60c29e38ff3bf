package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mrpc/internal/event"
	"mrpc/internal/msg"
)

// runTraced measures the workload twice, half the span each: first
// untraced (the reference for the tracing overhead, the Go runtime
// counters and the generator's lateness), then with every probe on, which
// gives the per-layer metrics. The traced phase's spans are written to
// spansPath at the end.
func runTraced(w *workload, seed int64, dur time.Duration, spansPath string) (*outcome, error) {
	epoch := time.Now()
	half := dur / 2

	pa := newProbes(epoch)
	sa, err := build(w, seed, seed, pa, false)
	if err != nil {
		return nil, err
	}
	resA, checksA := sa.drive(half, seed, false)
	sa.stop()
	runtime.GC()

	pb := newProbes(epoch)
	sb, err := build(w, seed, seed, pb, true)
	if err != nil {
		return nil, err
	}
	ing0 := ingress(sb)
	resB, checksB := sb.drive(half, seed, true)
	net := sb.tap.Stats()
	ing1 := ingress(sb)
	sb.stop()

	out := &outcome{
		correct:   allOK(checksA) && allOK(checksB),
		attempted: resA.attempted + resB.attempted,
		failed:    resA.failed + resB.failed,
		checks:    append(prefixed("untraced.", checksA), prefixed("traced.", checksB)...),
	}
	maxIngress := 0.0
	for id, n := range ing1 {
		maxIngress = math.Max(maxIngress, float64(n-ing0[id]))
	}
	out.metrics = pb.layers(resA, resB, maxIngress, net.Reconnects, float64(net.Dropped+net.Partition+net.DownDrops), float64(net.Sent))
	if err := pb.writeSpans(spansPath); err != nil {
		return nil, err
	}
	return out, nil
}

func prefixed(p string, cs []check) []check {
	out := make([]check, len(cs))
	for i, c := range cs {
		c.name = p + c.name
		out[i] = c
	}
	return out
}

// ingress returns every endpoint's delivered-frame count.
func ingress(s *system) map[msg.ProcID]int64 {
	m := make(map[msg.ProcID]int64)
	for _, e := range s.tap.endpoints() {
		m[e.id] = e.Stats().Ingress
	}
	return m
}

// layers derives the per-layer metrics. Counters cover the traced phase's
// measured span and are divided by its OK calls; the Go runtime figures,
// the generator's lateness and the overhead reference come from the
// untraced phase a.
func (p *probes) layers(a, b *loadResult, maxIngress float64, reconnects int64, dropped, sent float64) []metric {
	ea, eb := a.summary(), b.summary()
	calls := float64(eb.calls)
	nc := fmt.Sprintf("%d calls", eb.calls)
	per := func(v int64) float64 { return ratio(float64(v), calls) }
	avg := func(sum, n int64) float64 { return ratio(float64(sum), float64(n)) }
	frames, msgs := p.frames.Load(), p.msgs.Load()

	var evNs, evN int64
	for i := range p.evNs {
		evNs += p.evNs[i].Load()
		evN += p.evN[i].Load()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	enc, dec := codecCost(p.capture)
	retransCalls := len(p.retransCalls)
	transit := append([]float64(nil), p.transitUs...)

	ms := []metric{
		{"stub.marshal_ns_per_call", "ns", avg(p.marshalNs.Load(), p.marshals.Load()), fmt.Sprintf("%d calls", p.marshals.Load())},
		{"stub.unmarshal_ns_per_call", "ns", avg(p.unmarshalNs.Load(), p.unmarshals.Load()), fmt.Sprintf("%d executions", p.unmarshals.Load())},
		{"app.exec_ns", "ns", avg(p.execNs.Load(), p.execs.Load()), fmt.Sprintf("%d executions", p.execs.Load())},
		{"app.execs_per_call", "count", per(p.execs.Load()), nc},
		{"event.dispatch_ns_per_call", "ns", per(evNs), nc},
		{"event.handlers_per_call", "count", per(evN), nc},
	}
	for _, t := range []event.Type{event.CallFromUser, event.MsgFromNetwork, event.ReplyFromServer, event.Timeout} {
		ms = append(ms, metric{"event." + t.String() + ".ns_per_call", "ns", per(p.evNs[t].Load()),
			fmt.Sprintf("%d handler runs", p.evN[t].Load())})
	}
	ms = append(ms,
		metric{"core.recv_ns_per_frame", "ns", avg(p.recvNs.Load(), p.recvFrames.Load()), fmt.Sprintf("%d frames", p.recvFrames.Load())},
		metric{"core.client_pending_p99", "count", quantile(p.pendClient, 0.99), fmt.Sprintf("%d samples", len(p.pendClient))},
		metric{"core.server_pending_p99", "count", quantile(p.pendServer, 0.99), fmt.Sprintf("%d samples", len(p.pendServer))},
		metric{"core.flush.msgs_per_frame", "count", avg(msgs, frames), fmt.Sprintf("%d frames", frames)},
		metric{"core.flush.batched_frac", "ratio", avg(p.batchMsgs.Load(), msgs), fmt.Sprintf("%d messages", msgs)},
		metric{"core.dissem.origin_frames_per_call", "count", per(p.originFrames.Load()), nc},
		metric{"core.dissem.relay_frames_per_call", "count", per(p.relayFrames.Load()), nc},
		metric{"core.dissem.max_ingress_per_call", "count", ratio(maxIngress, calls), nc},
		metric{"core.reliable.retrans_per_call", "count", ratio(float64(p.retrans), float64(retransCalls)), fmt.Sprintf("%d sampled calls", retransCalls)},
		metric{"core.unique.dup_dropped_per_call", "count", per(p.dupDropped.Load()), nc},
		metric{"core.total.order_frames_per_call", "count", per(p.orderMsgs.Load()), nc},
		metric{"msg.bytes_per_call", "B", per(p.bytes.Load()), nc},
		metric{"msg.encode_ns_per_frame", "ns", enc, fmt.Sprintf("%d captured frames", len(p.capture))},
		metric{"msg.decode_ns_per_frame", "ns", dec, fmt.Sprintf("%d captured frames", len(p.capture))},
		metric{"transport.frames_per_call", "count", per(frames), nc},
		metric{"transport.send_ns_per_frame", "ns", avg(p.sendNs.Load(), frames), fmt.Sprintf("%d frames", frames)},
		metric{"transport.transit_us_p50", "us", quantile(transit, 0.50), fmt.Sprintf("%d sampled frames", len(transit))},
		metric{"transport.transit_us_p99", "us", quantile(transit, 0.99), fmt.Sprintf("%d sampled frames", len(transit))},
		metric{"transport.dropped_frac", "ratio", ratio(dropped, sent), fmt.Sprintf("%.0f frames", sent)},
		metric{"nettcp.reconnects", "count", float64(reconnects), "1 run"},
	)

	ra := func(i int) float64 { return a.rt1[i].Value.Float64() - a.rt0[i].Value.Float64() }
	ru := func(i int) float64 { return float64(a.rt1[i].Value.Uint64() - a.rt0[i].Value.Uint64()) }
	na := fmt.Sprintf("%d calls (untraced)", ea.calls)
	ms = append(ms,
		metric{"go.allocs_per_call", "count", ratio(ru(0), float64(ea.calls)), na},
		metric{"go.bytes_per_call", "B", ratio(ru(1), float64(ea.calls)), na},
		metric{"go.gc_cpu_frac", "ratio", ratio(ra(2), ra(3)), "1 span (untraced)"},
	)

	var st [len(stageNames)][]float64
	for _, s := range p.spans {
		if v, ok := s.stages(); ok {
			for i := range v {
				st[i] = append(st[i], v[i])
			}
		}
	}
	sum := 0.0
	for i, name := range stageNames {
		n := fmt.Sprintf("%d spans", len(st[i]))
		p50 := quantile(st[i], 0.50)
		sum += p50
		ms = append(ms,
			metric{"span." + name + "_us", "us", p50, n},
			metric{"span." + name + "_p99_us", "us", quantile(st[i], 0.99), n})
	}
	ms = append(ms,
		metric{"gen.lag_p99_us", "us", a.lagP99(), fmt.Sprintf("%d sends (untraced)", len(a.lagUs))},
		metric{"trace.lat_p50_us", "us", eb.p50, fmt.Sprintf("%d latencies", eb.samples)},
		metric{"trace.overhead_frac", "ratio", eb.p50/ea.p50 - 1, fmt.Sprintf("%d vs %d latencies", eb.samples, ea.samples)},
		metric{"attrib.unexplained_frac", "ratio", math.Abs(eb.p50-sum) / eb.p50, fmt.Sprintf("%d spans", len(st[0]))},
	)
	return ms
}

// codecCost replays the captured frames through the wire codec and
// returns the mean encode and decode time per frame in ns.
func codecCost(frames [][]byte) (enc, dec float64) {
	if len(frames) == 0 {
		return 0, 0
	}
	reps := max(1, 50000/len(frames))
	decoded := make([]*msg.NetMsg, len(frames))
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for i, f := range frames {
			m, err := msg.DecodeShared(f)
			if err != nil {
				return math.NaN(), math.NaN()
			}
			decoded[i] = m
		}
	}
	dec = float64(time.Since(t0).Nanoseconds()) / float64(reps*len(frames))
	buf := make([]byte, 0, 64<<10)
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, m := range decoded {
			buf = m.AppendEncode(buf[:0])
		}
	}
	enc = float64(time.Since(t0).Nanoseconds()) / float64(reps*len(frames))
	return enc, dec
}

// writeSpans writes the traced phase's sampled calls, one JSON object per
// line: raw timestamps (ns since the run's start) and, for complete spans,
// the stage durations in µs.
func (p *probes) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	p.mu.Lock()
	for k, s := range p.spans {
		rec := map[string]any{
			"client": k.client, "seq": k.seq, "server": s.last,
			"call_ns": s.call, "issue_ns": s.issue, "done_ns": s.done, "return_ns": s.ret,
		}
		if s.last > 0 {
			rec["exec_begin_ns"], rec["exec_end_ns"], rec["accept_ns"] = s.execB[s.last], s.execE[s.last], s.acc[s.last]
		}
		if st, ok := s.stages(); ok {
			stages := make(map[string]float64, len(st))
			for i, name := range stageNames {
				stages[name+"_us"] = st[i]
			}
			rec["stages"] = stages
		}
		if err := enc.Encode(rec); err != nil {
			break
		}
	}
	p.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
