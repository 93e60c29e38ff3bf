// Package workload drives configured RPC systems with reproducible client
// workloads for the experiment harness: closed-loop and open-loop clients
// and payload generators.
package workload

import (
	"fmt"
	"sync"
	"time"

	"mrpc"
	"mrpc/internal/clock"
	"mrpc/internal/proc"
	"mrpc/internal/trace"
)

// clockOrReal lets workload values default to wall-clock time while staying
// fully routed through clock.Clock, so a workload can drive a simulated
// system deterministically by injecting the system's Sim clock.
func clockOrReal(c clock.Clock) clock.Clock {
	if c == nil {
		return clock.NewReal()
	}
	return c
}

// Payload generates the argument bytes for the i-th call of a client.
type Payload func(client mrpc.ProcID, call int) []byte

// FixedPayload returns a Payload producing the same bytes every call.
func FixedPayload(b []byte) Payload {
	return func(mrpc.ProcID, int) []byte { return b }
}

// SeqPayload returns a Payload encoding "client:call" for tracing.
func SeqPayload() Payload {
	return func(c mrpc.ProcID, i int) []byte {
		return []byte(fmt.Sprintf("%d:%d", c, i))
	}
}

// ClosedLoop is a workload in which each client issues calls back-to-back
// (optionally separated by think time) until it has completed Calls calls.
type ClosedLoop struct {
	// Op is the operation to invoke.
	Op mrpc.OpID
	// Group is the destination server group.
	Group mrpc.Group
	// Calls is the number of calls per client.
	Calls int
	// Payload generates per-call arguments (default: empty).
	Payload Payload
	// Think pauses between a client's calls.
	Think time.Duration
	// Clock is the time source for pacing and latency measurement
	// (default: the real clock). Inject the system's clock to run the
	// workload under simulated time.
	Clock clock.Clock
}

// Result summarizes one workload execution.
type Result struct {
	Latency  *trace.Recorder
	OK       int
	Timeout  int
	Aborted  int
	Errors   int
	Elapsed  time.Duration
	CallsRun int
}

// Throughput returns completed (OK) calls per second.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.OK) / r.Elapsed.Seconds()
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("calls=%d ok=%d timeout=%d aborted=%d err=%d tput=%.0f/s %s",
		r.CallsRun, r.OK, r.Timeout, r.Aborted, r.Errors, r.Throughput(),
		r.Latency.Summary())
}

// Run executes the workload with one goroutine per client node and returns
// the aggregate result.
func (w ClosedLoop) Run(clients []*mrpc.Node) *Result {
	payload := w.Payload
	if payload == nil {
		payload = FixedPayload(nil)
	}
	res := &Result{Latency: trace.NewRecorder("latency")}
	clk := clockOrReal(w.Clock)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	start := clk.Now()
	for _, c := range clients {
		c := c
		wg.Add(1)
		proc.Go(func(_ *proc.Thread) {
			defer wg.Done()
			for i := 0; i < w.Calls; i++ {
				if w.Think > 0 {
					clk.Sleep(w.Think)
				}
				t0 := clk.Now()
				_, status, err := c.Call(w.Op, payload(c.ID(), i), w.Group)
				d := clk.Now().Sub(t0)
				mu.Lock()
				res.CallsRun++
				switch {
				case err != nil:
					res.Errors++
				case status == mrpc.StatusOK:
					res.OK++
					res.Latency.Add(d)
				case status == mrpc.StatusTimeout:
					res.Timeout++
				default:
					res.Aborted++
				}
				mu.Unlock()
			}
		})
	}
	wg.Wait()
	res.Elapsed = clk.Now().Sub(start)
	return res
}

// OpenLoop is a workload in which calls arrive at a fixed rate regardless
// of completions (one goroutine is spawned per arrival, up to MaxInFlight
// outstanding). Unlike ClosedLoop it exposes queueing behaviour: if the
// service cannot keep up, latency grows instead of throughput saturating.
type OpenLoop struct {
	// Op is the operation to invoke.
	Op mrpc.OpID
	// Group is the destination server group.
	Group mrpc.Group
	// Rate is arrivals per second (across all clients).
	Rate float64
	// Duration is how long arrivals are generated.
	Duration time.Duration
	// MaxInFlight bounds outstanding calls (default 1024); arrivals beyond
	// the bound are counted as shed.
	MaxInFlight int
	// Payload generates per-call arguments (default: empty).
	Payload Payload
	// Clock is the time source for pacing and latency measurement
	// (default: the real clock).
	Clock clock.Clock
}

// OpenResult extends Result with arrival accounting.
type OpenResult struct {
	Result
	Offered int
	Shed    int
}

// Run generates arrivals round-robin across the clients and returns once
// every accepted call has completed.
func (w OpenLoop) Run(clients []*mrpc.Node) *OpenResult {
	if w.Rate <= 0 || len(clients) == 0 {
		return &OpenResult{Result: Result{Latency: trace.NewRecorder("latency")}}
	}
	if w.MaxInFlight <= 0 {
		w.MaxInFlight = 1024
	}
	payload := w.Payload
	if payload == nil {
		payload = FixedPayload(nil)
	}

	res := &OpenResult{Result: Result{Latency: trace.NewRecorder("latency")}}
	clk := clockOrReal(w.Clock)
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		inflight = make(chan struct{}, w.MaxInFlight)
	)
	launch := func(seq int) {
		res.Offered++
		select {
		case inflight <- struct{}{}:
		default:
			res.Shed++
			return
		}
		c := clients[seq%len(clients)]
		wg.Add(1)
		proc.Go(func(_ *proc.Thread) {
			defer wg.Done()
			defer func() { <-inflight }()
			t0 := clk.Now()
			_, status, err := c.Call(w.Op, payload(c.ID(), seq), w.Group)
			d := clk.Now().Sub(t0)
			mu.Lock()
			res.CallsRun++
			switch {
			case err != nil:
				res.Errors++
			case status == mrpc.StatusOK:
				res.OK++
				res.Latency.Add(d)
			case status == mrpc.StatusTimeout:
				res.Timeout++
			default:
				res.Aborted++
			}
			mu.Unlock()
		})
	}

	// Pace arrivals against the clock in ~1ms batches, so high rates are
	// not capped by timer resolution (a time.Ticker coalesces missed ticks
	// and would silently lower the offered rate).
	start := clk.Now()
	issued := 0
	for {
		elapsed := clk.Now().Sub(start)
		if elapsed >= w.Duration {
			break
		}
		due := int(w.Rate * elapsed.Seconds())
		if max := int(w.Rate * w.Duration.Seconds()); due > max {
			due = max
		}
		for issued < due {
			launch(issued)
			issued++
		}
		clk.Sleep(time.Millisecond)
	}
	wg.Wait()
	res.Elapsed = clk.Now().Sub(start)
	return res
}
