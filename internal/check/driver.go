package check

import (
	"fmt"
	"time"

	"mrpc"
	"mrpc/internal/clock"
	"mrpc/internal/core"
	"mrpc/internal/msg"
	"mrpc/internal/proc"
	"mrpc/internal/trace"
)

// Result is one conformance run's outcome: the structured trace, the
// violations found by the applicable oracles (empty when the run
// conforms), and the timing-independent digest a -repro run must
// reproduce.
type Result struct {
	Scenario   Scenario
	Profile    Profile
	Events     []trace.Event
	Violations []Violation
	Digest     string
}

const (
	// runRetransTimeout replaces the 20ms retransmission default so lossy
	// runs converge quickly.
	runRetransTimeout = 5 * time.Millisecond
	// defaultTimeBound is the per-call deadline when a scenario enables
	// bounded termination without choosing one: generous enough that only
	// a deliberate blackhole produces timeouts.
	defaultTimeBound = 5 * time.Second
	// runDeadline bounds the whole run — call batches, worker joins, and
	// the settle loop. A run that cannot settle is reported as an error,
	// not a violation.
	runDeadline = 30 * time.Second
)

// normalizeRun applies the driver's speed defaults to a scenario
// configuration.
func normalizeRun(c mrpc.Config) mrpc.Config {
	c.RetransTimeout = runRetransTimeout
	if c.Bounded && c.TimeBound <= 0 {
		c.TimeBound = defaultTimeBound
	}
	return c
}

// TransportFactory builds the substrate a conformance run attaches its
// nodes to, using the run's clock. nil selects the simulator configured
// from the scenario's fault parameters.
type TransportFactory func(clk clock.Clock) mrpc.Transport

// Run executes one scenario over the simulator and replays its trace
// through every applicable oracle. The fault schedule is step-indexed
// (each step completes before the next begins) and every random source is
// seeded from the scenario, so a rerun reproduces the same digest.
func Run(sc Scenario) (*Result, error) { return RunOver(sc, nil) }

// RunOver executes one scenario over the substrate newTransport builds —
// the cross-transport conformance entry point: a fault-free scenario's
// digest is timing-independent (sorted terminal statuses, exec sets), so
// it must agree between the simulator and a real transport. Scenarios
// using simulator-only machinery (loss, duplication, delay, partitions)
// are rejected when newTransport is non-nil; crash/recover steps are fine
// (endpoint up/down is part of the seam).
func RunOver(sc Scenario, newTransport TransportFactory) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if newTransport != nil {
		if sc.LossPct > 0 || sc.DupPct > 0 || sc.MaxDelayUS > 0 ||
			sc.ReorderPct > 0 || len(sc.Wan) > 0 || sc.Detector != nil {
			return nil, fmt.Errorf("check: scenario %s needs simulated faults; run it on the simulator", sc.Name)
		}
		for _, st := range sc.Steps {
			switch st.Kind {
			case StepPartition, StepHeal:
				return nil, fmt.Errorf("check: scenario %s partitions links; run it on the simulator", sc.Name)
			case StepGray, StepFlap:
				return nil, fmt.Errorf("check: scenario %s uses adversarial profiles; run it on the simulator", sc.Name)
			}
		}
	}
	timeline, err := sc.ConfigTimeline()
	if err != nil {
		return nil, err
	}
	cfg := normalizeRun(timeline[0])

	membership := mrpc.MembershipNone
	for _, st := range sc.Steps {
		if st.Kind == StepCrash {
			membership = mrpc.MembershipOracle
		}
	}

	log := trace.NewLog()
	opts := mrpc.SystemOptions{
		Net: mrpc.NetParams{
			Seed:     sc.Seed,
			LossProb: float64(sc.LossPct) / 100,
			DupProb:  float64(sc.DupPct) / 100,
			MaxDelay: time.Duration(sc.MaxDelayUS) * time.Microsecond,
		},
		Membership: membership,
		Trace:      log,
	}
	if sc.ReorderPct > 0 {
		window, spread := sc.ReorderWindow, sc.ReorderSpreadUS
		if window <= 0 {
			window = 4
		}
		if spread <= 0 {
			spread = 500
		}
		opts.Net.Reorder = mrpc.ReorderParams{
			Prob:   float64(sc.ReorderPct) / 100,
			Window: window,
			Spread: time.Duration(spread) * time.Microsecond,
		}
	}
	if sc.Detector != nil {
		// A detector spec overrides the crash oracle: the run's membership
		// view is the heartbeat detector's belief, crashes and all.
		opts.Membership = mrpc.MembershipDetector
		opts.HeartbeatInterval = time.Duration(sc.Detector.HeartbeatUS) * time.Microsecond
		opts.SuspectAfter = time.Duration(sc.Detector.SuspectUS) * time.Microsecond
	}
	if newTransport != nil {
		opts.Clock = clock.NewReal()
		opts.Transport = newTransport(opts.Clock)
	}
	sys := mrpc.NewSystem(opts)
	defer sys.Stop()
	clk := sys.Clock()

	for _, w := range sc.Wan {
		sys.Sim().SetLinkProfile(w.From, w.To, mrpc.LinkProfile{
			MinDelay:    time.Duration(w.MinUS) * time.Microsecond,
			MaxDelay:    time.Duration(w.MaxUS) * time.Microsecond,
			SpikeProb:   float64(w.SpikePct) / 100,
			SpikeDelay:  time.Duration(w.SpikeUS) * time.Microsecond,
			BytesPerSec: int64(w.KBps) * 1000,
		})
	}

	members := make([]msg.ProcID, 0, sc.Servers)
	for i := 1; i <= sc.Servers; i++ {
		id := msg.ProcID(i)
		if _, err := sys.AddServer(id, cfg, func() mrpc.App { return newCheckApp() }); err != nil {
			return nil, err
		}
		members = append(members, id)
	}
	group := sys.Group(members...)

	clients := make(map[msg.ProcID]*mrpc.Node)
	for _, st := range sc.Steps {
		if st.Kind != StepCalls || clients[st.Client] != nil {
			continue
		}
		n, err := sys.AddClient(st.Client, cfg)
		if err != nil {
			return nil, err
		}
		clients[st.Client] = n
	}

	deadline := clk.Now().Add(runDeadline)
	var workers []*workerHandle
	var blocked [][2]msg.ProcID
	var flaps []<-chan struct{}

	for i, st := range sc.Steps {
		switch st.Kind {
		case StepCalls:
			w := startBatch(st.Client, clients[st.Client], st.N, group)
			if st.Wait {
				if !w.join(clk, deadline) {
					return nil, fmt.Errorf("check: step %d: call batch did not complete", i)
				}
			} else {
				workers = append(workers, w)
			}
		case StepPartition:
			sys.Sim().Partition(st.A, st.B, true)
			blocked = append(blocked, [2]msg.ProcID{st.A, st.B})
		case StepHeal:
			for _, p := range blocked {
				sys.Sim().Partition(p[0], p[1], false)
			}
			blocked = nil
		case StepCrash:
			n, ok := sys.Node(st.Node)
			if !ok {
				return nil, fmt.Errorf("check: step %d: no node %d", i, st.Node)
			}
			n.Crash()
		case StepRecover:
			n, ok := sys.Node(st.Node)
			if !ok {
				return nil, fmt.Errorf("check: step %d: no node %d", i, st.Node)
			}
			// A no-wait batch the node issued belongs to the incarnation
			// that crashed: let it run out (its remaining calls fail fast
			// while the node is down) before recovery, or calls it issues
			// after the restart would join the new incarnation — a count
			// that depends on scheduling, not on the schedule.
			for _, w := range workers {
				if w.client == st.Node && !w.join(clk, deadline) {
					return nil, fmt.Errorf("check: step %d: orphaned call batch did not finish", i)
				}
			}
			if err := n.Recover(); err != nil {
				return nil, err
			}
		case StepReconfigure:
			next, err := st.To.Config()
			if err != nil {
				return nil, err
			}
			if err := sys.Reconfigure(normalizeRun(next)); err != nil {
				return nil, fmt.Errorf("check: step %d: %w", i, err)
			}
		case StepGray:
			d := time.Duration(st.DelayUS) * time.Microsecond
			sys.Sim().SetGraySlow(st.Node, d)
			k := trace.KGrayEnd
			if d > 0 {
				k = trace.KGrayStart
			}
			log.Record(trace.Event{Kind: k, Site: st.Node, Note: d.String()})
		case StepFlap:
			period := time.Duration(st.PeriodUS) * time.Microsecond
			log.Record(trace.Event{Kind: trace.KFlap, Site: st.A, From: st.B,
				Op: msg.OpID(st.Cycles), Note: period.String()})
			done := sys.Sim().StartFlap(st.A, st.B, period, st.Cycles)
			if st.Wait {
				if !waitChan(clk, done, deadline) {
					return nil, fmt.Errorf("check: step %d: flap did not complete", i)
				}
			} else {
				flaps = append(flaps, done)
			}
		}
	}

	for _, w := range workers {
		if !w.join(clk, deadline) {
			return nil, fmt.Errorf("check: no-wait call batch did not complete")
		}
	}
	for _, done := range flaps {
		if !waitChan(clk, done, deadline) {
			return nil, fmt.Errorf("check: flap cycle train did not complete")
		}
	}

	// Settle: wait until no server holds a call and no reliable-layer
	// (re)transmission is outstanding, so the trace contains every event a
	// lingering delivery could still produce.
	if err := settle(sys, sc.Servers, deadline); err != nil {
		return nil, err
	}

	if sc.Detector != nil {
		// Grace window: a transient suspicion raised near the end of the
		// run (a scheduler stall under CPU contention can open a heartbeat
		// gap) needs one more delayed heartbeat to clear. The no-false-
		// suspicion oracle only faults beliefs still stuck when the trace
		// is sealed, so sleep a full suspicion threshold plus the residual
		// gray lag — enough for a fresh heartbeat round even if the stall
		// that caused the suspicion bleeds into the grace window.
		grace := time.Duration(sc.Detector.SuspectUS+3*sc.Detector.HeartbeatUS) * time.Microsecond
		for _, st := range sc.Steps {
			if st.Kind == StepGray {
				grace += time.Duration(st.DelayUS) * time.Microsecond
			}
		}
		clk.Sleep(grace)
	}

	events := log.Events()
	t := NewTrace(events)
	p := Profile{
		Configs:    timeline,
		Group:      group,
		Lossy:      sc.Lossy(),
		Reordering: sc.Reordering(),
		Gray:       sc.GrayUnderThreshold(),
	}
	return &Result{
		Scenario:   sc,
		Profile:    p,
		Events:     events,
		Violations: Evaluate(p, t),
		Digest:     Digest(p, t),
	}, nil
}

// settle polls the group until server-side call tables and the reliable
// layer's transmission entries drain, and every frame sent has been
// delivered or counted lost.
func settle(sys *mrpc.System, servers int, deadline time.Time) error {
	clk := sys.Clock()
	for {
		sys.Quiesce()
		// Over TCP, Quiesce treats a frame written to a socket as done, so
		// a relayed call can still be on the wire once Reliable
		// Communication is off. Wait for the accounting identity too: sent
		// + duplicated = delivered + dropped + partitioned + down.
		st := sys.Net().Stats()
		unsettled := max(0, int(st.Sent+st.Duplicated-st.Delivered-st.Dropped-st.Partition-st.DownDrops))
		pending := unsettled
		for i := 1; i <= servers; i++ {
			n, ok := sys.Node(msg.ProcID(i))
			if !ok || n.Down() {
				continue
			}
			pending += n.Composite().Framework().PendingServerCalls()
		}
		if rc, ok := outstandingOf(sys, servers); ok {
			pending += rc
		}
		if pending == 0 {
			return nil
		}
		if clk.Now().After(deadline) {
			detail := ""
			for i := 1; i <= servers; i++ {
				n, ok := sys.Node(msg.ProcID(i))
				if !ok || n.Down() {
					continue
				}
				if held := n.Composite().Framework().PendingServerCalls(); held > 0 {
					detail += fmt.Sprintf(" node%d:held=%d", i, held)
				}
			}
			if rc, ok := outstandingOf(sys, servers); ok && rc > 0 {
				detail += fmt.Sprintf(" retrans=%d", rc)
			}
			if unsettled > 0 {
				detail += fmt.Sprintf(" frames=%d", unsettled)
			}
			return fmt.Errorf("check: settle timed out with %d pending%s", pending, detail)
		}
		clk.Sleep(time.Millisecond)
	}
}

// outstandingOf sums ReliableCommunication.Outstanding over every up node.
func outstandingOf(sys *mrpc.System, servers int) (int, bool) {
	total := 0
	found := false
	for id := msg.ProcID(1); int(id) <= servers+1; id++ {
		probe := id
		if int(id) == servers+1 {
			probe = ClientID
		}
		n, ok := sys.Node(probe)
		if !ok || n.Down() {
			continue
		}
		if rc, ok := n.Composite().Protocol("Reliable Communication").(*core.ReliableCommunication); ok {
			total += rc.Outstanding()
			found = true
		}
	}
	return total, found
}

// workerHandle tracks one call batch running on its own thread.
type workerHandle struct {
	client msg.ProcID
	th     *proc.Thread
}

// startBatch issues count sequential calls from n on a dedicated thread;
// statuses and errors are not inspected here — the structured trace is the
// record the oracles judge.
func startBatch(client msg.ProcID, n *mrpc.Node, count int, group mrpc.Group) *workerHandle {
	th := proc.Go(func(*proc.Thread) {
		for j := 0; j < count; j++ {
			_, _, _ = n.Call(OpWork, []byte{byte(j + 1)}, group)
		}
	})
	return &workerHandle{client: client, th: th}
}

// join waits for the batch to finish, polling against the run deadline.
func (w *workerHandle) join(clk clock.Clock, deadline time.Time) bool {
	return waitChan(clk, w.th.Done(), deadline)
}

// waitChan polls a completion channel against the run deadline.
func waitChan(clk clock.Clock, done <-chan struct{}, deadline time.Time) bool {
	for {
		select {
		case <-done:
			return true
		default:
		}
		if clk.Now().After(deadline) {
			return false
		}
		clk.Sleep(time.Millisecond)
	}
}
