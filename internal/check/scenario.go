package check

import (
	"fmt"
	"math/rand"
	"time"

	"mrpc/internal/config"
	"mrpc/internal/core"
	"mrpc/internal/msg"
)

// ConfigSpec is the JSON-serializable mirror of config.Config used in seed
// artifacts. Collation is excluded (a function does not serialize; every
// enumerated configuration uses the default last-reply-wins collation).
type ConfigSpec struct {
	Call        string `json:"call"` // "sync" | "async"
	Reliable    bool   `json:"reliable"`
	Bounded     bool   `json:"bounded"`
	TimeBoundMS int    `json:"time_bound_ms,omitempty"`
	Unique      bool   `json:"unique"`
	Exec        string `json:"exec"`   // "concurrent" | "serial" | "atomic"
	Order       string `json:"order"`  // "none" | "fifo" | "total" | "causal"
	Orphan      string `json:"orphan"` // "ignore" | "avoid-interference" | "terminate"
	Accept      int    `json:"accept"` // acceptance limit; -1 = all members
	Flush       int    `json:"flush,omitempty"`
	Diss        string `json:"diss,omitempty"`   // "" | "flat" | "tree" (D17)
	TreeK       int    `json:"tree_k,omitempty"` // tree fanout; 0 = default
}

// SpecOf converts a configuration into its serializable spec.
func SpecOf(c config.Config) ConfigSpec {
	s := ConfigSpec{
		Reliable:    c.Reliable,
		Bounded:     c.Bounded,
		TimeBoundMS: int(c.TimeBound / time.Millisecond),
		Unique:      c.Unique,
		Accept:      c.AcceptanceLimit,
		Flush:       c.FlushSize,
	}
	if c.AcceptanceLimit >= core.AcceptAll {
		s.Accept = -1
	}
	switch c.Call {
	case config.CallAsynchronous:
		s.Call = "async"
	default:
		s.Call = "sync"
	}
	switch c.Execution {
	case config.ExecSerial:
		s.Exec = "serial"
	case config.ExecAtomic:
		s.Exec = "atomic"
	default:
		s.Exec = "concurrent"
	}
	switch c.Ordering {
	case config.OrderFIFO:
		s.Order = "fifo"
	case config.OrderTotal:
		s.Order = "total"
	case config.OrderCausal:
		s.Order = "causal"
	default:
		s.Order = "none"
	}
	switch c.Orphan {
	case config.OrphanAvoidInterference:
		s.Orphan = "avoid-interference"
	case config.OrphanTerminate:
		s.Orphan = "terminate"
	default:
		s.Orphan = "ignore"
	}
	if c.Dissemination == config.DissTree {
		s.Diss = "tree"
		s.TreeK = c.TreeFanout
	}
	return s
}

// Config converts the spec back into a validated configuration.
func (s ConfigSpec) Config() (config.Config, error) {
	c := config.Config{
		Reliable:  s.Reliable,
		Bounded:   s.Bounded,
		TimeBound: time.Duration(s.TimeBoundMS) * time.Millisecond,
		Unique:    s.Unique,
		FlushSize: s.Flush,
	}
	switch s.Call {
	case "sync", "":
		c.Call = config.CallSynchronous
	case "async":
		c.Call = config.CallAsynchronous
	default:
		return c, fmt.Errorf("check: unknown call mode %q", s.Call)
	}
	switch s.Exec {
	case "concurrent", "":
		c.Execution = config.ExecConcurrent
	case "serial":
		c.Execution = config.ExecSerial
	case "atomic":
		c.Execution = config.ExecAtomic
	default:
		return c, fmt.Errorf("check: unknown exec mode %q", s.Exec)
	}
	switch s.Order {
	case "none", "":
		c.Ordering = config.OrderNone
	case "fifo":
		c.Ordering = config.OrderFIFO
	case "total":
		c.Ordering = config.OrderTotal
	case "causal":
		c.Ordering = config.OrderCausal
	default:
		return c, fmt.Errorf("check: unknown order mode %q", s.Order)
	}
	switch s.Orphan {
	case "ignore", "":
		c.Orphan = config.OrphanIgnore
	case "avoid-interference":
		c.Orphan = config.OrphanAvoidInterference
	case "terminate":
		c.Orphan = config.OrphanTerminate
	default:
		return c, fmt.Errorf("check: unknown orphan mode %q", s.Orphan)
	}
	switch {
	case s.Accept < 0:
		c.AcceptanceLimit = core.AcceptAll
	case s.Accept == 0:
		c.AcceptanceLimit = 1
	default:
		c.AcceptanceLimit = s.Accept
	}
	switch s.Diss {
	case "", "flat":
		c.Dissemination = config.DissFlat
	case "tree":
		c.Dissemination = config.DissTree
		c.TreeFanout = s.TreeK
	default:
		return c, fmt.Errorf("check: unknown dissemination mode %q", s.Diss)
	}
	return c, c.Validate()
}

// Step kinds. A scenario's fault schedule is step-indexed rather than
// time-indexed: each step completes before the next begins, which is what
// makes a seeded run reproduce the same trace digest.
const (
	StepCalls       = "calls"       // issue N calls from Client (Wait: sequentially, to completion)
	StepPartition   = "partition"   // block the A<->B link
	StepHeal        = "heal"        // unblock every partitioned link
	StepCrash       = "crash"       // crash Node
	StepRecover     = "recover"     // recover Node
	StepReconfigure = "reconfigure" // system-wide reconfiguration to To
	StepGray        = "gray"        // make Node gray-slow by DelayUS (0 clears) — D19
	StepFlap        = "flap"        // flap the A<->B link: Cycles split/heal cycles of PeriodUS
)

// Step is one entry of a scenario's schedule.
type Step struct {
	Kind   string      `json:"kind"`
	Client msg.ProcID  `json:"client,omitempty"`
	N      int         `json:"n,omitempty"`
	Wait   bool        `json:"wait,omitempty"`
	A      msg.ProcID  `json:"a,omitempty"`
	B      msg.ProcID  `json:"b,omitempty"`
	Node   msg.ProcID  `json:"node,omitempty"`
	To     *ConfigSpec `json:"to,omitempty"`
	// DelayUS is the gray-slow delay (StepGray; 0 clears the state).
	DelayUS int `json:"delay_us,omitempty"`
	// PeriodUS and Cycles script a partition flap (StepFlap). A flap step
	// with Wait runs to completion before the next step; without Wait it
	// races the following steps and is joined before the run settles.
	PeriodUS int `json:"period_us,omitempty"`
	Cycles   int `json:"cycles,omitempty"`
}

// WanLink is one directed adversarial link profile (D19): asymmetric
// latency bounds, optional heavy-tail spikes, optional bandwidth cap.
type WanLink struct {
	From     msg.ProcID `json:"from"`
	To       msg.ProcID `json:"to"`
	MinUS    int        `json:"min_us,omitempty"`
	MaxUS    int        `json:"max_us,omitempty"`
	SpikePct int        `json:"spike_pct,omitempty"`
	SpikeUS  int        `json:"spike_us,omitempty"`
	KBps     int        `json:"kbps,omitempty"` // kilobytes per second
}

// DetectorSpec enables heartbeat failure detection (MembershipDetector)
// for the run, replacing the crash oracle. Gray-slow scenarios use it: a
// member delayed by less than SuspectUS must never be reported down.
type DetectorSpec struct {
	HeartbeatUS int `json:"heartbeat_us"`
	SuspectUS   int `json:"suspect_us"`
}

// Scenario is one reproducible conformance run: a configuration, a network
// fault model, and a step schedule. It is the seed artifact the harness
// writes on a violation and replays with `mrpccheck -repro`.
type Scenario struct {
	Name       string     `json:"name"`
	Seed       int64      `json:"seed"`
	Servers    int        `json:"servers"`
	Config     ConfigSpec `json:"config"`
	LossPct    int        `json:"loss_pct,omitempty"`
	DupPct     int        `json:"dup_pct,omitempty"`
	MaxDelayUS int        `json:"max_delay_us,omitempty"`
	// Adversarial network profiles (D19). ReorderPct arms bounded reorder
	// storms: each storm scrambles up to ReorderWindow consecutive messages
	// per link within ReorderSpreadUS. Wan installs per-directed-link
	// latency/bandwidth profiles. Detector switches membership from the
	// crash oracle to the heartbeat failure detector.
	ReorderPct      int           `json:"reorder_pct,omitempty"`
	ReorderWindow   int           `json:"reorder_window,omitempty"`
	ReorderSpreadUS int           `json:"reorder_spread_us,omitempty"`
	Wan             []WanLink     `json:"wan,omitempty"`
	Detector        *DetectorSpec `json:"detector,omitempty"`
	Steps           []Step        `json:"steps"`
}

// ClientID is the process id every generated scenario uses for its client.
const ClientID = msg.ProcID(100)

// Lossy reports whether the scenario's network can withhold messages (loss
// probability or partition steps) — the Profile.Lossy input.
func (sc Scenario) Lossy() bool {
	if sc.LossPct > 0 {
		return true
	}
	for _, st := range sc.Steps {
		if st.Kind == StepPartition || st.Kind == StepFlap {
			return true
		}
	}
	return false
}

// Reordering reports whether the scenario's network can deliver messages
// out of send order on a link: reorder storms, plain random delay, or any
// WAN profile with jitter, spikes, or a bandwidth cap (different-size
// messages then take different serialization delays and can overtake).
// Oracles scoped to in-order substrates (the sync-FIFO same-set erosion,
// D15/D19) gate on it the same way they gate on Lossy.
func (sc Scenario) Reordering() bool {
	if sc.ReorderPct > 0 || sc.MaxDelayUS > 0 {
		return true
	}
	for _, w := range sc.Wan {
		if w.MaxUS > w.MinUS || w.SpikePct > 0 || w.KBps > 0 {
			return true
		}
	}
	return false
}

// GrayUnderThreshold returns the nodes some gray step delays by less than
// the detector's suspicion threshold — the members the no-false-suspicion
// oracle insists are never *stuck* suspected. Empty without a Detector.
func (sc Scenario) GrayUnderThreshold() []msg.ProcID {
	if sc.Detector == nil {
		return nil
	}
	seen := make(map[msg.ProcID]bool)
	var out []msg.ProcID
	for _, st := range sc.Steps {
		if st.Kind == StepGray && st.DelayUS > 0 && st.DelayUS < sc.Detector.SuspectUS && !seen[st.Node] {
			seen[st.Node] = true
			out = append(out, st.Node)
		}
	}
	return out
}

// CrossTransportSafe reports whether the scenario's digest is comparable
// across substrates: no simulated faults (loss, duplication, delay) and no
// timing-sensitive steps — only call batches and reconfigurations. A
// fault-free run completes every call OK and executes every call at every
// member, so its digest is fully timing-independent and the simulator and
// a real transport must produce the same one (mrpccheck -transport tcp).
func (sc Scenario) CrossTransportSafe() bool {
	if sc.LossPct > 0 || sc.DupPct > 0 || sc.MaxDelayUS > 0 {
		return false
	}
	if sc.ReorderPct > 0 || len(sc.Wan) > 0 || sc.Detector != nil {
		// Adversarial profiles are simulator features; the detector's
		// suspicion timing is also substrate-dependent (D19).
		return false
	}
	for _, st := range sc.Steps {
		if st.Kind != StepCalls && st.Kind != StepReconfigure {
			return false
		}
	}
	return true
}

// Validate checks the scenario's structural sanity: known step kinds,
// crash/recover pairing, call counts, and a convertible configuration. The
// shrinker relies on it to discard broken reductions before running them.
func (sc Scenario) Validate() error {
	if sc.Servers < 1 {
		return fmt.Errorf("check: scenario needs at least one server")
	}
	if _, err := sc.Config.Config(); err != nil {
		return err
	}
	if sc.ReorderPct < 0 || sc.ReorderWindow < 0 || sc.ReorderSpreadUS < 0 {
		return fmt.Errorf("check: negative reorder parameters")
	}
	for i, w := range sc.Wan {
		if w.From == w.To {
			return fmt.Errorf("check: wan link %d: self link %d->%d", i, w.From, w.To)
		}
		if w.MinUS < 0 || w.MaxUS < w.MinUS || w.SpikePct < 0 || w.SpikePct > 100 ||
			w.SpikeUS < 0 || w.KBps < 0 {
			return fmt.Errorf("check: wan link %d: bad profile %+v", i, w)
		}
	}
	if d := sc.Detector; d != nil {
		if d.HeartbeatUS < 1 || d.SuspectUS <= d.HeartbeatUS {
			return fmt.Errorf("check: detector spec needs 0 < heartbeat < suspect, got %+v", *d)
		}
	}
	down := make(map[msg.ProcID]bool)
	for i, st := range sc.Steps {
		switch st.Kind {
		case StepCalls:
			if st.N < 1 {
				return fmt.Errorf("check: step %d: calls step with n=%d", i, st.N)
			}
			if down[st.Client] {
				return fmt.Errorf("check: step %d: calls from down node %d", i, st.Client)
			}
		case StepPartition, StepHeal:
		case StepCrash:
			if down[st.Node] {
				return fmt.Errorf("check: step %d: node %d is already down", i, st.Node)
			}
			down[st.Node] = true
		case StepRecover:
			if !down[st.Node] {
				return fmt.Errorf("check: step %d: node %d is not down", i, st.Node)
			}
			down[st.Node] = false
		case StepReconfigure:
			if st.To == nil {
				return fmt.Errorf("check: step %d: reconfigure without a target", i)
			}
			if _, err := st.To.Config(); err != nil {
				return err
			}
		case StepGray:
			if st.Node == 0 {
				return fmt.Errorf("check: step %d: gray step without a node", i)
			}
			if st.DelayUS < 0 {
				return fmt.Errorf("check: step %d: negative gray delay", i)
			}
		case StepFlap:
			if st.A == st.B {
				return fmt.Errorf("check: step %d: flap of self link %d<->%d", i, st.A, st.B)
			}
			if st.PeriodUS < 2 {
				return fmt.Errorf("check: step %d: flap period %dus too short", i, st.PeriodUS)
			}
			if st.Cycles < 1 {
				return fmt.Errorf("check: step %d: flap with %d cycles", i, st.Cycles)
			}
		default:
			return fmt.Errorf("check: step %d: unknown kind %q", i, st.Kind)
		}
	}
	for n, d := range down {
		if d {
			return fmt.Errorf("check: node %d is left down at scenario end", n)
		}
	}
	return nil
}

// ConfigTimeline returns the configuration active in each trace segment:
// the starting configuration followed by each reconfiguration target.
func (sc Scenario) ConfigTimeline() ([]config.Config, error) {
	cfg, err := sc.Config.Config()
	if err != nil {
		return nil, err
	}
	out := []config.Config{cfg}
	for _, st := range sc.Steps {
		if st.Kind != StepReconfigure {
			continue
		}
		next, err := st.To.Config()
		if err != nil {
			return nil, err
		}
		out = append(out, next)
	}
	return out, nil
}

// Generate samples n scenarios from the configuration space under scripted
// fault templates, deterministically from masterSeed. Templates:
//
//   - faulty-net: message loss/duplication/delay plus a transient partition
//     of the client from one non-leader server (reliable configurations).
//   - crash-recover: a server crash between call batches, with calls issued
//     while it is down, then recovery (oracle membership).
//   - orphan: a no-wait call batch orphaned by a client crash, recovery,
//     and a post-recovery batch racing the orphans.
//   - reconfig: a legal mid-run reconfiguration with a no-wait batch racing
//     the drain.
//   - blackhole: full client partition under bounded termination — every
//     call in the dark window must still terminate (TIMEOUT), then heal.
//
// Adversarial network templates (D19), sampled about a third of the time:
//
//   - wan-asym: asymmetric per-direction latency on every client link, one
//     direction with heavy-tail spikes and one bandwidth-capped.
//   - reorder-storm: bounded reorder storms scrambling windows of
//     consecutive messages on every link.
//   - gray-slow: a member delayed just under the failure detector's
//     suspicion threshold — lanes stall, but it must never end up stuck on
//     the suspect list.
//   - flap: a scripted split/heal cycle train on the client link racing a
//     no-wait batch.
//   - churn: rolling or cascading member crash/recover cycles over a
//     degraded network, biased toward tree dissemination (D17
//     re-parenting).
func Generate(masterSeed int64, n int) []Scenario {
	rng := rand.New(rand.NewSource(masterSeed))
	cfgs := config.Enumerate()
	out := make([]Scenario, 0, n)
	for len(out) < n {
		cfg := cfgs[rng.Intn(len(cfgs))]
		var (
			sc Scenario
			ok bool
		)
		// 15 slots: two per classic template, one per adversarial template,
		// so adversarial profiles make up a third of the sampled stream.
		switch pick := rng.Intn(15); pick {
		case 10:
			sc, ok = wanAsymScenario(cfg, rng)
		case 11:
			sc, ok = reorderStormScenario(cfg, rng)
		case 12:
			sc, ok = graySlowScenario(cfg, rng)
		case 13:
			sc, ok = flapScenario(cfg, rng)
		case 14:
			sc, ok = churnScenario(cfg, rng)
		default:
			switch pick / 2 {
			case 0:
				sc, ok = faultyNetScenario(cfg, rng)
			case 1:
				sc, ok = crashRecoverScenario(cfg, rng)
			case 2:
				sc, ok = orphanScenario(cfg, rng)
			case 3:
				sc, ok = reconfigScenario(cfg, rng)
			case 4:
				sc, ok = blackholeScenario(cfg, rng)
			}
		}
		if !ok {
			continue
		}
		// A slice of every template runs with a tiny flush size, so batch
		// frames form under ordinary traffic (not just explicit pipelines)
		// and the oracles verify the batched call path too. Flush 1 disables
		// coalescing entirely — the other boundary worth sampling.
		switch rng.Intn(3) {
		case 0:
			sc.Config.Flush = 1 + rng.Intn(3) // 1 (no batching), 2, or 3
			for i := range sc.Steps {
				if sc.Steps[i].To != nil {
					sc.Steps[i].To.Flush = sc.Config.Flush
				}
			}
		}
		// A slice of every template runs over tree dissemination (D17) so
		// the oracles verify the relayed call path — in crash-recover that
		// includes re-parenting around a crashed interior member. A tree
		// only engages when the group is larger than the fanout, so these
		// scenarios get a bigger group — except blackhole, whose full-
		// partition semantics assume exactly the 3 servers its steps name
		// (tree(2) still relays at g=3).
		switch rng.Intn(3) {
		case 0:
			k := 2 + rng.Intn(2) // tree(2) or tree(3)
			if sc.Name == "blackhole" {
				k = 2
			} else if sc.Servers < k+3 {
				sc.Servers = k + 3
			}
			sc.Config.Diss, sc.Config.TreeK = "tree", k
			for i := range sc.Steps {
				if sc.Steps[i].To != nil {
					// Reconfigurations keep the dissemination dimension
					// fixed: changing it is drain-class and orthogonal to
					// the transition the template is exercising.
					sc.Steps[i].To.Diss, sc.Steps[i].To.TreeK = "tree", k
				}
			}
		}
		sc.Seed = rng.Int63()
		sc.Name = fmt.Sprintf("%s-%d", sc.Name, len(out))
		out = append(out, sc)
	}
	return out
}

// strictFIFO reports whether a configuration composes FIFO order with
// strict lane initialization (asynchronous-call services, deviation D10):
// every server lane then insists on starting at an incarnation's first
// call, so a lane created mid-stream (member recovery, mid-run attach)
// can never resynchronize.
func strictFIFO(c config.Config) bool {
	return c.Ordering == config.OrderFIFO && c.Call == config.CallAsynchronous
}

// nonLeader picks a server that is not the total-order leader (the highest
// id), so a generated fault never stalls sequencing; without total order
// any server will do.
func nonLeader(cfg config.Config, servers int, rng *rand.Rand) msg.ProcID {
	if cfg.Ordering == config.OrderTotal && servers > 1 {
		return msg.ProcID(1 + rng.Intn(servers-1))
	}
	return msg.ProcID(1 + rng.Intn(servers))
}

func faultyNetScenario(cfg config.Config, rng *rand.Rand) (Scenario, bool) {
	if !cfg.Reliable {
		// Without reliable communication a lossy run cannot promise
		// completion, so waiting call batches could block the schedule.
		return Scenario{}, false
	}
	victim := nonLeader(cfg, 3, rng)
	return Scenario{
		Name:       "faulty-net",
		Servers:    3,
		Config:     SpecOf(cfg),
		LossPct:    10 + rng.Intn(21),
		DupPct:     rng.Intn(2) * 20,
		MaxDelayUS: rng.Intn(2) * 500,
		Steps: []Step{
			{Kind: StepCalls, Client: ClientID, N: 3, Wait: true},
			{Kind: StepPartition, A: ClientID, B: victim},
			{Kind: StepCalls, Client: ClientID, N: 2, Wait: true},
			{Kind: StepHeal},
			{Kind: StepCalls, Client: ClientID, N: 3, Wait: true},
		},
	}, true
}

func crashRecoverScenario(cfg config.Config, rng *rand.Rand) (Scenario, bool) {
	if cfg.Ordering == config.OrderTotal {
		// Total order is crash-stop for group members: a recovered member
		// rejoins at the group's frontier but skips the calls ordered
		// while it was down (no state transfer — DESIGN.md D4), so it
		// would never reply to them. Client crashes under total order are
		// covered by the orphan template.
		return Scenario{}, false
	}
	if strictFIFO(cfg) {
		// Asynchronous FIFO uses strict lane initialization (D10): a
		// recovered member's fresh lane expects the incarnation's first
		// call and would hold the client's post-recovery calls forever.
		// Ordered-group member rejoin without state transfer is a
		// documented gap (EXPERIMENTS.md "Known gaps", DESIGN.md D15).
		return Scenario{}, false
	}
	victim := nonLeader(cfg, 3, rng)
	steps := []Step{
		{Kind: StepCalls, Client: ClientID, N: 2, Wait: true},
		{Kind: StepCrash, Node: victim},
	}
	// Calls issued while a member is down exercise acceptance against the
	// membership oracle; ordered configurations instead recover first, so
	// the down window cannot stall a sequencing hole.
	if cfg.Ordering == config.OrderNone {
		steps = append(steps, Step{Kind: StepCalls, Client: ClientID, N: 2, Wait: true})
	}
	steps = append(steps,
		Step{Kind: StepRecover, Node: victim},
		Step{Kind: StepCalls, Client: ClientID, N: 2, Wait: true},
	)
	return Scenario{
		Name:    "crash-recover",
		Servers: 3,
		Config:  SpecOf(cfg),
		Steps:   steps,
	}, true
}

func orphanScenario(cfg config.Config, rng *rand.Rand) (Scenario, bool) {
	return Scenario{
		Name:    "orphan",
		Servers: 3,
		Config:  SpecOf(cfg),
		Steps: []Step{
			{Kind: StepCalls, Client: ClientID, N: 2, Wait: true},
			{Kind: StepCalls, Client: ClientID, N: 3},
			{Kind: StepCrash, Node: ClientID},
			{Kind: StepRecover, Node: ClientID},
			{Kind: StepCalls, Client: ClientID, N: 2, Wait: true},
		},
	}, true
}

func reconfigScenario(cfg config.Config, rng *rand.Rand) (Scenario, bool) {
	// Find a legal transition target among the enumerated configurations,
	// scanning from a random start so the sampled transitions vary.
	cfgs := config.Enumerate()
	start := rng.Intn(len(cfgs))
	var target *config.Config
	for i := range cfgs {
		cand := cfgs[(start+i)%len(cfgs)]
		if SpecOf(cand) == SpecOf(cfg) {
			continue
		}
		if strictFIFO(cand) && !strictFIFO(cfg) {
			// Attaching strict-init FIFO (asynchronous call, D10) to a
			// stream whose client is already past its first call leaves
			// every fresh server lane waiting for calls served under the
			// previous regime — member lanes have no sequence handoff
			// (DESIGN.md D15).
			continue
		}
		if _, err := config.PlanTransition(cfg, cand); err == nil {
			target = &cand
			break
		}
	}
	if target == nil {
		return Scenario{}, false
	}
	to := SpecOf(*target)
	return Scenario{
		Name:    "reconfig",
		Servers: 3,
		Config:  SpecOf(cfg),
		Steps: []Step{
			{Kind: StepCalls, Client: ClientID, N: 2, Wait: true},
			{Kind: StepCalls, Client: ClientID, N: 2},
			{Kind: StepReconfigure, To: &to},
			{Kind: StepCalls, Client: ClientID, N: 2, Wait: true},
		},
	}, true
}

func blackholeScenario(cfg config.Config, rng *rand.Rand) (Scenario, bool) {
	if !cfg.Bounded {
		return Scenario{}, false
	}
	spec := SpecOf(cfg)
	spec.TimeBoundMS = 40
	return Scenario{
		Name:    "blackhole",
		Servers: 3,
		Config:  spec,
		Steps: []Step{
			{Kind: StepPartition, A: ClientID, B: 1},
			{Kind: StepPartition, A: ClientID, B: 2},
			{Kind: StepPartition, A: ClientID, B: 3},
			{Kind: StepCalls, Client: ClientID, N: 2, Wait: true},
			{Kind: StepHeal},
			{Kind: StepCalls, Client: ClientID, N: 2, Wait: true},
		},
	}, true
}

// wanAsymScenario gives every client<->server link a WAN-like profile with
// independently drawn per-direction latency bounds, then makes one
// direction heavy-tailed (spikes) and one bandwidth-capped. No messages
// are lost — every oracle that tolerates reordering still applies.
func wanAsymScenario(cfg config.Config, rng *rand.Rand) (Scenario, bool) {
	us := func(lo, hi int) int { return lo + rng.Intn(hi-lo+1) }
	wan := make([]WanLink, 0, 6)
	for s := 1; s <= 3; s++ {
		wan = append(wan,
			WanLink{From: ClientID, To: msg.ProcID(s), MinUS: us(50, 200), MaxUS: us(300, 900)},
			WanLink{From: msg.ProcID(s), To: ClientID, MinUS: us(50, 200), MaxUS: us(300, 900)})
	}
	spiked := rng.Intn(len(wan))
	wan[spiked].SpikePct = 20 + rng.Intn(21)
	wan[spiked].SpikeUS = 2000 + rng.Intn(3001)
	capped := rng.Intn(len(wan))
	wan[capped].KBps = 200 + rng.Intn(801)
	return Scenario{
		Name:    "wan-asym",
		Servers: 3,
		Config:  SpecOf(cfg),
		Wan:     wan,
		Steps: []Step{
			{Kind: StepCalls, Client: ClientID, N: 3, Wait: true},
			{Kind: StepCalls, Client: ClientID, N: 2},
			{Kind: StepCalls, Client: ClientID, N: 2, Wait: true},
		},
	}, true
}

// reorderStormScenario arms bounded reorder storms on every link: with
// the drawn probability a storm starts and the next window of consecutive
// messages on that link is scrambled within the spread. Nothing is lost
// or duplicated, so completion and acceptance semantics are unweakened;
// order-sensitive oracles gate on Reordering().
func reorderStormScenario(cfg config.Config, rng *rand.Rand) (Scenario, bool) {
	return Scenario{
		Name:            "reorder-storm",
		Servers:         3,
		Config:          SpecOf(cfg),
		ReorderPct:      25 + rng.Intn(51),
		ReorderWindow:   3 + rng.Intn(4),
		ReorderSpreadUS: 200 + rng.Intn(601),
		Steps: []Step{
			{Kind: StepCalls, Client: ClientID, N: 4, Wait: true},
			{Kind: StepCalls, Client: ClientID, N: 3},
			{Kind: StepCalls, Client: ClientID, N: 3, Wait: true},
		},
	}, true
}

// graySlowScenario runs a heartbeat failure detector and makes one member
// gray-slow: every message in and out is delayed by far less than the
// suspicion threshold. The member's lanes stall — calls waiting on it take
// the delay — but heartbeat *gaps* stay at the interval, so the detector
// must never leave it stuck on the suspect list (no-false-suspicion
// oracle, D19).
func graySlowScenario(cfg config.Config, rng *rand.Rand) (Scenario, bool) {
	victim := nonLeader(cfg, 3, rng)
	return Scenario{
		Name:    "gray-slow",
		Servers: 3,
		Config:  SpecOf(cfg),
		// Real-clock margins: heartbeats every 3ms, suspicion only after a
		// 60ms silent gap, gray lag 8-15ms. A false suspicion needs the
		// scheduler to stall heartbeats for 20 intervals.
		Detector: &DetectorSpec{HeartbeatUS: 3000, SuspectUS: 60000},
		Steps: []Step{
			{Kind: StepCalls, Client: ClientID, N: 2, Wait: true},
			{Kind: StepGray, Node: victim, DelayUS: 8000 + rng.Intn(7001)},
			{Kind: StepCalls, Client: ClientID, N: 2, Wait: true},
			{Kind: StepGray, Node: victim}, // DelayUS 0: clear
			{Kind: StepCalls, Client: ClientID, N: 2, Wait: true},
		},
	}, true
}

// flapScenario splits and heals the client<->victim link in a scripted
// cycle train while a no-wait batch is in flight. Reliable communication
// is required for the same reason as faulty-net: the flap withholds
// messages, and only retransmission guarantees the racing batch drains.
func flapScenario(cfg config.Config, rng *rand.Rand) (Scenario, bool) {
	if !cfg.Reliable {
		return Scenario{}, false
	}
	victim := nonLeader(cfg, 3, rng)
	return Scenario{
		Name:    "flap",
		Servers: 3,
		Config:  SpecOf(cfg),
		Steps: []Step{
			{Kind: StepCalls, Client: ClientID, N: 2, Wait: true},
			{Kind: StepCalls, Client: ClientID, N: 3},
			{Kind: StepFlap, A: ClientID, B: victim,
				PeriodUS: 4000 + rng.Intn(6001), Cycles: 2 + rng.Intn(3), Wait: true},
			{Kind: StepCalls, Client: ClientID, N: 2, Wait: true},
		},
	}, true
}

// churnScenario layers membership churn — rolling recoveries or cascading
// crashes — over a degraded network (reorder storms or random delay). Two
// thirds of the samples use tree dissemination, so churn exercises D17
// re-parenting with in-flight frames under adversarial delivery.
//
// Only unordered configurations host churn: a message delayed across the
// crash/recover window can arrive at the rejoined member first and open
// its hold-back lane (FIFO/causal, D10 first-arrival init) at a stale
// position — later calls then wait forever for calls the client already
// collected, since member rejoin has no ordering-state transfer (the
// crash-recover gap of DESIGN.md D15, reached through delay instead of
// loss; see D19). crash-recover keeps its ordered coverage because it
// runs over an undegraded network, where nothing straggles across the
// crash window.
func churnScenario(cfg config.Config, rng *rand.Rand) (Scenario, bool) {
	if cfg.Ordering != config.OrderNone {
		return Scenario{}, false
	}
	sc := Scenario{Name: "churn", Servers: 3, Config: SpecOf(cfg)}
	if rng.Intn(2) == 0 {
		sc.ReorderPct = 15 + rng.Intn(21)
		sc.ReorderWindow = 3
		sc.ReorderSpreadUS = 200 + rng.Intn(401)
	} else {
		sc.MaxDelayUS = 300 + rng.Intn(501)
	}
	if rng.Intn(3) != 0 {
		k := 2 + rng.Intn(2)
		sc.Servers = k + 3
		sc.Config.Diss, sc.Config.TreeK = "tree", k
	}
	v1 := msg.ProcID(1 + rng.Intn(3))
	v2 := v1%3 + 1 // distinct from v1, still in 1..3
	steps := []Step{{Kind: StepCalls, Client: ClientID, N: 2, Wait: true}}
	if rng.Intn(2) == 0 {
		// Rolling: one member down at a time, calls between each cycle.
		for _, v := range []msg.ProcID{v1, v2} {
			steps = append(steps,
				Step{Kind: StepCrash, Node: v},
				Step{Kind: StepCalls, Client: ClientID, N: 2, Wait: true},
				Step{Kind: StepRecover, Node: v},
				Step{Kind: StepCalls, Client: ClientID, N: 2, Wait: true})
		}
	} else {
		// Cascading: overlapping down windows, recovered in reverse order.
		steps = append(steps,
			Step{Kind: StepCrash, Node: v1},
			Step{Kind: StepCrash, Node: v2},
			Step{Kind: StepRecover, Node: v2},
			Step{Kind: StepRecover, Node: v1},
			Step{Kind: StepCalls, Client: ClientID, N: 2, Wait: true})
	}
	sc.Steps = steps
	return sc, true
}
