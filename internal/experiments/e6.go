package experiments

import (
	"time"

	"mrpc"
	"mrpc/internal/config"
)

// ablationCase is one step of the micro-protocol cost ladder.
type ablationCase struct {
	Name string
	Cfg  mrpc.Config
}

// AblationCases returns the E6 ladder: the minimal functional composite,
// then one additional micro-protocol (or dependency-closed set) at a time.
func AblationCases() []ablationCase {
	minimal := mrpc.Config{
		Call:            config.CallSynchronous,
		Execution:       config.ExecConcurrent,
		Ordering:        config.OrderNone,
		Orphan:          config.OrphanIgnore,
		AcceptanceLimit: 1,
	}
	with := func(f func(*mrpc.Config)) mrpc.Config {
		c := minimal
		c.RetransTimeout = 50 * time.Millisecond
		c.TimeBound = 5 * time.Second
		f(&c)
		return c
	}
	return []ablationCase{
		{"minimal (Main+Sync+Accept+Collate)", with(func(*mrpc.Config) {})},
		{"+Reliable Communication", with(func(c *mrpc.Config) { c.Reliable = true })},
		{"+Bounded Termination", with(func(c *mrpc.Config) { c.Bounded = true })},
		{"+Unique Execution", with(func(c *mrpc.Config) { c.Unique = true })},
		{"+Serial Execution", with(func(c *mrpc.Config) { c.Execution = config.ExecSerial })},
		{"+Atomic Execution", with(func(c *mrpc.Config) { c.Execution = config.ExecAtomic })},
		{"+Interference Avoidance", with(func(c *mrpc.Config) { c.Orphan = config.OrphanAvoidInterference })},
		{"+Terminate Orphan", with(func(c *mrpc.Config) { c.Orphan = config.OrphanTerminate })},
		{"+FIFO Order (w/ R+U)", with(func(c *mrpc.Config) {
			c.Reliable, c.Unique, c.Ordering = true, true, config.OrderFIFO
		})},
		{"+Total Order (w/ R+U)", with(func(c *mrpc.Config) {
			c.Reliable, c.Unique, c.Ordering = true, true, config.OrderTotal
		})},
		{"full (R+B+U+Serial+FIFO+TermOrphan)", with(func(c *mrpc.Config) {
			c.Reliable, c.Bounded, c.Unique = true, true, true
			c.Execution = config.ExecSerial
			c.Ordering = config.OrderFIFO
			c.Orphan = config.OrphanTerminate
		})},
	}
}

// E6Ablation measures the incremental per-call cost of each
// micro-protocol — the quantitative side of the paper's claim that the
// event-driven structure "facilitates configurability without adversely
// affecting programmability" (and, we add, performance).
func E6Ablation() *Report {
	r := &Report{ID: "E6", Title: "micro-protocol ablation: per-call cost of each property"}
	const calls = 2000

	var base time.Duration
	r.addf("%-38s %-12s %-10s", "configuration", "us/call", "vs minimal")
	for i, c := range AblationCases() {
		d := perCall(CompositeRig(c.Cfg, 1), calls)
		if i == 0 {
			base = d
		}
		ratio := 1.0
		if base > 0 {
			ratio = float64(d) / float64(base)
		}
		r.addf("%-38s %-12.1f %.2fx", c.Name, float64(d.Nanoseconds())/1e3, ratio)
	}
	r.Pass = true
	return r
}
