package experiments

import "mrpc"

// E8Monolithic measures the cost of configurability: the composite
// protocol (exactly-once, acceptance 1, synchronous) against a monolithic
// RPC with the identical semantics fused into two tight loops, over the
// same zero-delay simulated network.
func E8Monolithic() *Report {
	r := &Report{ID: "E8", Title: "composition overhead vs monolithic baseline (same semantics)"}
	const calls = 2000

	mono := perCall(FusedRig(1), calls)
	comp := perCall(CompositeRig(ExactlyOnce(), 1), calls)

	r.addf("%-34s %-12s", "implementation", "us/call")
	r.addf("%-34s %-12.1f", "monolithic (fused)", float64(mono.Nanoseconds())/1e3)
	r.addf("%-34s %-12.1f", "composite (micro-protocols)", float64(comp.Nanoseconds())/1e3)
	if mono > 0 {
		r.notef("composition overhead: %.2fx", float64(comp)/float64(mono))
	}
	// The composite should cost more, but within a small constant factor;
	// an order of magnitude would contradict the paper's practicality
	// claim.
	r.Pass = comp < 20*mono
	return r
}

// E8GroupThroughput is the group-size sweep companion: calls/s of the
// composite vs the baseline for 1, 3 and 5 servers, acceptance ALL.
func E8GroupThroughput() *Report {
	r := &Report{ID: "E8b", Title: "composite vs monolithic: group-size sweep (acceptance ALL)"}
	const calls = 500
	cfg := ExactlyOnce()
	cfg.AcceptanceLimit = mrpc.AcceptAll
	r.addf("%-8s %-16s %-16s %-10s", "servers", "mono us/call", "composite us/call", "ratio")
	for _, n := range []int{1, 3, 5} {
		mono := perCall(FusedRig(n), calls)
		comp := perCall(CompositeRig(cfg, n), calls)
		ratio := 0.0
		if mono > 0 {
			ratio = float64(comp) / float64(mono)
		}
		r.addf("%-8d %-16.1f %-16.1f %.2fx", n,
			float64(mono.Nanoseconds())/1e3, float64(comp.Nanoseconds())/1e3, ratio)
	}
	r.Pass = true
	return r
}
