package experiments

import (
	"runtime"
	"slices"
	"time"
)

// E14PointToPoint quantifies the paper's §4.1 remark that point-to-point
// RPC "would likely be implemented separately to obtain a more compact and
// efficient protocol": the compact p2p specialization (same exactly-once
// semantics, fused code) against the full composite protocol serving a
// single server, over the same zero-delay network.
func E14PointToPoint() *Report {
	r := &Report{ID: "E14", Title: "§4.1 point-to-point specialization vs group composite (1 server)"}
	const calls = 2000

	// Interleave the two measurements A/B/A/B and compare per-side minima:
	// a single pass per side is at the mercy of scheduler and frequency
	// drift between the two timing windows, which on a busy host is larger
	// than the specialization gap being measured. Timing noise is strictly
	// additive (preemption only ever lengthens a window), so the minimum
	// over interleaved passes is the robust estimator of each side's true
	// cost.
	const passes = 5
	compactS := make([]time.Duration, 0, passes)
	compositeS := make([]time.Duration, 0, passes)
	for i := 0; i < passes; i++ {
		// Collect garbage before each timing window (as testing.B does
		// between benchmarks) so heap debt from earlier experiments is not
		// charged to whichever side runs first.
		runtime.GC()
		compactS = append(compactS, perCall(CompactRig(), calls))
		runtime.GC()
		compositeS = append(compositeS, perCall(CompositeRig(ExactlyOnce(), 1), calls))
	}
	compact := slices.Min(compactS)
	composite := slices.Min(compositeS)

	r.addf("%-38s %-12s", "implementation", "us/call")
	r.addf("%-38s %-12.1f", "compact p2p (fused, exactly-once)", float64(compact.Nanoseconds())/1e3)
	r.addf("%-38s %-12.1f", "composite gRPC (1-member group)", float64(composite.Nanoseconds())/1e3)
	if compact > 0 {
		r.notef("specialization speedup: %.2fx — the efficiency the paper trades for generality", float64(composite)/float64(compact))
	}
	r.Pass = compact < composite
	return r
}
