// Package trace provides the lightweight measurement utilities used by the
// experiment harness and the conformance checker: latency recorders with
// percentile summaries, the structured call-event stream and per-handler
// dispatch profiles.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Recorder accumulates latency samples. It is safe for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	name    string
	samples []time.Duration
}

// NewRecorder returns an empty recorder labelled name.
func NewRecorder(name string) *Recorder {
	return &Recorder{name: name}
}

// Name returns the recorder's label.
func (r *Recorder) Name() string { return r.name }

// Add records one sample.
func (r *Recorder) Add(d time.Duration) {
	r.mu.Lock()
	r.samples = append(r.samples, d)
	r.mu.Unlock()
}

// Count returns the number of samples.
func (r *Recorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

// Mean returns the mean sample, or 0 with no samples.
func (r *Recorder) Mean() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range r.samples {
		sum += s
	}
	return sum / time.Duration(len(r.samples))
}

// Percentile returns the p-th percentile (0 < p <= 100) of the samples,
// or 0 with no samples.
func (r *Recorder) Percentile(p float64) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), r.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(float64(len(sorted))*p/100) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Max returns the largest sample, or 0 with no samples.
func (r *Recorder) Max() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var max time.Duration
	for _, s := range r.samples {
		if s > max {
			max = s
		}
	}
	return max
}

// Summary renders "name: n=… mean=… p50=… p95=… p99=… max=…".
func (r *Recorder) Summary() string {
	return fmt.Sprintf("%s: n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		r.name, r.Count(), r.Mean().Round(time.Microsecond),
		r.Percentile(50).Round(time.Microsecond),
		r.Percentile(95).Round(time.Microsecond),
		r.Percentile(99).Round(time.Microsecond),
		r.Max().Round(time.Microsecond))
}
