// Command perfbench is the repository's benchmark: it runs one named
// workload against the mrpc facade, checks the outputs, and prints every
// metric by name with its unit and sample count. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they
// are the per-layer ones from a traced run. A failed output check prints
// correct=false with no metrics and exits 1. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// window is the length of the equal windows a measured span is split
// into. The summary keeps the windows in which the host took no CPU time
// away (see calm), and windows this short find the calm stretches between
// a busy host's bursts.
const window = 250 * time.Millisecond

// setups is how many times an untraced run sets the system up; setup_s is
// the mean of their times. On sim-total-tree9-lossy one set-up takes about
// 2 ms, or 6-12 ms when its first calls lose a frame, and the mean of 40
// had a standard error of 12%; 160 halves it for under a second per run.
const setups = 160

// metric is one reported value.
type metric struct {
	name  string
	unit  string
	value float64
	n     string // the samples behind the value
}

// outcome is one invocation's result.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	shown     []metric // printed, but not part of the JSON result
	checks    []check
}

func main() {
	wname := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed for payloads, arrivals and injected loss")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()

	w := findWorkload(*wname)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q; have", *wname)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -seconds > 0 and -trace 0 or 1")
		os.Exit(2)
	}
	env, _ := json.Marshal(environment(w, *seed))
	fmt.Printf("env %s\n", env)

	dur := time.Duration(*seconds * float64(time.Second))
	var out *outcome
	var err error
	if *traced == 1 {
		out, err = runTraced(w, *seed, dur, filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", w.name, *seed)))
	} else {
		out, err = runEndToEnd(w, *seed, dur, setups)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, c := range out.checks {
		verdict := "ok"
		if !c.ok {
			verdict = "FAILED"
		}
		fmt.Printf("check %-22s %-6s %s\n", c.name, verdict, c.detail)
	}
	for _, m := range append(out.metrics, out.shown...) {
		fmt.Printf("metric %-36s %16.4f %-8s n=%s\n", m.name, m.value, m.unit, m.n)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jsonMetric)
	if out.correct {
		for _, m := range out.metrics {
			v := m.value
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			ms[m.name] = jsonMetric{Value: v, Unit: m.unit}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{out.correct, out.attempted, out.failed, ms})
	fmt.Println(string(line))
	if !out.correct {
		os.Exit(1)
	}
}

// drive warms the system up under the workload's load, measures for dur,
// and runs the output checks.
func (s *system) drive(dur time.Duration, seed int64, traced bool) (*loadResult, []check) {
	warm := min(time.Second, dur/4)
	start := s.p.now()
	tl := &timeline{t0: start + int64(warm), t1: start + int64(warm+dur), nwin: max(1, int(dur/window))}
	var res *loadResult
	if s.w.rate > 0 {
		res = s.openLoop(tl, seed, traced)
	} else {
		res = s.closedLoop(tl, seed, traced)
	}
	return res, s.verify(res)
}

func allOK(cs []check) bool {
	for _, c := range cs {
		if !c.ok {
			return false
		}
	}
	return true
}

// runEndToEnd sets the system up n times, each with its own fault
// seed, and measures the last one untraced. setup_s is the mean set-up
// time: on a lossy network a set-up is slow exactly when one of its first
// call's frames is lost, so the set-up times are two clusters, and their
// mean, unlike their median, moves smoothly with the share of slow ones.
func runEndToEnd(w *workload, seed int64, dur time.Duration, n int) (*outcome, error) {
	p := newProbes(time.Now())
	var s *system
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if s != nil {
			s.stop()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if s, err = build(w, seed, seed+int64(i)<<32, p, false); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	res, checks := s.drive(dur, seed, false)
	s.stop()
	mem, memOK := s.memPeak()
	if !memOK {
		checks = append(checks, check{name: "mem_calls_reached", detail: fmt.Sprintf("fewer than %d OK calls", w.memCalls)})
	}

	e := res.summary()
	failedFrac := ratio(float64(res.failed), float64(res.attempted))
	nw := fmt.Sprintf("%d of %d windows", len(res.calm()), len(res.ok))
	nlat := fmt.Sprintf("%d latencies in %s", e.used, nw)
	out := &outcome{
		correct:   allOK(checks),
		attempted: res.attempted,
		failed:    res.failed,
		checks:    checks,
		metrics: []metric{
			{"calls_per_s", "calls/s", e.rate, nw},
			{"lat_p50_us", "us", e.p50, nlat},
			{"lat_p99_us", "us", e.p99, nlat},
			{"ok_frac", "ratio", 1 - failedFrac, fmt.Sprintf("%d attempted", res.attempted)},
			{"cpu_us_per_call", "us", e.cpu, nw},
			{"mem_peak_mb", "MiB", mem, fmt.Sprintf("1 (peak RSS at OK call %d)", w.memCalls)},
			{"setup_s", "s", mean(times), fmt.Sprintf("%d set-ups", n)},
		},
		// failed_frac is ok_frac's complement; it reads 0 on a healthy
		// run, so the JSON result carries it as the failed count instead.
		shown: []metric{
			{"failed_frac", "ratio", failedFrac, fmt.Sprintf("%d attempted", res.attempted)},
			{"rss_end_mb", "MiB", maxRSSMiB(), "1 (peak RSS of the whole run)"},
			{"steal_frac", "ratio", res.stealFrac(), fmt.Sprintf("%d windows", len(res.ok))},
			{"gen.lag_p99_us", "us", res.lagP99(), fmt.Sprintf("%d sends", len(res.lagUs))},
		},
	}
	return out, nil
}

// e2e summarizes a phase over its calm windows: the rate is the median
// over those windows, the percentiles and the CPU cost are taken over all
// their calls.
type e2e struct {
	rate, p50, p99, cpu float64
	calls, samples      int
	used                int // latencies in the windows used
}

func (r *loadResult) summary() e2e {
	var e e2e
	for w := range r.lat {
		e.calls += r.ok[w]
		e.samples += len(r.lat[w])
	}
	var rates, lats []float64
	var cpu float64
	var ok int
	for _, w := range r.calm() {
		rates = append(rates, float64(r.ok[w])/r.winSecs)
		lats = append(lats, r.lat[w]...)
		cpu += r.cpuUs[w]
		ok += r.ok[w]
	}
	e.rate, e.cpu = median(rates), ratio(cpu, float64(ok))
	e.p50, e.p99 = quantile(lats, 0.50), quantile(lats, 0.99)
	e.used = len(lats)
	return e
}

// lagP99 returns the open-loop issuer's 99th-percentile lateness, or 0 for
// a closed loop.
func (r *loadResult) lagP99() float64 {
	if len(r.lagUs) == 0 {
		return 0
	}
	return quantile(append([]float64(nil), r.lagUs...), 0.99)
}

// stealFrac returns the share of the machine's CPU time the host took
// away over the measured span, or NaN when unknown.
func (r *loadResult) stealFrac() float64 {
	if r.steal == nil {
		return math.NaN()
	}
	sum := 0.0
	for _, s := range r.steal {
		sum += s
	}
	return sum / clockTicks / (r.winSecs * float64(len(r.steal)) * float64(runtime.NumCPU()))
}

// calm returns the windows the summary uses: those in which the host took
// no CPU time away from this machine (no steal tick), or, when fewer than
// a quarter of the windows were that calm, the calmest quarter (ties in
// time order). With steal unknown it returns every window. On a virtual
// machine whose host also runs other tenants' work, a window in which this
// machine's CPUs were taken away measures the neighbours, not the program:
// measured on a 2-CPU VM, tcp-open-g3's per-window 99th percentile was
// 1.2 ms with no steal tick, 1.7 ms with one and 3.8 ms with two.
func (r *loadResult) calm() []int {
	idx := make([]int, len(r.lat))
	for i := range idx {
		idx[i] = i
	}
	if r.steal == nil {
		return idx
	}
	sort.SliceStable(idx, func(a, b int) bool { return r.steal[idx[a]] < r.steal[idx[b]] })
	n := (len(idx) + 3) / 4
	for n < len(idx) && r.steal[idx[n]] == 0 {
		n++
	}
	return idx[:n]
}
