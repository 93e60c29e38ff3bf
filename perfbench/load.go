package main

import (
	"bufio"
	"bytes"
	"math/rand"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mrpc"
	"mrpc/internal/core"
	"mrpc/internal/msg"
)

// timeline is one measured phase: load runs from the moment it starts,
// warms up until t0, and is measured over [t0, t1), split into nwin equal
// windows. Times are ns since the probes' epoch.
type timeline struct {
	t0, t1 int64
	nwin   int
}

// window returns the window holding t, or -1 outside the measured span.
func (tl *timeline) window(t int64) int {
	if t < tl.t0 || t >= tl.t1 {
		return -1
	}
	return int((t - tl.t0) * int64(tl.nwin) / (tl.t1 - tl.t0))
}

func (tl *timeline) boundary(w int) int64 {
	return tl.t0 + (tl.t1-tl.t0)*int64(w)/int64(tl.nwin)
}

func (tl *timeline) winSeconds() float64 {
	return float64(tl.t1-tl.t0) / float64(tl.nwin) / 1e9
}

// loadResult is what one phase's generator observed.
type loadResult struct {
	lat       [][]float64 // per window: latencies in µs
	ok        []int       // per window: OK completions
	cpuUs     []float64   // per window: process CPU in µs
	steal     []float64   // per window: host steal ticks, all CPUs; nil if unknown
	lagUs     []float64   // open loop: issue lateness in µs, measured window
	attempted int
	failed    int
	mismatch  int // OK replies that differ from their arguments
	winSecs   float64

	rt0, rt1 []metrics.Sample // Go runtime metrics at t0 and t1
}

func newLoadResult(tl *timeline) *loadResult {
	return &loadResult{lat: make([][]float64, tl.nwin), ok: make([]int, tl.nwin),
		cpuUs: make([]float64, tl.nwin), winSecs: tl.winSeconds()}
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// cpuUs returns the process's user plus system CPU time in µs.
func cpuUs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e3
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/stat.
const clockTicks = 100

// stealTicks returns the time, in clock ticks summed over the machine's
// CPUs, that the hypervisor ran something else while this machine's
// virtual CPUs had work, or -1 when the kernel does not say.
func stealTicks() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return -1
	}
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return -1
	}
	return v
}

// maxRSSMiB returns the process's peak resident set size in MiB.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// sampler runs on the goroutine that paces a phase: at each window
// boundary it reads the CPU clock (and at t0 and t1 the Go runtime
// metrics) and turns the probes on for the measured span of a traced
// phase, whose call-table depths it samples once a millisecond.
type sampler struct {
	tl     *timeline
	s      *system
	res    *loadResult
	traced bool
	next   int // next boundary to sample
	cpu    float64
	steal  float64
	lastPd int64
}

// tick handles every boundary due by now and reports whether the
// measured span is over.
func (sm *sampler) tick(now int64) bool {
	for sm.next <= sm.tl.nwin && now >= sm.tl.boundary(sm.next) {
		c, st := cpuUs(), stealTicks()
		switch sm.next {
		case 0:
			sm.res.rt0 = readRuntime()
			sm.s.p.on.Store(sm.traced)
		case sm.tl.nwin:
			sm.s.p.on.Store(false)
			sm.res.rt1 = readRuntime()
		}
		if sm.next > 0 {
			sm.res.cpuUs[sm.next-1] = c - sm.cpu
			if st >= 0 && sm.steal >= 0 {
				if sm.res.steal == nil {
					sm.res.steal = make([]float64, sm.tl.nwin)
				}
				sm.res.steal[sm.next-1] = st - sm.steal
			}
		}
		sm.cpu, sm.steal = c, st
		sm.next++
	}
	if sm.traced && sm.s.p.on.Load() && now-sm.lastPd >= int64(time.Millisecond) {
		sm.lastPd = now
		client, server := 0, 0
		for _, c := range sm.s.clients {
			client += c.Composite().Framework().PendingCalls()
		}
		for _, n := range sm.s.servers {
			server = max(server, n.Composite().Framework().PendingServerCalls())
		}
		sm.s.p.samplePending(client, server)
	}
	return sm.next > sm.tl.nwin
}

// sleepUntil returns the time to sleep before the sampler's next duty.
func (sm *sampler) sleepUntil(now, due int64) time.Duration {
	if sm.next <= sm.tl.nwin {
		due = min(due, sm.tl.boundary(sm.next))
	}
	if sm.traced && sm.s.p.on.Load() {
		due = min(due, now+int64(time.Millisecond))
	}
	return time.Duration(due - now)
}

// closedLoop runs one synchronous caller per client node until t1; the
// calling goroutine paces the windows. Latency runs from Call entry to its
// return, and a call counts in the window its return falls in.
func (s *system) closedLoop(tl *timeline, seed int64, traced bool) *loadResult {
	res := newLoadResult(tl)
	var stop atomic.Bool
	parts := make([]*loadResult, len(s.clients))
	var wg sync.WaitGroup
	for i, c := range s.clients {
		parts[i] = newLoadResult(tl)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.caller(c, rand.New(rand.NewSource(seed*7919+int64(i))), tl, &stop, parts[i])
		}()
	}
	sm := &sampler{tl: tl, s: s, res: res, traced: traced}
	for {
		now := s.p.now()
		if sm.tick(now) {
			break
		}
		time.Sleep(sm.sleepUntil(now, tl.t1))
	}
	stop.Store(true)
	wg.Wait()
	for _, pt := range parts {
		for w := range res.lat {
			res.lat[w] = append(res.lat[w], pt.lat[w]...)
			res.ok[w] += pt.ok[w]
		}
		res.attempted += pt.attempted
		res.failed += pt.failed
		res.mismatch += pt.mismatch
	}
	return res
}

func (s *system) caller(c *mrpc.Node, rng *rand.Rand, tl *timeline, stop *atomic.Bool, res *loadResult) {
	p := s.p
	// Call sequence numbers (the low half of a call id) start at 1 on a
	// fresh node, and the set-up call took the first.
	id := mrpc.CallID(2)
	for !stop.Load() {
		tag := s.nextTag.Add(1) - 1
		tm := p.now()
		args := s.pack(tag, s.argsSize(rng), rng.Int())
		tc := p.now()
		reply, st, err := c.Call(s.op, args, s.group)
		tr := p.now()
		res.attempted++
		ok := err == nil && st == mrpc.StatusOK
		if !ok {
			res.failed++
			s.failed(tag)
		} else {
			s.completed()
			if !bytes.Equal(reply, args) {
				res.mismatch++
			}
		}
		if w := tl.window(tr); w >= 0 && ok {
			res.ok[w]++
			res.lat[w] = append(res.lat[w], float64(tr-tc)/1e3)
		}
		if p.on.Load() {
			p.marshalNs.Add(tc - tm)
			p.marshals.Add(1)
			if sampled(id) {
				p.callTimes(c.ID(), id, tc, tr)
			}
		}
		id++
	}
}

// openCall is an issued open-loop call awaiting completion.
type openCall struct {
	due  int64
	args []byte
	tag  uint64
}

// completions is the queue the client endpoint's delivery hook fills with
// (call, completion time) as calls complete; the issuer drains it.
type completions struct {
	mu sync.Mutex
	q  []completion
}

type completion struct {
	id msg.CallID
	at int64
}

func (cq *completions) push(c completion) {
	cq.mu.Lock()
	cq.q = append(cq.q, c)
	cq.mu.Unlock()
}

func (cq *completions) take(buf []completion) []completion {
	cq.mu.Lock()
	buf = append(buf[:0], cq.q...)
	cq.q = cq.q[:0]
	cq.mu.Unlock()
	return buf
}

// nanosleep blocks the calling thread for d. The issuer paces sub-
// millisecond gaps with it: the Go runtime's own timers can fire up to a
// millisecond late in a process with no other runnable goroutine, since
// the runtime then waits in epoll with a millisecond timeout.
func nanosleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// drainTimeout bounds how long the open loop waits for outstanding calls
// after its schedule ends; calls still pending then count as failed.
const drainTimeout = 10 * time.Second

// openLoop issues asynchronous calls from this one goroutine on a fixed
// schedule of seeded exponential gaps (Poisson arrivals at w.rate): a late
// send never shifts later ones. A call's completion is stamped by the
// client endpoint's delivery hook right after the reply that completed it
// was dispatched, and its latency runs from its intended send time. The
// issuer collects completed calls between sends.
func (s *system) openLoop(tl *timeline, seed int64, traced bool) *loadResult {
	res := newLoadResult(tl)
	p, c := s.p, s.clients[0]
	fw := c.Composite().Framework()
	cq := &completions{}
	hook := func(m *msg.NetMsg) {
		at := p.now()
		subs(m, func(r *msg.NetMsg) {
			if r.Type != msg.OpReply || r.Client != c.ID() {
				return
			}
			done := false
			fw.WithClient(r.ID, func(rec *core.ClientRecord) { done = rec.Status != msg.StatusWaiting })
			if done {
				cq.push(completion{id: r.ID, at: at})
			}
		})
	}
	ep := s.tap.endpoint(c.ID())
	ep.afterRecv.Store(&hook)
	defer ep.afterRecv.Store(nil)

	pending := make(map[mrpc.CallID]*openCall)
	var buf []completion
	collect := func() {
		buf = cq.take(buf)
		for _, d := range buf {
			oc := pending[d.id]
			if oc == nil {
				continue // already collected: a later reply of the group
			}
			delete(pending, d.id)
			reply, st, err := c.Collect(d.id)
			if err != nil || st != mrpc.StatusOK {
				res.failed++
				s.failed(oc.tag)
				continue
			}
			s.completed()
			if !bytes.Equal(reply, oc.args) {
				res.mismatch++
			}
			if w := tl.window(d.at); w >= 0 {
				res.ok[w]++
			}
			if w := tl.window(oc.due); w >= 0 {
				res.lat[w] = append(res.lat[w], float64(d.at-oc.due)/1e3)
			}
			if p.on.Load() && sampled(d.id) {
				p.callTimes(c.ID(), d.id, oc.due, d.at)
			}
		}
	}

	rng := rand.New(rand.NewSource(seed))
	sm := &sampler{tl: tl, s: s, res: res, traced: traced}
	gap := 1e9 / s.w.rate
	due := p.now()
	for due < tl.t1 {
		for {
			now := p.now()
			sm.tick(now)
			collect()
			if now >= due {
				break
			}
			nanosleep(sm.sleepUntil(now, due))
		}
		tag := s.nextTag.Add(1) - 1
		tm := p.now()
		args := s.pack(tag, s.argsSize(rng), rng.Int())
		tc := p.now()
		id, err := c.CallAsync(s.op, args, s.group)
		res.attempted++
		if err != nil {
			res.failed++
			s.failed(tag)
		} else {
			pending[id] = &openCall{due: due, args: args, tag: tag}
		}
		if tl.window(due) >= 0 {
			res.lagUs = append(res.lagUs, float64(tc-due)/1e3)
		}
		if p.on.Load() {
			p.marshalNs.Add(tc - tm)
			p.marshals.Add(1)
		}
		due += int64(rng.ExpFloat64() * gap)
	}
	for !sm.tick(p.now()) {
		time.Sleep(sm.sleepUntil(p.now(), tl.t1))
	}
	deadline := p.now() + int64(drainTimeout)
	for len(pending) > 0 && p.now() < deadline {
		time.Sleep(time.Millisecond)
		collect()
	}
	for _, oc := range pending {
		res.failed++
		s.failed(oc.tag)
	}
	return res
}
