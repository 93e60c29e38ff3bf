package main

import (
	"fmt"
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.01, 1}, {0.10, 1}, {0.11, 2}, {0.50, 5}, {0.51, 6}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if got := quantile(hundred, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of empty sample = %v, want NaN", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{math.NaN(), 5, 1}, 3},
		{[]float64{7}, 7},
	} {
		in := append([]float64(nil), c.xs...)
		if got := median(in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
		for i := range in {
			if in[i] != c.xs[i] && !(math.IsNaN(in[i]) && math.IsNaN(c.xs[i])) {
				t.Errorf("median modified its input: %v -> %v", c.xs, in)
				break
			}
		}
	}
	if got := median([]float64{math.NaN()}); !math.IsNaN(got) {
		t.Errorf("median of NaNs = %v, want NaN", got)
	}
}

func TestSummaryOverCalmWindows(t *testing.T) {
	r := &loadResult{
		lat:     [][]float64{{1, 2, 3}, {10, 20, 30}, {4, 5, 6}},
		ok:      []int{10, 40, 20},
		cpuUs:   []float64{100, 400, 100},
		winSecs: 0.5,
	}
	e := r.summary()
	if e.rate != 40 || e.p50 != 5 || e.p99 != 30 || e.cpu != 600.0/70 {
		t.Errorf("summary = %+v, want rate 40, p50 5, p99 30, cpu %v", e, 600.0/70)
	}
	if e.calls != 70 || e.samples != 9 || e.used != 9 {
		t.Errorf("summary counts = %d calls, %d samples, %d used; want 70, 9, 9", e.calls, e.samples, e.used)
	}

	// With steal known, only the windows without steal count.
	r.steal = []float64{0, 3, 0}
	e = r.summary()
	if e.rate != 30 || e.p50 != 3 || e.p99 != 6 || e.cpu != 200.0/30 || e.used != 6 {
		t.Errorf("calm summary = %+v, want rate 30, p50 3, p99 6, cpu %v, 6 used", e, 200.0/30)
	}
}

func TestCalmWindows(t *testing.T) {
	for _, c := range []struct {
		steal []float64
		want  []int
	}{
		{nil, []int{0, 1, 2, 3, 4}},
		{[]float64{0, 2, 0, 1, 0}, []int{0, 2, 4}},
		// Fewer than a quarter without steal: the calmest quarter.
		{[]float64{4, 2, 3, 1, 5, 6, 7, 8}, []int{3, 1}},
		{[]float64{3, 3, 3, 3}, []int{0}},
	} {
		r := &loadResult{lat: make([][]float64, 5), steal: c.steal}
		if c.steal != nil {
			r.lat = make([][]float64, len(c.steal))
		}
		if got := r.calm(); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("calm(steal %v) = %v, want %v", c.steal, got, c.want)
		}
	}
}

func TestTimelineWindows(t *testing.T) {
	tl := &timeline{t0: 100, t1: 200, nwin: 4}
	for _, c := range []struct {
		t    int64
		want int
	}{{99, -1}, {100, 0}, {124, 0}, {125, 1}, {199, 3}, {200, -1}} {
		if got := tl.window(c.t); got != c.want {
			t.Errorf("window(%d) = %d, want %d", c.t, got, c.want)
		}
	}
	if tl.boundary(0) != 100 || tl.boundary(4) != 200 || tl.boundary(2) != 150 {
		t.Errorf("boundaries %d %d %d", tl.boundary(0), tl.boundary(2), tl.boundary(4))
	}
}

func TestSpanStagesTileTheCall(t *testing.T) {
	s := &span{call: 1000, issue: 3000, done: 9000, ret: 12000, last: 2}
	s.execB[2], s.execE[2], s.acc[2] = 4000, 5000, 8000
	st, ok := s.stages()
	if !ok {
		t.Fatal("complete span reported incomplete")
	}
	want := [len(stageNames)]float64{2, 1, 1, 3, 1, 3}
	sum := 0.0
	for i := range st {
		sum += st[i]
	}
	if st != want || sum != float64(s.ret-s.call)/1e3 {
		t.Errorf("stages = %v (sum %v), want %v", st, sum, want)
	}
	s.acc[2] = 0
	if _, ok := s.stages(); ok {
		t.Error("span without an accepted reply reported complete")
	}
}
