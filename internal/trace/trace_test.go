package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecorderStats(t *testing.T) {
	r := NewRecorder("lat")
	for i := 1; i <= 100; i++ {
		r.Add(time.Duration(i) * time.Millisecond)
	}
	if r.Count() != 100 {
		t.Fatalf("count = %d", r.Count())
	}
	if got := r.Mean(); got != 50500*time.Microsecond {
		t.Fatalf("mean = %v", got)
	}
	if got := r.Percentile(50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := r.Percentile(95); got != 95*time.Millisecond {
		t.Fatalf("p95 = %v", got)
	}
	if got := r.Percentile(100); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
	if got := r.Max(); got != 100*time.Millisecond {
		t.Fatalf("max = %v", got)
	}
}

func TestRecorderEmpty(t *testing.T) {
	r := NewRecorder("empty")
	if r.Mean() != 0 || r.Percentile(50) != 0 || r.Max() != 0 {
		t.Fatal("empty recorder returned non-zero stats")
	}
	if r.Name() != "empty" {
		t.Fatal("name")
	}
}

func TestRecorderSummary(t *testing.T) {
	r := NewRecorder("x")
	r.Add(time.Millisecond)
	s := r.Summary()
	if !strings.Contains(s, "x:") || !strings.Contains(s, "n=1") {
		t.Fatalf("summary = %q", s)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder("c")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Add(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if r.Count() != 800 {
		t.Fatalf("count = %d", r.Count())
	}
}

type fakeEvent string

func (f fakeEvent) String() string { return string(f) }

func TestHandlerProfile(t *testing.T) {
	p := NewHandlerProfile()
	p.Observe(fakeEvent("MSG"), "RPCMain", 2*time.Millisecond, false)
	p.Observe(fakeEvent("MSG"), "RPCMain", 4*time.Millisecond, false)
	p.Observe(fakeEvent("MSG"), "Unique", time.Millisecond, true)

	stats := p.Stats()
	if len(stats) != 2 {
		t.Fatalf("stats = %v", stats)
	}
	// Sorted by total time descending: RPCMain (6ms) before Unique (1ms).
	if stats[0].Handler != "MSG/RPCMain" || stats[0].Calls != 2 ||
		stats[0].Mean != 3*time.Millisecond || stats[0].Max != 4*time.Millisecond {
		t.Fatalf("stats[0] = %+v", stats[0])
	}
	if stats[1].Cancels != 1 {
		t.Fatalf("stats[1] = %+v", stats[1])
	}
	if s := p.String(); !strings.Contains(s, "MSG/RPCMain") {
		t.Fatalf("String() = %q", s)
	}
}
