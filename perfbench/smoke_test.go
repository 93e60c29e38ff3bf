package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the smoke
// test holds the program to.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func names(ms []metric) []string {
	out := make([]string, 0, len(ms))
	for _, m := range ms {
		out = append(out, m.name+" "+m.unit)
	}
	sort.Strings(out)
	return out
}

func specNames(ms []struct{ Name, Unit string }) []string {
	out := make([]string, 0, len(ms))
	for _, m := range ms {
		out = append(out, m.Name+" "+m.Unit)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload for a few seconds, untraced and traced,
// including tcp-open-g3, which BENCHMARK.json does not gate on: the output
// checks pass, and the metrics reported are exactly the ones BENCHMARK.json
// declares, with its units and finite values.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	for _, sw := range spec.Workloads {
		if findWorkload(sw.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown", sw.Name)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e2e, err := runEndToEnd(w, 7, 4*time.Second, 2)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runTraced(w, 7, time.Second, filepath.Join(t.TempDir(), "spans.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				name string
				out  *outcome
				want []string
			}{{"end_to_end", e2e, specNames(spec.EndToEnd)}, {"per_layer", traced, specNames(spec.PerLayer)}} {
				for _, ch := range c.out.checks {
					if !ch.ok {
						t.Errorf("%s: check %s failed: %s", c.name, ch.name, ch.detail)
					}
				}
				if !c.out.correct || c.out.attempted == 0 || c.out.failed != 0 {
					t.Errorf("%s: correct=%v attempted=%d failed=%d", c.name, c.out.correct, c.out.attempted, c.out.failed)
				}
				if got := names(c.out.metrics); len(got) != len(c.want) || fmtList(got) != fmtList(c.want) {
					t.Errorf("%s metrics differ from BENCHMARK.json:\n got %v\nwant %v", c.name, got, c.want)
				}
				for _, m := range c.out.metrics {
					if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
						t.Errorf("%s: %s = %v", c.name, m.name, m.value)
					}
				}
			}
		})
	}
}

func fmtList(xs []string) string {
	b, _ := json.Marshal(xs)
	return string(b)
}
