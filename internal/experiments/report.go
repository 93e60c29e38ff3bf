// Package experiments contains the harness that regenerates every figure
// of the paper (E1–E5) and the performance/fault characterizations that
// back its design claims (E6–E15). Each experiment returns a Report with
// the same rows the paper's figure presents plus a machine-checkable pass
// flag; cmd/mrpcbench prints them and the test suite asserts them.
//
// See DESIGN.md §3 for the experiment index and EXPERIMENTS.md for the
// recorded paper-vs-measured outcomes.
package experiments

import (
	"fmt"
	"strings"
)

// Report is the outcome of one experiment.
type Report struct {
	ID    string
	Title string
	Lines []string
	Notes []string
	Pass  bool
}

func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *Report) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report for terminal output.
func (r *Report) String() string {
	var b strings.Builder
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "=== %s: %s [%s]\n", r.ID, r.Title, status)
	for _, l := range r.Lines {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}
