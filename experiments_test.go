package mrpc_test

import (
	"testing"

	"mrpc/internal/experiments"
)

// TestExperimentsPass runs every paper-figure and characterization
// experiment and asserts its built-in pass criterion. These are the
// repository's end-to-end reproduction checks; EXPERIMENTS.md records the
// same outcomes in prose.
func TestExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take several seconds")
	}
	const seed = 7
	for _, e := range experiments.Index {
		t.Run(e.ID, func(t *testing.T) {
			r := e.Run(seed)
			t.Log("\n" + r.String())
			if !r.Pass {
				t.Errorf("%s failed its pass criterion", r.ID)
			}
		})
	}
}
