// Command mrpcbench runs the experiment harness: every figure of the paper
// regenerated from the implementation (E1–E5) and the performance/fault
// characterizations that back its design claims (E6–E15). See DESIGN.md §3
// for the experiment index.
//
// Usage:
//
//	mrpcbench              run every experiment
//	mrpcbench -e E5        run one experiment
//	mrpcbench -seed 42     change the fault-injection seed
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mrpc/internal/experiments"
)

func main() {
	ids := make([]string, len(experiments.Index))
	for i, e := range experiments.Index {
		ids[i] = e.ID
	}
	known := strings.Join(ids, ", ")
	var (
		exp  = flag.String("e", "", "experiment id to run ("+known+"); empty = all")
		seed = flag.Int64("seed", 7, "fault-injection seed")
	)
	flag.Parse()

	run := experiments.Index
	if *exp != "" {
		run = nil
		for _, e := range experiments.Index {
			if e.ID == *exp {
				run = []experiments.Experiment{e}
			}
		}
		if run == nil {
			fmt.Fprintf(os.Stderr, "mrpcbench: unknown experiment %q (known: %s)\n", *exp, known)
			os.Exit(2)
		}
	}

	failed := 0
	for _, e := range run {
		r := e.Run(*seed)
		fmt.Print(r)
		fmt.Println()
		if !r.Pass {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "mrpcbench: %d experiment(s) failed\n", failed)
		os.Exit(1)
	}
}
