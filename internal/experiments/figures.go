package experiments

import (
	"fmt"
	"sort"
	"time"

	"mrpc"
	"mrpc/internal/config"
	"mrpc/internal/event"
)

// E2Properties regenerates Figure 2: the semantic properties of group RPC,
// their variants, and the logical dependencies between them — printed from
// the same data structure the validator is checked against.
func E2Properties() *Report {
	r := &Report{ID: "E2", Title: "Figure 2: semantic properties of group RPC"}
	for _, p := range config.PropertyGraph() {
		line := fmt.Sprintf("%-18s variants: %v", p.Name, p.Variants)
		if len(p.DependsOn) > 0 {
			line += fmt.Sprintf("  depends on: %v", p.DependsOn)
		}
		r.Lines = append(r.Lines, line)
	}
	r.Pass = len(config.PropertyGraph()) == 9
	return r
}

// E3Registrations regenerates Figure 3: the structure of a composite
// protocol as the table of events and the micro-protocol handlers invoked
// for each, in dispatch order — dumped from a live composite rather than
// transcribed.
func E3Registrations() *Report {
	r := &Report{ID: "E3", Title: "Figure 3: composite protocol structure (event -> handlers)"}

	sys := mrpc.NewSystem(mrpc.SystemOptions{})
	defer sys.Stop()
	cfg := mrpc.Config{
		Call:            config.CallSynchronous,
		Reliable:        true,
		RetransTimeout:  50 * time.Millisecond,
		Bounded:         true,
		TimeBound:       time.Second,
		Unique:          true,
		Execution:       config.ExecConcurrent,
		Ordering:        config.OrderNone,
		Orphan:          config.OrphanIgnore,
		AcceptanceLimit: 1,
	}
	node, err := sys.AddServer(1, cfg, func() mrpc.App { return echoApp{} })
	if err != nil {
		panic(err)
	}

	r.addf("micro-protocols: %v", node.Composite().Protocols())
	regs := node.Composite().Framework().Bus().Registrations()
	types := make([]event.Type, 0, len(regs))
	for t := range regs {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for _, t := range types {
		r.addf("%s:", t)
		for _, reg := range regs[t] {
			prio := fmt.Sprintf("%d", reg.Priority)
			if reg.Priority == event.DefaultPriority {
				prio = "default"
			}
			r.addf("  %-34s priority %s", reg.Name, prio)
		}
	}
	// The paper's Figure 3 example: RPC Main handles the network message
	// first among the depicted protocols; Synchronous Call handles the
	// user call after RPC Main (plus its request-collection handler, which
	// serves results a call-mode reconfiguration left uncollected).
	r.Pass = len(regs[event.MsgFromNetwork]) >= 4 && len(regs[event.CallFromUser]) == 3
	return r
}

// E4Enumeration regenerates the §5 configuration count: enumerating every
// legal micro-protocol combination under the Figure 4 dependency graph
// must yield exactly 2 x 3 x 3 x 11 = 198 services, and each enumerated
// configuration must also pass the independent graph-level check.
func E4Enumeration() *Report {
	r := &Report{ID: "E4", Title: "Figure 4 / §5: dependency graph and configuration count"}

	all := config.Enumerate()
	cluster := config.CommClusterCount()

	graphOK := 0
	for _, c := range all {
		if len(config.CheckAgainstGraph(c.SelectedProtocols())) == 0 {
			graphOK++
		}
	}

	r.addf("call semantics choices:                       2")
	r.addf("orphan handling choices:                      3")
	r.addf("execution property choices:                   3")
	r.addf("unique/reliable/termination/ordering cluster: %d (paper: 11)", cluster)
	r.addf("total legal configurations:                   %d (paper: 2*3*3*11 = 198)", len(all))
	r.addf("configurations passing the Figure 4 graph check: %d", graphOK)

	byFailure := map[string]int{}
	for _, c := range all {
		byFailure[c.FailureSemantics().String()]++
	}
	keys := make([]string, 0, len(byFailure))
	for k := range byFailure {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r.addf("  with %-16s semantics: %d", k, byFailure[k])
	}

	r.Pass = cluster == 11 && len(all) == 198 && graphOK == len(all)
	return r
}

// Experiment is one entry of the experiment index (DESIGN.md §3). Run
// executes it; seed makes its fault injection reproducible (experiments
// without faults ignore it).
type Experiment struct {
	ID  string
	Run func(seed int64) *Report
}

// Index lists every experiment in report order. mrpcbench and
// TestExperimentsPass both run from it.
var Index = []Experiment{
	{"E1", E1FailureSemantics},
	{"E2", seedless(E2Properties)},
	{"E3", seedless(E3Registrations)},
	{"E4", seedless(E4Enumeration)},
	{"E5", E5ReadOne},
	{"E6", seedless(E6Ablation)},
	{"E7", E7Ordering},
	{"E8", seedless(E8Monolithic)},
	{"E8b", seedless(E8GroupThroughput)},
	{"E9", E9Loss},
	{"E10", E10Acceptance},
	{"E11", seedless(E11Orphans)},
	{"E12", seedless(E12Bounded)},
	{"E13", E13Causal},
	{"E14", seedless(E14PointToPoint)},
	{"E15", seedless(E15Saturation)},
}

func seedless(run func() *Report) func(int64) *Report {
	return func(int64) *Report { return run() }
}
