// Package lint implements mrpclint, a static analyzer that enforces the
// framework invariants the composite-protocol design depends on but which
// the Go type system cannot express (see DESIGN.md "Statically enforced
// invariants"):
//
//   - table-escape: *ClientRecord/*ServerRecord pointers obtained inside a
//     scoped table callback (WithClient/WithServer/Each*/ClientTx/ServerTx)
//     must not be stored in fields, globals, or channels, escape via
//     return, or be handed to a helper whose summary stores them — outside
//     the callback the shard mutex no longer protects them.
//   - determinism: wall-clock and global-randomness calls (time.Now,
//     time.Sleep, time.After, math/rand top-level functions, ...) are banned
//     outside internal/clock; netsim replay depends on the injected clock.
//   - handler-discipline: event handlers registered with Bus.Register or
//     Bus.RegisterTimeout must not call Bus.Trigger synchronously
//     (re-entrant dispatch) and must not call lockAll/unlockAll — directly,
//     or through a helper one call deep.
//   - goroutine-discipline: bare go statements outside internal/proc must
//     go through proc.Go / proc.(*Threads).Go / proc.Pool so crash
//     injection and shutdown can reap the goroutine.
//   - priority-constants: priorities passed to Bus.Register must reference
//     named constants, not magic ints.
//   - msg-immutability: fields of a msg.NetMsg must not be written outside
//     internal/msg and internal/netsim — messages are frozen on send and
//     shared by every recipient (DESIGN.md D13), so a handler mutating one
//     would corrupt its peers.
//   - batch-freeze: batch frames may only be built by msg.NewBatch, which
//     freezes the sub-messages and the frame before handoff (DESIGN.md D16)
//     — hand-rolled NetMsg{Type: OpBatch} literals, literals setting the
//     Batch field, and writes through .Batch are rejected outside
//     internal/msg.
//   - pool-safety: values drawn from the module's sync.Pools are tracked
//     through a per-function dataflow lattice plus call summaries:
//     use-after-Put, double-Put, and Put of a value that escaped to a
//     field/global/channel/closure are rejected; ownership handoff is
//     declared with a //lint:owns annotation on the accepting function.
//   - lock-order: a module-wide static graph over the named mutexes must
//     stay acyclic; mutexes may not be acquired inside scoped table
//     callbacks; a Lock released on some exits but not all is flagged.
//   - frozen-flow: inside internal/msg and internal/netsim (where
//     msg-immutability does not apply), writing a NetMsg field after
//     Freeze() was called on a path reaching the write is rejected.
//
// The first seven rules are syntax-plus-types driven; pool-safety,
// lock-order, and frozen-flow run on a shared analysis substrate — a
// per-function CFG (cfg.go), a forward dataflow engine (dataflow.go), and a
// module-wide call-graph summary cache (analysis.go, summary.go) — which
// also lends table-escape and handler-discipline one level of
// interprocedural depth. A violation that is deliberate is silenced with a
// directive on the same or preceding line:
//
//	//lint:ignore <rule> <reason>
//
// The reason is mandatory; a directive without one is itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one rule violation.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Rule, d.Message)
}

// Package is one type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
	Pkg   *types.Package
}

type rule struct {
	name string
	doc  string
	run  func(*Analysis, *Package) []Diagnostic
	// module runs once after every package's run, over shared state the
	// per-package passes accumulated (the lock graph's cycle check).
	module func(*Analysis) []Diagnostic
}

// rules are run in order; diagnostics are position-sorted afterwards.
var rules = []rule{
	{name: "table-escape", run: checkTableEscape,
		doc: "table records must not outlive their scoped callback"},
	{name: "determinism", run: checkDeterminism,
		doc: "wall clock and global randomness are banned outside internal/clock"},
	{name: "handler-discipline", run: checkHandlerDiscipline,
		doc: "handlers must not re-enter dispatch or take whole-table locks"},
	{name: "goroutine-discipline", run: checkGoroutineDiscipline,
		doc: "goroutines must be spawned through proc so crashes can reap them"},
	{name: "priority-constants", run: checkPriorityConstants,
		doc: "registration priorities must be named constants"},
	{name: "msg-immutability", run: checkMsgImmutability,
		doc: "NetMsg fields must not be written outside internal/msg and netsim"},
	{name: "batch-freeze", run: checkBatchFreeze,
		doc: "batch frames may only be built by msg.NewBatch"},
	{name: "pool-safety", run: checkPoolSafety,
		doc: "pooled values: no use-after-Put, double-Put, or Put of an escaped value"},
	{name: "lock-order", run: checkLockOrder, module: checkLockCycles,
		doc: "the named-mutex graph stays acyclic; no locks in scoped callbacks"},
	{name: "frozen-flow", run: checkFrozenFlow,
		doc: "no NetMsg writes or relay stamps after Freeze inside internal/msg and netsim"},
}

// RuleInfo describes one registered rule (for cmd/mrpclint -list).
type RuleInfo struct {
	Name string
	Doc  string
}

// Rules lists the registry in registration order.
func Rules() []RuleInfo {
	out := make([]RuleInfo, len(rules))
	for i, r := range rules {
		out[i] = RuleInfo{Name: r.name, Doc: r.doc}
	}
	return out
}

// KnownRule reports whether name is a registered rule.
func KnownRule(name string) bool {
	for _, r := range rules {
		if r.name == name {
			return true
		}
	}
	return false
}

// inScope reports whether a package path is subject to the invariants. The
// examples/ tree models third-party user code and is out of scope (it is
// not even loaded); everything else in the module is in.
func inScope(path string) bool {
	return path == "mrpc" ||
		strings.HasPrefix(path, "mrpc/internal/") ||
		strings.HasPrefix(path, "mrpc/cmd/")
}

// Analyze runs every rule over one package in isolation — the fixture
// harness's entry point. Cross-package summaries are unavailable; module
// rules (the lock-cycle check) still run over the single package's graph.
func Analyze(p *Package) []Diagnostic {
	return AnalyzeModule([]*Package{p}, nil)
}

// AnalyzeModule runs the registry over a set of packages sharing one
// Analysis, so summaries computed in one package serve callers in another
// and the lock graph spans the module. only, when non-nil, restricts the
// run to the named rules (malformed //lint:ignore directives are always
// reported).
func AnalyzeModule(pkgs []*Package, only map[string]bool) []Diagnostic {
	a := NewAnalysis(pkgs)
	var ds []Diagnostic
	for _, r := range rules {
		if only != nil && !only[r.name] {
			continue
		}
		for _, p := range pkgs {
			ds = append(ds, r.run(a, p)...)
		}
		if r.module != nil {
			ds = append(ds, r.module(a)...)
		}
	}
	malformed := applyIgnores(pkgs, &ds)
	ds = append(ds, malformed...)
	sortDiagnostics(ds)
	return ds
}

// LintModule analyzes every in-scope package of the module rooted at root.
func LintModule(root string) ([]Diagnostic, error) {
	return LintModuleRules(root, nil)
}

// LintModuleRules analyzes the module with an optional rule subset.
func LintModuleRules(root string, ruleNames []string) ([]Diagnostic, error) {
	var only map[string]bool
	if len(ruleNames) > 0 {
		only = make(map[string]bool, len(ruleNames))
		for _, n := range ruleNames {
			if !KnownRule(n) {
				return nil, fmt.Errorf("unknown rule %q (see mrpclint -list)", n)
			}
			only[n] = true
		}
	}
	l, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		return nil, err
	}
	return AnalyzeModule(pkgs, only), nil
}

// ModuleLockGraphDOT loads the module and renders its lock-order graph in
// DOT form (cmd/mrpclint -graph; the committed copy lives in DESIGN.md §6).
func ModuleLockGraphDOT(root string) (string, error) {
	l, err := NewLoader(root)
	if err != nil {
		return "", err
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		return "", err
	}
	a := NewAnalysis(pkgs)
	for _, p := range pkgs {
		checkLockOrder(a, p) // diagnostics discarded; this accumulates edges
	}
	return a.LockGraphDOT(), nil
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i].Pos, ds[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return ds[i].Rule < ds[j].Rule
	})
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	rule string
	line int // last line of the comment; suppresses this line and the next
}

// applyIgnores filters *ds in place, dropping diagnostics suppressed by a
// well-formed //lint:ignore directive on the same or the preceding line in
// any of the given packages. It returns extra diagnostics for malformed
// directives (missing rule or missing reason).
func applyIgnores(pkgs []*Package, ds *[]Diagnostic) []Diagnostic {
	byFile := make(map[string][]ignoreDirective)
	var malformed []Diagnostic
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "lint:ignore") {
						continue
					}
					pos := p.Fset.Position(c.End())
					fields := strings.Fields(strings.TrimPrefix(text, "lint:ignore"))
					if len(fields) < 2 {
						malformed = append(malformed, Diagnostic{
							Pos:     p.Fset.Position(c.Pos()),
							Rule:    "lint-directive",
							Message: "malformed //lint:ignore directive: want `//lint:ignore <rule> <reason>`",
						})
						continue
					}
					byFile[pos.Filename] = append(byFile[pos.Filename],
						ignoreDirective{rule: fields[0], line: pos.Line})
				}
			}
		}
	}

	kept := (*ds)[:0]
	for _, d := range *ds {
		suppressed := false
		for _, ig := range byFile[d.Pos.Filename] {
			if (ig.rule == d.Rule || ig.rule == "*") &&
				(ig.line == d.Pos.Line || ig.line == d.Pos.Line-1) {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	*ds = kept
	return malformed
}

// --- shared type helpers --------------------------------------------------

const (
	corePath  = "mrpc/internal/core"
	eventPath = "mrpc/internal/event"
)

// pkgLevelObj returns the object a selector resolves to, if it is a
// package-level declaration (function or variable) of some package.
func pkgLevelObj(p *Package, sel *ast.SelectorExpr) types.Object {
	obj := p.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return nil
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return nil
	}
	return obj
}

// busMethod returns the name of the event.Bus method a call invokes, or "".
func busMethod(p *Package, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	if pkg, name := recvNamed(fn); pkg == eventPath && name == "Bus" {
		return fn.Name()
	}
	return ""
}

// bindingMethod returns the name of the core.Binding method a call invokes,
// or "". Binding.On / Binding.After forward to Bus.Register /
// Bus.RegisterTimeout with lifecycle tracking, so every rule that inspects
// registrations must see through them — otherwise converting a protocol to
// the Binding idiom would silently drop it from the analysis.
func bindingMethod(p *Package, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	if pkg, name := recvNamed(fn); pkg == corePath && name == "Binding" {
		return fn.Name()
	}
	return ""
}

// recvNamed returns the package path and type name of a method's receiver
// (dereferencing a pointer receiver), or "", "".
func recvNamed(fn *types.Func) (pkgPath, typeName string) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", ""
	}
	return named.Obj().Pkg().Path(), named.Obj().Name()
}

// recordPointee returns "ClientRecord" or "ServerRecord" when t is a pointer
// to one of core's table record types, else "".
func recordPointee(t types.Type) string {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return ""
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != corePath {
		return ""
	}
	if n := named.Obj().Name(); n == "ClientRecord" || n == "ServerRecord" {
		return n
	}
	return ""
}

// stringArg returns the literal value of a string argument, or fallback.
func stringArg(e ast.Expr, fallback string) string {
	if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
		return strings.Trim(lit.Value, "`\"")
	}
	return fallback
}
