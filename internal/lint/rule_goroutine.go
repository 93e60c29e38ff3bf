package lint

import (
	"go/ast"
)

// goroutineAllowed are the packages that may use bare go statements:
// internal/proc owns the Thread abstraction that makes goroutines reapable
// and the worker Pool both transports deliver through. (Test files are
// never loaded.)
var goroutineAllowed = map[string]bool{
	"mrpc/internal/proc": true,
}

// checkGoroutineDiscipline flags bare go statements. Goroutines spawned via
// proc.Go / proc.(*Threads).Go carry a Thread handle, so crash injection
// (Threads.KillAll) and shutdown paths can reap them; a bare go statement
// is invisible to both.
func checkGoroutineDiscipline(_ *Analysis, p *Package) []Diagnostic {
	if !inScope(p.Path) || goroutineAllowed[p.Path] {
		return nil
	}
	var ds []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				ds = append(ds, Diagnostic{
					Pos:  p.Fset.Position(g.Pos()),
					Rule: "goroutine-discipline",
					Message: "bare go statement; spawn through proc.Go or " +
						"proc.(*Threads).Go so the goroutine can be reaped",
				})
			}
			return true
		})
	}
	return ds
}
