package analysis

import (
	"go/ast"
)

// Goguard keeps the serving path panic-safe. The detector engine, the
// proxy, and the monitor recover per-transaction panics at their entry
// points, but a goroutine launched inside those packages starts a fresh
// stack: a panic there bypasses every handler-level recover and kills the
// whole process. So every go statement in the serving packages must carry
// its own recover() guard (the janitor pattern in monitor.go).
//
// A go statement launching a function literal is checked for a recover()
// call anywhere in its body, nested deferred closures included. A go
// statement calling a named function is not followed into the callee, so
// it is flagged unconditionally —
// inline a guarded closure, or suppress with
// "//dynalint:ignore goguard <reason>" when the callee is known to guard
// itself.
//
// Scope: the serving packages only (module root, internal/detector,
// internal/proxy, internal/obs — the admin HTTP server runs a serve
// goroutine). Offline analytics and test helpers may crash loudly.
type Goguard struct{}

// Name implements Analyzer.
func (Goguard) Name() string { return "goguard" }

// Doc implements Analyzer.
func (Goguard) Doc() string {
	return "goroutines in serving packages launched without a recover() guard (a panic there kills the process)"
}

// goguardPkgs are the serving packages whose goroutines must be guarded.
var goguardPkgs = map[string]bool{
	"":                  true, // module root: monitor, classifier
	"internal/detector": true,
	"internal/proxy":    true,
	"internal/obs":      true, // admin server's serve goroutine
}

// containsRecover reports whether body lexically contains a recover()
// call.
func containsRecover(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "recover" && len(call.Args) == 0 {
				found = true
			}
		}
		return !found
	})
	return found
}

// Run implements Analyzer.
func (g Goguard) Run(pass *Pass) []Finding {
	if !goguardPkgs[pass.PkgPath] {
		return nil
	}
	var out []Finding
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := unparen(gs.Call.Fun).(*ast.FuncLit); ok {
				if !containsRecover(lit.Body) {
					out = append(out, pass.finding(g.Name(), gs.Pos(),
						"goroutine launched without a recover() guard; a panic on this stack kills the process"))
				}
				return true
			}
			out = append(out, pass.finding(g.Name(), gs.Pos(),
				"go statement calls a named function the analyzer cannot verify; inline a recover()-guarded closure or suppress with //dynalint:ignore goguard <reason>"))
			return true
		})
	}
	return out
}
