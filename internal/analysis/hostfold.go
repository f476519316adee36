package analysis

import (
	"go/ast"
	"go/token"
)

// Hostfold flags case-sensitive use of raw host values. DNS names are
// case-insensitive (RFC 4343), and PR 1 fixed a real bug where a
// mixed-case Host header split one session cluster in two and let a
// redirect chain evade linkage. The detector now folds hosts to lowercase
// at extraction; this analyzer keeps every *new* comparison honest.
//
// It reports a bare `X.Host` selector (or `X.Referer()` call) used as:
//
//   - an operand of == or != (comparisons against the empty string are
//     emptiness checks, not identity checks, and stay exempt),
//   - a map/array index key,
//   - a switch tag or a case value of such a switch.
//
// Folded expressions pass automatically because they are no longer bare
// selectors: strings.ToLower(r.Host) == x, strings.EqualFold(a, b),
// wcg.HostOfURL(tx.Referer()) and the like are calls, not raw field reads.
type Hostfold struct{}

// Name implements Analyzer.
func (Hostfold) Name() string { return "hostfold" }

// Doc implements Analyzer.
func (Hostfold) Doc() string {
	return "raw Host/Referer values compared, indexed, or switched on without case folding"
}

// hostSource reports whether e is a bare read of a raw host-carrying
// value: a selector whose field is exactly "Host", or a call to a
// zero-argument Referer() method.
func hostSource(e ast.Expr) (string, bool) {
	switch x := unparen(e).(type) {
	case *ast.SelectorExpr:
		if x.Sel.Name == "Host" {
			return chainText(x), true
		}
	case *ast.CallExpr:
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Referer" && len(x.Args) == 0 {
			return chainText(x), true
		}
	}
	return "", false
}

// Run implements Analyzer.
func (h Hostfold) Run(pass *Pass) []Finding {
	var out []Finding
	report := func(pos token.Pos, what string) {
		out = append(out, pass.finding(h.Name(), pos,
			"%s used case-sensitively; DNS names are case-insensitive — fold with strings.ToLower or compare with strings.EqualFold", what))
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.BinaryExpr:
				if x.Op != token.EQL && x.Op != token.NEQ {
					return true
				}
				// "" comparisons test presence, not identity.
				if isEmptyStringLit(x.X) || isEmptyStringLit(x.Y) {
					return true
				}
				// One finding per comparison, even when both sides are raw.
				for _, side := range []ast.Expr{x.X, x.Y} {
					if what, ok := hostSource(side); ok {
						report(side.Pos(), what)
						break
					}
				}
			case *ast.IndexExpr:
				if what, ok := hostSource(x.Index); ok {
					report(x.Index.Pos(), what+" (map key)")
				}
			case *ast.SwitchStmt:
				tag, ok := hostSource(x.Tag)
				if !ok {
					return true
				}
				report(x.Tag.Pos(), tag+" (switch tag)")
				return true
			}
			return true
		})
	}
	return out
}
