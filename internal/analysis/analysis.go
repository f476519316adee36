// Package analysis is dynalint's analyzer suite: project-specific static
// checks for the bug classes no test catches. Each analyzer stays only
// while a mutant of the code it guards passes every tier-1 test but is
// flagged here (DESIGN.md §7 lists the mutants). The suite is
// dependency-free — stdlib go/parser, go/ast, go/token and go/types only
// — because the build environment cannot fetch golang.org/x/tools.
//
// Every Pass is type-checked (see Checker): the driver refuses a package
// that does not type-check rather than linting it with less information.
//
// The analyzers and the invariant each one enforces:
//
//   - zerotime:  time.Time fields are formatted only behind an IsZero
//     guard, and library packages never call time.Now() directly — they
//     take an injectable Now hook so replays stay deterministic.
//   - lockscope: struct fields annotated "guarded by <mu>" are only
//     touched by functions that lock that mutex on the same receiver,
//     matched by object identity through one level of pointer aliasing;
//     locking a mutex through a value receiver (a copy) is reported.
//   - goguard: goroutines launched in the serving packages (module root,
//     internal/detector, internal/proxy, internal/obs) carry their own
//     recover() guard — a panic on a fresh stack bypasses the
//     handler-level recovery and kills the process.
//   - maporder:  a for-range over a map whose body feeds an
//     order-sensitive sink (slice append, counter-indexed slot write,
//     float accumulation, serialization) without a deterministic order
//     is flagged — exactly the class that silently breaks bit-identical
//     re-scoring.
//   - hotalloc:  functions annotated "//dynalint:hotpath" must contain
//     no allocation sites (make/new, unamortized append, string
//     concat/conversion, interface boxing, escaping closures).
//
// A finding on a specific line can be suppressed with a
// "//dynalint:ignore <analyzer> <reason>" comment on the same line or the
// line above; the reason is mandatory by convention, not by the parser.
// A directive above a multi-line statement suppresses the analyzer on
// every line the statement spans.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical "file:line: analyzer:
// message" form the driver prints.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Pass is one analyzed, type-checked package: its parsed files, their
// type information, and the metadata the analyzers key scope decisions on.
type Pass struct {
	Fset *token.FileSet
	// PkgPath is the module-relative directory of the package, e.g.
	// "internal/detector" ("" for the module root). goguard scopes on it.
	PkgPath string
	// PkgName is the declared package name; zerotime exempts "main".
	PkgName string
	Files   []*ast.File
	// Info is the go/types result for Files.
	Info *types.Info

	// ignores maps filename -> line -> analyzers suppressed on that line.
	ignores map[string]map[int]map[string]bool
	// above maps filename -> line -> analyzers suppressed by a directive
	// on the previous line; a statement starting on that line extends the
	// suppression over every line it spans.
	above map[string]map[int]map[string]bool
}

// Analyzer is one dynalint check.
type Analyzer interface {
	// Name is the short identifier used in findings and ignore directives.
	Name() string
	// Doc is a one-line description for -list output.
	Doc() string
	// Run analyzes the package and returns its findings (ignore
	// directives are applied by the framework, not the analyzer).
	Run(pass *Pass) []Finding
}

// All returns the full suite in reporting order.
func All() []Analyzer {
	return []Analyzer{
		Zerotime{}, Lockscope{}, Goguard{}, Maporder{}, Hotalloc{},
	}
}

// NewPass assembles a Pass and indexes its ignore directives. Files must
// all belong to the same package, have been parsed with
// parser.ParseComments, and have been type-checked into info.
func NewPass(fset *token.FileSet, pkgPath string, files []*ast.File, info *types.Info) *Pass {
	p := &Pass{
		Fset:    fset,
		PkgPath: pkgPath,
		Files:   files,
		Info:    info,
		ignores: map[string]map[int]map[string]bool{},
		above:   map[string]map[int]map[string]bool{},
	}
	for _, f := range files {
		if p.PkgName == "" && f.Name != nil {
			p.PkgName = f.Name.Name
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				p.indexIgnore(c)
			}
		}
	}
	for _, f := range files {
		p.extendIgnores(f)
	}
	return p
}

// addTo suppresses one analyzer on one line of m.
func addTo(m map[string]map[int]map[string]bool, file string, line int, name string) {
	byLine := m[file]
	if byLine == nil {
		byLine = map[int]map[string]bool{}
		m[file] = byLine
	}
	set := byLine[line]
	if set == nil {
		set = map[string]bool{}
		byLine[line] = set
	}
	set[name] = true
}

// indexIgnore records a "//dynalint:ignore name [reason]" directive. The
// directive suppresses the named analyzer on its own line (trailing
// comment) and on the following line (comment-above form); extendIgnores
// later widens the comment-above form over multi-line statements.
func (p *Pass) indexIgnore(c *ast.Comment) {
	text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "dynalint:ignore") {
		return
	}
	fields := strings.Fields(strings.TrimPrefix(text, "dynalint:ignore"))
	if len(fields) == 0 {
		return
	}
	pos := p.Fset.Position(c.Pos())
	addTo(p.ignores, pos.Filename, pos.Line, fields[0])
	addTo(p.ignores, pos.Filename, pos.Line+1, fields[0])
	addTo(p.above, pos.Filename, pos.Line+1, fields[0])
}

// extendIgnores widens the comment-above directive form: a directive on
// the line above a statement or declaration that spans several lines
// suppresses the analyzer on every line the node spans, so findings
// reported against the statement's later lines (a wrapped call argument,
// a multi-line composite literal) are still covered.
func (p *Pass) extendIgnores(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case ast.Stmt, ast.Decl:
		default:
			return true
		}
		start := p.Fset.Position(n.Pos())
		end := p.Fset.Position(n.End())
		if end.Line <= start.Line {
			return true
		}
		set := p.above[start.Filename][start.Line]
		for name := range set {
			for line := start.Line + 1; line <= end.Line; line++ {
				addTo(p.ignores, start.Filename, line, name)
			}
		}
		return true
	})
}

// ignored reports whether the named analyzer is suppressed at pos.
func (p *Pass) ignored(name string, pos token.Position) bool {
	return p.ignores[pos.Filename][pos.Line][name]
}

// Run executes the analyzers over the pass, drops suppressed findings,
// and returns the remainder in file/line order.
func Run(pass *Pass, analyzers []Analyzer) []Finding {
	var out []Finding
	for _, a := range analyzers {
		for _, f := range a.Run(pass) {
			if pass.ignored(a.Name(), f.Pos) {
				continue
			}
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// finding builds a Finding at a node's position.
func (p *Pass) finding(name string, pos token.Pos, format string, args ...any) Finding {
	return Finding{Pos: p.Fset.Position(pos), Analyzer: name, Message: fmt.Sprintf(format, args...)}
}

// walkStack traverses root depth-first, invoking fn with the ancestor
// path; stack[len(stack)-1] is the current node.
func walkStack(root ast.Node, fn func(stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		fn(append([]ast.Node(nil), stack...))
		return true
	})
}

// chainText renders an ident/selector chain ("sh.eng", "a.Time") for
// textual receiver matching; expressions outside that shape collapse to
// a coarse form or "".
func chainText(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if base := chainText(x.X); base != "" {
			return base + "." + x.Sel.Name
		}
	case *ast.ParenExpr:
		return chainText(x.X)
	case *ast.StarExpr:
		return chainText(x.X)
	case *ast.UnaryExpr:
		return chainText(x.X)
	case *ast.IndexExpr:
		if base := chainText(x.X); base != "" {
			return base + "[]"
		}
	case *ast.CallExpr:
		if base := chainText(x.Fun); base != "" {
			return base + "()"
		}
	}
	return ""
}

// unparen strips redundant parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// enclosingFunc returns the innermost FuncDecl or FuncLit body on the
// stack, or nil.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// funcBody returns the body of a FuncDecl or FuncLit.
func funcBody(fn ast.Node) *ast.BlockStmt {
	switch f := fn.(type) {
	case *ast.FuncDecl:
		return f.Body
	case *ast.FuncLit:
		return f.Body
	}
	return nil
}
