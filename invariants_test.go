package dynaminer

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// The two project rules no behavioural test can anticipate are checked on
// the syntax of the source: a new bare clock read, and a new goroutine a
// panic could take the process down from. Every other property the
// serving path relies on is held by a test of its behaviour (DESIGN.md §7).

// parseNonTest parses the non-test Go files directly in dir.
func parseNonTest(t *testing.T, dir string) (*token.FileSet, []*ast.File) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return fset, files
}

// TestNoBareClockReads: library code never calls time.Now(), time.Since()
// or time.Until(). Replays must be deterministic, so the root package and
// internal/... read the clock only through the hooks that remain: the
// tracer's obs.defaultClock/monoSince, which tests replace, and
// proxy.Config.Now and JournalConfig.Now, which drive behaviour (block
// expiry, breaker cool-down, fsync interval).
func TestNoBareClockReads(t *testing.T) {
	bareClockReads := map[string]bool{"Now": true, "Since": true, "Until": true}
	dirs := []string{"."}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == "testdata":
			return filepath.SkipDir
		case d.IsDir():
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	parsed := 0
	for _, dir := range dirs {
		fset, files := parseNonTest(t, dir)
		parsed += len(files)
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && bareClockReads[sel.Sel.Name] {
						if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" {
							t.Errorf("%s: bare time.%s(); read the clock through an injected hook", fset.Position(call.Pos()), sel.Sel.Name)
						}
					}
				}
				return true
			})
		}
	}
	if parsed == 0 {
		t.Fatal("no library file parsed: the check covers nothing")
	}
}

// TestGoroutinesRecover: in the serving packages every go statement
// launches a function literal that contains recover(). A panic on a fresh
// goroutine's stack bypasses every handler-level recovery and ends the
// process; offline analytics packages may crash loudly and are out of
// scope.
func TestGoroutinesRecover(t *testing.T) {
	launched := 0
	for _, dir := range []string{".", "internal/detector", "internal/proxy", "internal/obs"} {
		fset, files := parseNonTest(t, dir)
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				launched++
				if lit, ok := g.Call.Fun.(*ast.FuncLit); !ok || !containsRecover(lit) {
					t.Errorf("%s: go statement must launch a function literal that calls recover()", fset.Position(g.Pos()))
				}
				return true
			})
		}
	}
	if launched == 0 {
		t.Fatal("no go statement found: the check covers nothing")
	}
}

// containsRecover reports whether a recover() call appears anywhere in n.
func containsRecover(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "recover" {
				found = true
			}
		}
		return !found
	})
	return found
}
