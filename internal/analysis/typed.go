package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"strings"
)

// Checker type-checks parsed packages with stdlib go/types. Imports
// resolve through compiled export data located by one `go list -export`
// invocation per run, so the checker needs nothing outside the standard
// toolchain and shares a single package cache across every Check call.
// A Checker is not safe for concurrent use: go/types mutates the shared
// importer state.
//
// A package that does not type-check (a missing dependency, a compile
// error, a tree without a go.mod) makes Check return an error; there is
// no untyped fallback.
type Checker struct {
	fset *token.FileSet
	dir  string

	loaded  bool
	listErr error
	exports map[string]string
	imp     types.ImporterFrom
}

// NewChecker returns a Checker rooted at the module directory dir. All
// files passed to Check must have been parsed on fset.
func NewChecker(fset *token.FileSet, dir string) *Checker {
	return &Checker{fset: fset, dir: dir}
}

// loadExports runs `go list -export` once and indexes import path ->
// export-data file for the module's packages and their full dependency
// closure (the standard library included).
func (c *Checker) loadExports() error {
	if c.loaded {
		return c.listErr
	}
	c.loaded = true
	cmd := exec.Command("go", "list", "-e", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}", "./...")
	cmd.Dir = c.dir
	out, err := cmd.Output()
	if err != nil {
		msg := err.Error()
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			msg = strings.TrimSpace(string(ee.Stderr))
		}
		c.listErr = fmt.Errorf("go list -export: %s", msg)
		return c.listErr
	}
	c.exports = map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if i := strings.IndexByte(line, '='); i > 0 && i < len(line)-1 {
			c.exports[line[:i]] = line[i+1:]
		}
	}
	c.imp = importer.ForCompiler(c.fset, "gc", c.lookup).(types.ImporterFrom)
	return nil
}

// lookup opens the export data for one import path.
func (c *Checker) lookup(path string) (io.ReadCloser, error) {
	p, ok := c.exports[path]
	if !ok || p == "" {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(p)
}

// Import implements types.Importer.
func (c *Checker) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom over the export-data index.
func (c *Checker) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return c.imp.ImportFrom(path, dir, mode)
}

// NewInfo returns a types.Info with every map the analyzers consult
// allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// Check type-checks one package's files under the given import path and
// returns the filled Info, or the first type error.
func (c *Checker) Check(pkgPath string, files []*ast.File) (*types.Info, error) {
	if err := c.loadExports(); err != nil {
		return nil, err
	}
	info := NewInfo()
	conf := types.Config{Importer: c}
	if _, err := conf.Check(pkgPath, c.fset, files, info); err != nil {
		return nil, err
	}
	return info, nil
}
