// Command dynalint runs the project's invariant analyzers (see
// internal/analysis) over the module tree and reports every violation in
// "file:line: analyzer: message" form. It exits 0 when the tree is clean,
// 1 when it has findings, and 2 on usage, parse or type errors, so it
// slots into make lint and CI gates.
//
// Usage:
//
//	dynalint [-root dir] [-list]
//
// The driver type-checks each package with go/types, resolving imports
// through `go list -export` data, and threads the result through the
// analyzers. A package that fails to type-check, or a tree without a
// go.mod, is an error: dynalint names the package and exits 2 rather
// than lint it with less information.
//
// testdata, vendor and dot directories are skipped, and so are _test.go
// files: test fixtures intentionally exercise zero times and unguarded
// goroutines, and the invariants bind production code.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dynaminer/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable streams, for tests.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("dynalint", flag.ContinueOnError)
	fl.SetOutput(stderr)
	root := fl.String("root", ".", "module directory to analyze")
	list := fl.Bool("list", false, "list the analyzers and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-11s %s\n", a.Name(), a.Doc())
		}
		return 0
	}
	findings, err := lintTree(*root)
	if err != nil {
		fmt.Fprintf(stderr, "dynalint: %v\n", err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f.String())
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "dynalint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// moduleName extracts the module path from root/go.mod.
func moduleName(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("no go.mod under %s: the analyzers need type information", root)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod declares no module", root)
}

// lintTree walks root, parses and type-checks every kept package on one
// shared FileSet, and runs the full analyzer suite over each in
// (directory, package) order. Findings carry root-relative filenames.
func lintTree(root string) ([]analysis.Finding, error) {
	modPath, err := moduleName(root)
	if err != nil {
		return nil, err
	}
	byDir := map[string][]string{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			byDir[filepath.Dir(path)] = append(byDir[filepath.Dir(path)], path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(byDir))
	for dir := range byDir {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)

	// One FileSet for the whole run: the type checker's import cache and
	// every Pass must agree on positions.
	fset := token.NewFileSet()
	checker := analysis.NewChecker(fset, root)
	var all []analysis.Finding
	for _, dir := range dirs {
		var files []*ast.File
		for _, path := range byDir[dir] {
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		pkgPath, importPath := filepath.ToSlash(rel), modPath
		if pkgPath == "." {
			pkgPath = ""
		} else {
			importPath += "/" + pkgPath
		}
		info, err := checker.Check(importPath, files)
		if err != nil {
			return nil, fmt.Errorf("%s: type checking failed: %v", importPath, err)
		}
		findings := analysis.Run(analysis.NewPass(fset, pkgPath, files, info), analysis.All())
		for i := range findings {
			if rel, err := filepath.Rel(root, findings[i].Pos.Filename); err == nil {
				findings[i].Pos.Filename = filepath.ToSlash(rel)
			}
		}
		all = append(all, findings...)
	}
	return all, nil
}
