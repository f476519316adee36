package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// wantRe matches `// want "substring"` golden expectations.
var wantRe = regexp.MustCompile(`//\s*want\s+"([^"]+)"`)

// expectations reads the `// want` comments of every fixture in dir,
// returning file -> line -> expected message substring.
func expectations(t *testing.T, dir string) map[string]map[int]string {
	t.Helper()
	out := map[string]map[int]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			if out[path] == nil {
				out[path] = map[int]string{}
			}
			out[path][i+1] = m[1]
		}
	}
	return out
}

// One FileSet+Checker pair shared by every fixture test, rooted at the
// module directory so `go list -export` resolves the full stdlib
// dependency closure once.
var (
	typedOnce    sync.Once
	typedFset    *token.FileSet
	typedChecker *Checker
)

func fixtureChecker() (*token.FileSet, *Checker) {
	typedOnce.Do(func() {
		typedFset = token.NewFileSet()
		typedChecker = NewChecker(typedFset, filepath.Join("..", ".."))
	})
	return typedFset, typedChecker
}

// parsePassTyped parses every .go file in dir into one Pass and
// type-checks it under a synthetic import path; every fixture must
// type-check.
func parsePassTyped(t *testing.T, dir, pkgPath string) *Pass {
	t.Helper()
	fset, checker := fixtureChecker()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no fixtures in %s", dir)
	}
	importPath := "dynaminer/fixture/" + filepath.ToSlash(dir)
	info, err := checker.Check(importPath, files)
	if err != nil {
		t.Fatalf("type-check fixtures in %s: %v", dir, err)
	}
	return NewPass(fset, pkgPath, files, info)
}

// parseSrcTyped parses one in-memory file into a typed Pass.
func parseSrcTyped(t *testing.T, pkgPath, name, src string) *Pass {
	t.Helper()
	fset, checker := fixtureChecker()
	f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	info, err := checker.Check("dynaminer/fixture/src/"+name, []*ast.File{f})
	if err != nil {
		t.Fatalf("type-check %s: %v", name, err)
	}
	return NewPass(fset, pkgPath, []*ast.File{f}, info)
}

// runTypedFixture analyzes testdata/<dir> over a type-checked pass and
// checks the findings against the `// want` golden comments: one finding
// per want line with a matching message, zero findings anywhere else (no
// false positives).
func runTypedFixture(t *testing.T, a Analyzer, dir, pkgPath string) {
	t.Helper()
	d := filepath.Join("testdata", dir)
	checkFixture(t, a, parsePassTyped(t, d, pkgPath), d)
}

// checkFixture verifies the findings of one analyzer over one fixture
// pass against the `// want` golden comments.
func checkFixture(t *testing.T, a Analyzer, pass *Pass, dir string) {
	t.Helper()
	findings := Run(pass, []Analyzer{a})
	want := expectations(t, dir)

	seen := map[string]map[int]bool{}
	for _, f := range findings {
		if seen[f.Pos.Filename] == nil {
			seen[f.Pos.Filename] = map[int]bool{}
		}
		if seen[f.Pos.Filename][f.Pos.Line] {
			t.Errorf("duplicate finding at %s:%d", f.Pos.Filename, f.Pos.Line)
			continue
		}
		seen[f.Pos.Filename][f.Pos.Line] = true
		substr, ok := want[f.Pos.Filename][f.Pos.Line]
		if !ok {
			t.Errorf("unexpected finding (false positive): %s", f)
			continue
		}
		if !strings.Contains(f.Message, substr) {
			t.Errorf("finding at %s:%d: message %q does not contain %q", f.Pos.Filename, f.Pos.Line, f.Message, substr)
		}
	}
	var missed []string
	for file, lines := range want {
		for line := range lines {
			if !seen[file][line] {
				missed = append(missed, fmt.Sprintf("%s:%d", file, line))
			}
		}
	}
	sort.Strings(missed)
	for _, m := range missed {
		t.Errorf("expected finding not reported (missed bug): %s", m)
	}
}

func TestZerotimeFixtures(t *testing.T) {
	runTypedFixture(t, Zerotime{}, "zerotime", "internal/analysis/testdata")
}

func TestLockscopeFixtures(t *testing.T) {
	runTypedFixture(t, Lockscope{}, "lockscope", "internal/analysis/testdata")
}

// Goguard only runs over the serving packages, so its fixture is analyzed
// under one of those package paths; a second test asserts the scoping
// (internal/graph launches crash-loudly goroutines legitimately).
func TestGoguardFixtures(t *testing.T) {
	runTypedFixture(t, Goguard{}, "goguard", "internal/detector")
}

func TestGoguardScopedToServingPackages(t *testing.T) {
	pass := parsePassTyped(t, filepath.Join("testdata", "goguard"), "internal/graph")
	if findings := Run(pass, []Analyzer{Goguard{}}); len(findings) != 0 {
		t.Fatalf("goguard fired outside the serving packages: %v", findings)
	}
}

// TestZerotimeFlagsPrePR1Bug re-creates the PR-1 zero-timestamp alert:
// classify stamped Alert.Time from RespTime with no fallback, and the
// CLI formatted it unguarded.
func TestZerotimeFlagsPrePR1Bug(t *testing.T) {
	const prePR1 = `package main

import "time"

type Alert struct{ Time time.Time }

func printAlert(a Alert) string {
	return a.Time.Format(time.RFC3339)
}
`
	pass := parseSrcTyped(t, "cmd/dynaminer", "pre_pr1.go", prePR1)
	findings := Run(pass, []Analyzer{Zerotime{}})
	if len(findings) != 1 || !strings.Contains(findings[0].Message, "IsZero") {
		t.Fatalf("zerotime findings = %v, want the unguarded Format flagged", findings)
	}
}

// TestIgnoreDirective checks both placements of dynalint:ignore.
func TestIgnoreDirective(t *testing.T) {
	const src = `package p

import "time"

func a() time.Time {
	//dynalint:ignore zerotime above-line form
	return time.Now()
}

func b() time.Time {
	return time.Now() //dynalint:ignore zerotime trailing form
}

func c() time.Time {
	return time.Now() // no directive: still flagged
}
`
	pass := parseSrcTyped(t, "p", "ignored.go", src)
	findings := Run(pass, []Analyzer{Zerotime{}})
	if len(findings) != 1 || findings[0].Pos.Line != 15 {
		t.Fatalf("findings = %v, want exactly the undirected time.Now() on line 15", findings)
	}
}

// TestAllAnalyzersRegistered pins the suite composition.
func TestAllAnalyzersRegistered(t *testing.T) {
	names := map[string]bool{}
	for _, a := range All() {
		if a.Doc() == "" {
			t.Errorf("analyzer %s has no doc", a.Name())
		}
		names[a.Name()] = true
	}
	for _, want := range []string{"zerotime", "lockscope", "goguard", "maporder", "hotalloc"} {
		if !names[want] {
			t.Errorf("analyzer %s missing from All()", want)
		}
	}
	if len(names) != 5 {
		t.Errorf("suite has %d analyzers, want 5: %v", len(names), names)
	}
}

func TestMaporderFixtures(t *testing.T) {
	runTypedFixture(t, Maporder{}, "maporder", "internal/analysis/testdata")
}

func TestHotallocFixtures(t *testing.T) {
	runTypedFixture(t, Hotalloc{}, "hotalloc", "internal/analysis/testdata")
}

func TestLockscopeTypedFixtures(t *testing.T) {
	runTypedFixture(t, Lockscope{}, "lockscope_typed", "internal/analysis/testdata")
}

// TestIgnoreDirectiveMultiLineStatement is the regression test for the
// directive edge case: an ignore on the line above a statement that
// spans several lines must suppress findings reported on the
// statement's later lines (here the append three lines below the
// directive). Before the extendIgnores fix only the statement's first
// line was covered and this test failed.
func TestIgnoreDirectiveMultiLineStatement(t *testing.T) {
	const src = `package p

func collect() []string {
	m := make(map[string]string)
	m["a"] = "b"
	var out []string
	//dynalint:ignore maporder deliberate order-free collection
	for k := range m {
		out = append(out, k)
	}
	return out
}
`
	pass := parseSrcTyped(t, "p", "multiline.go", src)
	if findings := Run(pass, []Analyzer{Maporder{}}); len(findings) != 0 {
		t.Fatalf("directive above a multi-line statement failed to suppress: %v", findings)
	}
}

// TestMaporderFlagsPreV2SummarizeBug re-creates the pre-v2 cmd/dynaminer
// payload summary: an inner map iteration appending the rendered parts.
// The append order happened to be pinned by the equality guard, but the
// shape is exactly the nondeterministic-collection bug class, and the
// rewrite (index the map by rendered name, then walk sorted names) is
// both deterministic by construction and no longer quadratic.
func TestMaporderFlagsPreV2SummarizeBug(t *testing.T) {
	const preV2 = `package main

import "fmt"

func payloadSummary(counts map[string]int, classes []string) []string {
	var parts []string
	for _, name := range classes {
		for c, n := range counts {
			if c == name {
				parts = append(parts, fmt.Sprintf("%s=%d", name, n))
			}
		}
	}
	return parts
}
`
	pass := parseSrcTyped(t, "cmd/dynaminer", "pre_v2_summarize.go", preV2)
	findings := Run(pass, []Analyzer{Maporder{}})
	if len(findings) != 1 || !strings.Contains(findings[0].Message, "append inside map iteration") {
		t.Fatalf("maporder findings = %v, want the inner-loop append flagged", findings)
	}
}

// TestMaporderFlagsPreV2FeaturereportBug re-creates the pre-v2
// examples/featurereport output loop: ranging over a two-entry map
// literal to write files and print, so the report lines swapped order
// from run to run.
func TestMaporderFlagsPreV2FeaturereportBug(t *testing.T) {
	const preV2 = `package main

import "fmt"

func report(a, b int) {
	for name, v := range map[string]int{"infection.dot": a, "benign.dot": b} {
		fmt.Printf("wrote %s (%d)\n", name, v)
	}
}
`
	pass := parseSrcTyped(t, "examples/featurereport", "pre_v2_report.go", preV2)
	findings := Run(pass, []Analyzer{Maporder{}})
	if len(findings) != 1 || !strings.Contains(findings[0].Message, "Printf inside map iteration") {
		t.Fatalf("maporder findings = %v, want the Printf flagged", findings)
	}
}

// TestHotallocQuietWithoutAnnotation: hotalloc binds only to annotated
// functions, so an allocation-heavy unannotated package yields nothing.
func TestHotallocQuietWithoutAnnotation(t *testing.T) {
	const src = `package p

func alloc(n int) []int {
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}
`
	pass := parseSrcTyped(t, "p", "quiet.go", src)
	if findings := Run(pass, []Analyzer{Hotalloc{}}); len(findings) != 0 {
		t.Fatalf("hotalloc fired without a hotpath annotation: %v", findings)
	}
}
