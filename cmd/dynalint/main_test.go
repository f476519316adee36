package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a map of relative path -> contents under a temp
// root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// goMod makes a temp tree a module, so the driver can type-check it.
const goMod = "module example.com/lint\n\ngo 1.22\n"

const dirtyFile = `package p

import "time"

func stamp() time.Time { return time.Now() }
`

const cleanFile = `package p

import "time"

func stamp(now func() time.Time) time.Time { return now() }
`

func TestDriverReportsFindingsAndExitCode(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":          goMod,
		"internal/a/a.go": dirtyFile,
		"internal/b/b.go": cleanFile,
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-root", root}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "internal/a/a.go:5: zerotime:") {
		t.Fatalf("finding not in canonical file:line: analyzer: message form:\n%s", out)
	}
	if strings.Contains(out, "b.go") {
		t.Fatalf("clean file reported:\n%s", out)
	}
}

func TestDriverCleanTreeExitsZero(t *testing.T) {
	root := writeTree(t, map[string]string{"go.mod": goMod, "lib/ok.go": cleanFile})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-root", root}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0; out: %s%s", code, stdout.String(), stderr.String())
	}
}

func TestDriverDefaultSkipsTestdataAndTests(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":                  goMod,
		"pkg/testdata/fixture.go": dirtyFile,
		"pkg/pkg_test.go":         dirtyFile,
		"pkg/ok.go":               cleanFile,
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-root", root}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0; out:\n%s%s", code, stdout.String(), stderr.String())
	}
}

func TestDriverParseErrorExitsTwo(t *testing.T) {
	root := writeTree(t, map[string]string{"go.mod": goMod, "broken/broken.go": "package {"})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-root", root}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "broken.go") {
		t.Fatalf("parse error does not name the file:\n%s", stderr.String())
	}
}

func TestDriverListAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got, want := strings.Join(names, " "), "zerotime lockscope goguard maporder hotalloc"; got != want {
		t.Fatalf("-list names %q, want %q", got, want)
	}
}

// TestRepoIsClean runs the driver over this repository itself — the
// make-lint gate in test form: the tree must stay free of findings.
func TestRepoIsClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-root", "../.."}, &stdout, &stderr); code != 0 {
		t.Fatalf("dynalint over the repo exited %d:\n%s%s", code, stdout.String(), stderr.String())
	}
}

// TestDriverDegradesWithoutGoMod: a tree without go.mod cannot be
// type-checked, so the driver refuses it — exit 2, the root named on
// stderr, no findings on stdout — instead of linting with less
// information.
func TestDriverDegradesWithoutGoMod(t *testing.T) {
	root := writeTree(t, map[string]string{"internal/a/a.go": dirtyFile})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-root", root}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "no go.mod under "+root) {
		t.Fatalf("stderr does not name the tree without go.mod:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("refused tree still reported findings:\n%s", stdout.String())
	}
}

// TestDriverTypeCheckFailureDegrades: with a go.mod present but a
// package that references an unresolvable import, the driver exits 2 and
// names the package that failed to type-check.
func TestDriverTypeCheckFailureDegrades(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":          goMod,
		"internal/b/b.go": cleanFile,
		"internal/a/a.go": `package p

import "example.com/lint/internal/missing"

func name() string { return missing.Name }
`,
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-root", root}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2; stdout: %s stderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "example.com/lint/internal/a: type checking failed") {
		t.Fatalf("stderr does not name the package that failed to type-check:\n%s", stderr.String())
	}
}
