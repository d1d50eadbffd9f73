package salientpp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIWorkflowTargetsExist keeps the CI workflow's hand-written test
// selectors honest. `go test -run` passes silently when a pattern matches
// nothing, and `-fuzz` on a missing target fails only in the fuzz job, so a
// renamed test would quietly drop out of the chaos-smoke re-runs. Every
// alternative of a chaos-smoke `-run '…'` pattern must match a Test or Fuzz
// function of the package that command tests, and every fuzz-smoke
// `pkg:FuzzName` target must name a Fuzz function of pkg.
func TestCIWorkflowTargetsExist(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	workflow := string(raw)

	// Shell continuation lines join into one command line.
	chaos := strings.ReplaceAll(ciJob(t, workflow, "chaos-smoke"), "\\\n", " ")
	runs := regexp.MustCompile(`-run '([^']+)'\s+(\./\S+)`).FindAllStringSubmatch(chaos, -1)
	if len(runs) == 0 {
		t.Fatal("chaos-smoke: no `-run '…' ./pkg` command found; update this test with the workflow")
	}
	for _, m := range runs {
		names := testFuncs(t, m[2])
		for _, alt := range strings.Split(m[1], "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("chaos-smoke %s: bad -run alternative %q: %v", m[2], alt, err)
				continue
			}
			if !anyMatch(re, names) {
				t.Errorf("chaos-smoke %s: -run alternative %q matches no test", m[2], alt)
			}
		}
	}

	fuzz := regexp.MustCompile(`(?m)^\s*(\./\S+):(Fuzz\w+)\s*$`).FindAllStringSubmatch(ciJob(t, workflow, "fuzz-smoke"), -1)
	if len(fuzz) == 0 {
		t.Fatal("fuzz-smoke: no `./pkg:FuzzName` target found; update this test with the workflow")
	}
	for _, m := range fuzz {
		if !slices.Contains(testFuncs(t, m[1]), m[2]) {
			t.Errorf("fuzz-smoke: %s has no %s", m[1], m[2])
		}
	}
}

// ciJob returns the text of one job under the workflow's `jobs:` key: from
// its two-space-indented name to the next job's.
func ciJob(t *testing.T, workflow, name string) string {
	t.Helper()
	start := strings.Index(workflow, "\n  "+name+":\n")
	if start < 0 {
		t.Fatalf("ci.yml has no %s job", name)
	}
	body := workflow[start+len(name)+4:]
	if end := regexp.MustCompile(`\n  [A-Za-z0-9_-]+:\n`).FindStringIndex(body); end != nil {
		body = body[:end[0]]
	}
	return body
}

// testFuncs lists the top-level Test and Fuzz functions in dir's test files.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
		return strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil &&
					(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatalf("%s: no Test or Fuzz functions found", dir)
	}
	return names
}

func anyMatch(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
