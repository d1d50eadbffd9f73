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
// renamed test would quietly drop out of the kernel-contract or chaos-smoke
// re-runs. Every alternative of every `-run '…'` pattern in the workflow
// must match a Test or Fuzz function of one of the packages that command
// tests, and every fuzz-smoke `pkg:FuzzName` target must name a Fuzz
// function of pkg.
func TestCIWorkflowTargetsExist(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	// Shell continuation lines join into one command line.
	workflow := strings.ReplaceAll(string(raw), "\\\n", " ")

	for _, job := range []string{"test", "chaos-smoke"} {
		if !strings.Contains(ciJob(t, workflow, job), "-run '") {
			t.Fatalf("%s: no `go test … -run '…' ./pkg` command found; update this test with the workflow", job)
		}
	}
	for _, m := range regexp.MustCompile(`go test([^\n']*)-run '([^']+)'([^\n]*)`).FindAllStringSubmatch(workflow, -1) {
		var pkgs, names []string
		for _, f := range strings.Fields(m[1] + " " + m[3]) {
			if f == "." || strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, f)
				names = append(names, testFuncs(t, f)...)
			}
		}
		if len(pkgs) == 0 {
			t.Errorf("-run '%s': the command names no package path", m[2])
			continue
		}
		for _, alt := range strings.Split(m[2], "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("%v: bad -run alternative %q: %v", pkgs, alt, err)
				continue
			}
			if !anyMatch(re, names) {
				t.Errorf("%v: -run alternative %q matches no test", pkgs, alt)
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
