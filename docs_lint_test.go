package salientpp

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGodocCoverage is the godoc audit's enforcement: every exported
// symbol in the public facade (this package) and in internal/dist — the
// package whose wire formats and determinism contracts the documentation
// leans on — must carry a doc comment, and each package must have exactly
// one package comment. The staticcheck classes ST1000 (package comment)
// and ST1020/ST1021/ST1022 (exported symbol comments) cover the same
// ground but are opt-in per package; this test pins the two packages the
// docs point into so coverage cannot silently rot.
func TestGodocCoverage(t *testing.T) {
	for _, dir := range []string{".", "internal/dist"} {
		t.Run(dir, func(t *testing.T) {
			var problems []string
			fset := token.NewFileSet()
			pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			for _, pkg := range pkgs {
				var packageDoc bool
				for name, f := range pkg.Files {
					if f.Doc != nil {
						packageDoc = true
					}
					problems = append(problems, auditFile(fset, name, f)...)
				}
				if !packageDoc {
					problems = append(problems, fmt.Sprintf("package %s has no package comment", pkg.Name))
				}
			}
			for _, p := range problems {
				t.Error(p)
			}
		})
	}
}

// auditFile returns one problem line per undocumented exported top-level
// declaration (funcs, methods on exported receivers, types, and the first
// name of each exported const/var group).
func auditFile(fset *token.FileSet, name string, f *ast.File) []string {
	var problems []string
	report := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s has no doc comment", filepath.Base(p.Filename), p.Line, what))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || exportedReceiver(d) == "" && d.Recv != nil {
				continue
			}
			if d.Doc == nil {
				what := "function " + d.Name.Name
				if r := exportedReceiver(d); r != "" {
					what = "method " + r + "." + d.Name.Name
				}
				report(d.Pos(), what)
			}
		case *ast.GenDecl:
			if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
						report(s.Pos(), "type "+s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						// Grouped const/var blocks may document the group:
						// the block comment counts for every member.
						if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							report(n.Pos(), d.Tok.String()+" "+n.Name)
						}
					}
				}
			}
		}
	}
	return problems
}

// exportedReceiver returns the receiver type name of a method on an
// exported type, or "" for functions and methods on unexported types
// (whose docs godoc never shows).
func exportedReceiver(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	expr := d.Recv.List[0].Type
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	if ident, ok := expr.(*ast.Ident); ok && ident.IsExported() {
		return ident.Name
	}
	return ""
}

// testOnlyExportFixtures are exported functions under internal/ that no
// program file names on purpose: test fixtures, shared across packages or
// pinned by their own package's contract tests. Keys are "dir.Func" or
// "dir.Recv.Method".
var testOnlyExportFixtures = map[string]bool{
	// Graph builders and generators every package's tests draw from.
	"internal/graph.FromAdjacency":       true,
	"internal/graph.CSR.EdgeList":        true,
	"internal/graph.CSR.IsUndirected":    true,
	"internal/graph.Uniform":             true,
	"internal/graph.Ring":                true,
	"internal/graph.Star":                true,
	"internal/graph.Grid2D":              true,
	"internal/graph.Complete":            true,
	"internal/graph.IdentityPermutation": true,
	// Matrix construction, element access and comparison.
	"internal/tensor.FromSlice":        true,
	"internal/tensor.Matrix.At":        true,
	"internal/tensor.Matrix.Set":       true,
	"internal/tensor.MaxAbsDiff":       true,
	"internal/tensor.Arena.Held":       true,
	"internal/metrics.Histogram.Count": true,
	// Checkpoint writing and lookup for the recovery tests.
	"internal/ckpt.Encode": true,
	"internal/ckpt.Latest": true,
	// Fault injection, the FMA audit and the reduced-scale experiment
	// harnesses the tests and testing.B benchmarks run.
	"internal/dist.Chaos.Kill":                  true,
	"internal/fmacheck.Check":                   true,
	"internal/experiments.SmallScale":           true,
	"internal/experiments.AblationVIPPartition": true,
}

// TestNoTestOnlyExports fails on exported API that only tests use: an
// exported function or method declared under internal/ whose name appears
// as an identifier in no non-test Go file of the module or of bench/
// other than its own declaration. Such a function is dead code kept alive
// by its own test. The match is by name, so it only catches functions
// that nothing names at all; shared test fixtures are allowlisted in
// testOnlyExportFixtures.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}  // identifier name -> occurrences
	decls := map[string]int{} // function/method name -> declarations
	type export struct{ key, name, pos string }
	var exports []export
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			decls[fd.Name.Name]++
			if !fd.Name.IsExported() || !strings.HasPrefix(dir, "internal/") {
				continue
			}
			key := dir + "." + fd.Name.Name
			if r := exportedReceiver(fd); r != "" {
				key = dir + "." + r + "." + fd.Name.Name
			} else if fd.Recv != nil {
				continue // a method of an unexported type
			}
			exports = append(exports, export{key, fd.Name.Name, fset.Position(fd.Pos()).String()})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exports {
		if uses[e.name] <= decls[e.name] && !testOnlyExportFixtures[e.key] {
			t.Errorf("%s: %s is named by no program file; delete it with its tests, or allowlist it as a shared test fixture", e.pos, e.key)
		}
	}
}
