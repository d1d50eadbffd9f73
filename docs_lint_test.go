package salientpp

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
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
// program file uses on purpose: test fixtures, shared across packages or
// pinned by their own package's contract tests. Keys are "dir.Func" or
// "dir.Recv.Method".
var testOnlyExportFixtures = map[string]bool{
	// Graph builders and generators every package's tests draw from.
	"internal/graph.CSR.IsUndirected": true,
	"internal/graph.Uniform":          true,
	"internal/graph.Ring":             true,
	"internal/graph.Star":             true,
	"internal/graph.Grid2D":           true,
	// Matrix construction, element access and comparison.
	"internal/tensor.FromSlice":  true,
	"internal/tensor.Matrix.At":  true,
	"internal/tensor.Matrix.Set": true,
	"internal/tensor.MaxAbsDiff": true,
	"internal/tensor.Arena.Held": true,
	// The store-pool leak gauge the dist, serve and pipeline tests read.
	"internal/dist.Store.Live": true,
	// Fault injection, the FMA audit and the reduced-scale experiment
	// harnesses the tests and testing.B benchmarks run.
	"internal/dist.Chaos.Kill":                  true,
	"internal/fmacheck.Check":                   true,
	"internal/experiments.SmallScale":           true,
	"internal/experiments.AblationVIPPartition": true,
}

// TestNoTestOnlyExports fails on exported API that only tests use: an
// exported function or method declared under internal/ that no non-test
// Go file of the module or of bench/ uses. Such a function is dead code
// kept alive by its own test. A package-level function counts as used
// only through a qualified pkg.Name selector in a file that imports its
// package, or through an unqualified identifier in one of its own
// package's program files other than its declaration, so a method or
// another package's function of the same name (Store.Gather beside
// tensor.Gather, slices.Sorted beside CSR.Sorted) cannot hide it. A
// method counts as used when any identifier outside its declaration
// names it. Shared test fixtures are allowlisted in
// testOnlyExportFixtures.
func TestNoTestOnlyExports(t *testing.T) {
	const module = "salientpp/"
	fset := token.NewFileSet()
	names := map[string]int{}                     // identifier name -> occurrences anywhere
	decls := map[string]int{}                     // function/method name -> declarations anywhere
	pkgUses := map[string]int{}                   // "dir.Name" -> qualified uses plus unqualified ones in dir
	pkgDecls := map[string]int{}                  // "dir.Name" -> function/method declarations in dir
	type export struct{ key, method, pos string } // method: the method name, "" for a package-level function
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
		dir := filepath.ToSlash(filepath.Dir(path))
		imported := map[string]string{} // local package name -> module dir
		for _, imp := range f.Imports {
			ipath, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !strings.HasPrefix(ipath, module) {
				continue
			}
			name := ipath[strings.LastIndex(ipath, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imported[name] = strings.TrimPrefix(ipath, module)
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				names[n.Sel.Name]++
				if x, ok := n.X.(*ast.Ident); ok {
					if pkg, ok := imported[x.Name]; ok {
						pkgUses[pkg+"."+n.Sel.Name]++
						return false
					}
				}
				ast.Inspect(n.X, visit) // the selected name is no unqualified use
				return false
			case *ast.Ident:
				names[n.Name]++
				pkgUses[dir+"."+n.Name]++
			}
			return true
		}
		ast.Inspect(f, visit)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			decls[fd.Name.Name]++
			pkgDecls[dir+"."+fd.Name.Name]++
			if !fd.Name.IsExported() || !strings.HasPrefix(dir, "internal/") {
				continue
			}
			if r := exportedReceiver(fd); r != "" {
				exports = append(exports, export{dir + "." + r + "." + fd.Name.Name, fd.Name.Name, fset.Position(fd.Pos()).String()})
			} else if fd.Recv == nil {
				exports = append(exports, export{dir + "." + fd.Name.Name, "", fset.Position(fd.Pos()).String()})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exports {
		used := pkgUses[e.key] > pkgDecls[e.key]
		if e.method != "" {
			used = names[e.method] > decls[e.method]
		}
		if !used && !testOnlyExportFixtures[e.key] {
			t.Errorf("%s: %s is used by no program file; delete it with its tests, or allowlist it as a shared test fixture", e.pos, e.key)
		}
	}
}
