package main_bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// guardedPackages are the packages whose exported functions and
// methods must each have a caller in non-test code.
var guardedPackages = []string{"internal/dist", "internal/partition", "internal/inquiry", "internal/core", "internal/template", "internal/index",
	"internal/runtime", "internal/spmd", "internal/engine", "internal/align", "internal/obs/analyze", "internal/transport", "internal/job"}

// apiAllowList names exported functions and methods of the guarded
// packages ("pkg.Name" or "pkg.Type.Name") that may go unreferenced,
// each with its reason.
var apiAllowList = map[string]string{
	"core.Frame.RedistributeDummy":     "§7's DYNAMIC dummy redistributed during a call: the hpf facade's Call hands out the Frame, and no in-tree program redistributes a dummy yet",
	"engine.NewOracle":                 "the element-wise oracle behind the backend interface: the engine and interp differentials in other packages' tests compare both engine kinds against it, and a _test.go helper cannot cross packages",
	"transport.NewChaos":               "the fault-injection wire the elastic and interp job tests in other packages wrap their transports in, and a _test.go helper cannot cross packages",
	"transport.MemberLostError.Unwrap": "the standard library calls it: errors.Is and errors.As reach a loss's I/O cause through it",
}

// TestExportedAPIReferenced: every exported top-level function and
// exported method of the guarded packages is referenced by name in
// non-test Go code — the module, examples/ and bench/ — somewhere
// other than its own declaration. An export only tests call is
// test scaffolding in the production API; move it into the test or
// delete it.
func TestExportedAPIReferenced(t *testing.T) {
	refs := map[string]int{}
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if name := e.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		countRefs(f, refs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range guardedPackages {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || !fd.Name.IsExported() {
						continue
					}
					key := pkg.Name + "." + fd.Name.Name
					if fd.Recv != nil {
						key = pkg.Name + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
					}
					if _, ok := apiAllowList[key]; ok {
						continue
					}
					if refs[fd.Name.Name] == 0 {
						t.Errorf("%s (%s) has no reference in non-test code: delete it, or allow-list it with a reason", key, dir)
					}
				}
			}
		}
	}
}

// countRefs counts the identifiers of f that use a name: every
// identifier but a function or method's own name in its declaration
// and the names a field list declares (struct fields, parameters,
// results and interface methods).
func countRefs(f *ast.File, refs map[string]int) {
	declared := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			declared[n.Name] = true
		case *ast.Field:
			for _, id := range n.Names {
				declared[id] = true
			}
		case *ast.Ident:
			if !declared[n] {
				refs[n.Name]++
			}
		}
		return true
	})
}

// recvType names a method receiver's type, without its pointer.
func recvType(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
