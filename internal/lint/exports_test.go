package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// TestExportsHaveCallers keeps the module's internal API honest: every
// exported function or method declared in an internal/ package must have a
// caller in the module's non-test code, or implement an interface method. A
// function that only its tests call belongs in a _test.go file.
//
// This is a whole-module test and not a dynnlint analyzer on purpose: the
// driver's cache key (keyOf) covers a package's own files and its
// dependencies, not its importers, so a per-package analyzer would keep
// serving a cached "no finding" after an importer drops the last call.
func TestExportsHaveCallers(t *testing.T) {
	for _, msg := range uncalledExports(t, moduleRoot) {
		t.Error(msg)
	}
}

// TestUncalledExportsFixture checks the guard on a planted module: it flags
// the one export nothing calls, and none that a caller reaches by a direct
// call, a generic instantiation, fmt's %v verb (String) or errors.Is
// (Unwrap).
func TestUncalledExportsFixture(t *testing.T) {
	got := uncalledExports(t, filepath.Join("testdata", "src", "exports"))
	if len(got) != 1 || !strings.Contains(got[0], "lib.go:21: fixture/internal/lib.Planted ") {
		t.Errorf("findings = %q, want exactly lib.go:21: fixture/internal/lib.Planted", got)
	}
}

// uncalledExports loads every non-test package of the module rooted at root,
// as dynnlint ./... does, and returns "file:line: name" for each exported
// function or method of an internal/ package that no types.Info.Uses entry
// references and that implements no interface method.
func uncalledExports(t *testing.T, root string) []string {
	t.Helper()
	sc, err := scanModule(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	need := map[string]bool{}
	for _, path := range sc.order {
		need[path] = true
	}
	l := NewLoader()
	if err := checkParallel(l, sc, need, runtime.GOMAXPROCS(0)); err != nil {
		t.Fatal(err)
	}

	used := map[types.Object]bool{}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	imported := map[*types.Package]bool{}
	var pkgs []*Package
	for _, path := range sc.order {
		pkg, _ := l.lookup(path)
		pkgs = append(pkgs, pkg)
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					ifaces = append(ifaces, pkg.Info.TypeOf(it).(*types.Interface))
				}
				return true
			})
		}
		for _, imp := range pkg.Types.Imports() {
			if _, own := need[imp.Path()]; !own {
				imported[imp] = true
			}
		}
	}
	for imp := range imported {
		ifaces = append(ifaces, importedInterfaces(t, l.fset, imp)...)
	}

	implements := func(fn *types.Func) bool {
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if m := it.Method(i); m.Name() == fn.Name() && types.Identical(m.Type(), fn.Type()) {
					return true
				}
			}
		}
		return false
	}
	var out []string
	for _, pkg := range pkgs {
		if !strings.Contains(pkg.Path+"/", "/internal/") {
			continue
		}
		for _, obj := range pkg.Info.Defs {
			fn, ok := obj.(*types.Func)
			if !ok || !fn.Exported() || used[fn] {
				continue
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if types.IsInterface(recv.Type()) || implements(fn) {
					continue
				}
			}
			pos := pkg.Fset.Position(fn.Pos())
			out = append(out, fmt.Sprintf("%s:%d: %s has no caller outside tests", filepath.Base(pos.Filename), pos.Line, fn.FullName()))
		}
	}
	sort.Strings(out)
	return out
}

// importedInterfaces returns the interfaces a package outside the module
// declares or asserts: its named interface types, and the interface literals
// in its function bodies (errors.Is asserts interface{ Unwrap() error }),
// which the source importer does not type-check. A literal is checked in the
// package scope; one that names a local type or another package is skipped.
func importedInterfaces(t *testing.T, fset *token.FileSet, pkg *types.Package) []*types.Interface {
	t.Helper()
	var out []*types.Interface
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				out = append(out, it)
			}
		}
	}
	bp, err := build.Import(pkg.Path(), "", 0)
	if err != nil {
		t.Fatalf("locate %s: %v", pkg.Path(), err)
	}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			it, ok := n.(*ast.InterfaceType)
			if !ok {
				return true
			}
			info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
			if types.CheckExpr(fset, pkg, token.NoPos, it, info) == nil {
				out = append(out, info.Types[it].Type.(*types.Interface))
			}
			return false
		})
	}
	return out
}
